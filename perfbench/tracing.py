"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the ``onetr`` modules from the outside:
each wrapped function is rebound in every loaded ``onetr`` module that holds
it by name, so calls made through ``from .device import solve_synapse_grid``
are timed as well as calls through the defining module.  Nothing in the
package itself is changed.

A span is (id, name, start, end, parent id, run id) plus the counts taken
at the boundary (cells, samples, steps, bytes).  Spans stay in memory and
are written once, when the child exits.  Self time is a span's duration
minus the duration of its direct children.

Every layer runs on the caller's thread and nothing waits on a queue or a
lock, so waiting time is zero by construction and is not reported.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import os
import statistics
import sys
import time

import numpy as np

SUBCOMMANDS = ("characterize", "cutoff", "power-mc", "train", "search-vg",
               "neat", "eval", "energy", "report")

# (module, function, span name).  The span name is the layer metric prefix.
TARGETS = (
    ("onetr.device", "solve_synapse_grid", "device"),
    ("onetr.characterize", "sweep_geff", "characterize"),
    ("onetr.characterize", "tolerance_metric", "characterize"),
    ("onetr.characterize", "linear_vin_range", "characterize"),
    ("onetr.characterize", "find_gm_cutoff", "characterize"),
    ("onetr.characterize", "cutoff_table", "characterize"),
    ("onetr.characterize", "power_monte_carlo", "characterize"),
    ("onetr.mapping", "scale_from_range", "mapping"),
    ("onetr.mapping", "layer_scale", "mapping"),
    ("onetr.mapping", "clip_weights", "mapping"),
    ("onetr.mapping", "wcut_from_vg", "mapping"),
    ("onetr.mapping", "weight_to_conductance", "mapping"),
    ("onetr.crossbar", "program", "crossbar.program"),
    ("onetr.crossbar", "readout_gain", "crossbar.mvm"),
    ("onetr.crossbar", "mvm_ideal", "crossbar.mvm"),
    ("onetr.crossbar", "mvm_nonideal", "crossbar.mvm"),
    ("onetr.crossbar", "mvm_nonideal_batch", "crossbar.mvm"),
    ("onetr.crossbar", "mvm_energy", "crossbar.mvm"),
    ("onetr.crossbar", "mvm_energy_batch", "crossbar.mvm"),
    ("onetr.network", "train", "network.train"),
    ("onetr.network", "accuracy", "network.accuracy"),
    ("onetr.training", "search_heterogeneous_vg", "training.search"),
    ("onetr.training", "homogeneous_schedule", "training.search"),
    ("onetr.training", "step_down_schedule", "training.search"),
    ("onetr.training", "program_model", "training.program_model"),
    ("onetr.training", "evaluate", "training.evaluate"),
    ("onetr.training", "network_energy", "training.network_energy"),
    ("onetr.training", "iterative_train", "training.iterative_train"),
    # Artifact reads and writes; each takes a ``path`` argument.
    ("onetr.cli", "_write_json", "cli.io"),
    ("onetr.cli", "_write_csv", "cli.io"),
    ("onetr.characterize", "write_cutoff_csv", "cli.io"),
    ("onetr.training", "save_checkpoint", "cli.io"),
    ("onetr.training", "load_checkpoint", "cli.io"),
    ("onetr.data", "read_dataset_csv", "cli.io"),
)

# Artifact writers; their byte count is taken after the write.
_IO_WRITES = {"_write_json", "_write_csv", "write_cutoff_csv",
              "save_checkpoint"}

# Top-level groups for the self-time breakdown printed by a traced run.
GROUPS = ("device", "characterize", "mapping", "crossbar", "network",
          "training", "cli")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "counts",
                 "child_s", "outermost")

    def __init__(self, sid, name, start, parent, run, outermost):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.counts = {}
        self.child_s = 0.0
        self.outermost = outermost

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def to_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run,
                "counts": self.counts}


def _path_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _digest(*parts):
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


def _mvm_key(a):
    """(tileset content, activations, device mode, supply) of an MVM call."""
    ts = a["ts"]
    tiles = [b for tile in ts.tiles
             for b in (repr((tile.row0, tile.col0)),
                       np.ascontiguousarray(tile.g_plus).tobytes(),
                       np.ascontiguousarray(tile.g_minus).tobytes())]
    acts = np.ascontiguousarray(np.asarray(a["activations"], dtype=float))
    mode = a.get("mode")
    return _digest(repr((ts.shape, ts.v_g, ts.w_cut, ts.a_max, ts.scale)),
                   *tiles, repr(acts.shape), acts.tobytes(),
                   getattr(mode, "variant", "analytical"),
                   float(a.get("v_supply", 0.5)))


class Tracer:
    """Collects spans; one instance per traced child process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self.run = None

    # -- span bookkeeping -------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        outermost = not any(s.name == name for s in self._stack)
        span = Span(self._next_id, name, time.perf_counter(),
                    None if parent is None else parent.id, self.run,
                    outermost)
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration
            if span.name == "device" and not span.counts.get("ideal"):
                mvm = next((s for s in self._stack
                            if s.name == "crossbar.mvm"), None)
                if mvm is not None:
                    mvm.counts["device_cells"] = (
                        mvm.counts.get("device_cells", 0)
                        + span.counts.get("cells", 0))
        self.spans.append(span)

    # -- function wrapping -----------------------------------------------

    def _wrap(self, func, name):
        fname = func.__name__
        signature = inspect.signature(func)
        counted = name in ("device", "crossbar.mvm", "network.train", "cli.io")

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            a = {}
            try:
                if counted:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    a = bound.arguments
                    if name == "device":
                        shape = np.broadcast_shapes(
                            *(np.shape(a[k]) for k in ("g_m", "v_in", "v_g")))
                        span.counts["cells"] = int(math.prod(shape))
                        span.counts["ideal"] = (
                            a["mode"].variant == "ideal_switch")
                    elif name == "crossbar.mvm" and "activations" in a:
                        shape = np.shape(a["activations"])
                        span.counts["samples"] = int(math.prod(shape[:-1]))
                        if span.outermost:
                            span.counts["key"] = _mvm_key(a)
                    elif name == "network.train":
                        epochs = a["epochs"]
                        if epochs is None:
                            epochs = a["config"].epochs
                        n = np.shape(a["x"])[0]
                        span.counts["steps"] = int(
                            epochs * -(-n // a["config"].batch_size))
                    elif name == "cli.io" and fname not in _IO_WRITES:
                        span.counts["bytes"] = _path_bytes(a["path"])
                return func(*args, **kwargs)
            finally:
                if name == "cli.io" and fname in _IO_WRITES and "path" in a:
                    span.counts["bytes"] = _path_bytes(a["path"])
                self.close(span)

        return wrapper

    def install(self):
        """Rebind every target in every loaded ``onetr`` module.

        A target the package no longer defines is an error, so that a
        renamed function cannot read as a layer that takes no time.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "onetr" or n.startswith("onetr.")) and m]
        for mod_name, func_name, name in TARGETS:
            original = getattr(sys.modules.get(mod_name), func_name, None)
            if original is None:
                raise RuntimeError(f"trace target {mod_name}.{func_name} "
                                   "is not defined")
            wrapper = self._wrap(original, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def call(self, name, func, *args):
        """Run ``func`` inside a span opened by the harness itself."""
        span = self.open(name)
        try:
            return func(*args)
        finally:
            self.close(span)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                d = span.to_dict()
                key = d["counts"].get("key")
                if key is not None:
                    d["counts"] = dict(d["counts"], key=key.hex())
                fh.write(json.dumps(d) + "\n")


def layer_metrics(spans):
    """Per-layer metrics of the spans of one workload sequence."""
    out = {}

    def busy(prefix):
        chosen = [s for s in spans if s.name == prefix and s.outermost]
        return chosen, sum(s.duration for s in chosen)

    def self_s(prefix):
        return sum(s.self_s for s in spans if s.name == prefix)

    dev, dev_busy = busy("device")
    cells = [s.counts["cells"] for s in dev]
    out["device.calls"] = len(dev)
    out["device.cells"] = sum(cells)
    out["device.busy_s"] = dev_busy
    # Solver throughput over the bisection calls only: the closed-form
    # ideal-switch calls are far cheaper per cell and would swamp it.
    solved = [s for s in dev if not s.counts["ideal"]]
    solved_s = sum(s.duration for s in solved)
    out["device.cells_per_s"] = (sum(s.counts["cells"] for s in solved)
                                 / solved_s if solved_s > 0 else 0.0)
    out["device.max_cells_per_call"] = max(cells, default=0)

    ch, ch_busy = busy("characterize")
    out["characterize.calls"] = len(ch)
    out["characterize.busy_s"] = ch_busy
    out["characterize.self_s"] = self_s("characterize")

    mp, mp_busy = busy("mapping")
    out["mapping.calls"] = len(mp)
    out["mapping.busy_s"] = mp_busy

    pr, pr_busy = busy("crossbar.program")
    out["crossbar.program.calls"] = len(pr)
    out["crossbar.program.busy_s"] = pr_busy

    mvm, mvm_busy = busy("crossbar.mvm")
    out["crossbar.mvm.calls"] = len(mvm)
    out["crossbar.mvm.samples"] = sum(s.counts.get("samples", 0) for s in mvm)
    out["crossbar.mvm.busy_s"] = mvm_busy
    out["crossbar.mvm.self_s"] = self_s("crossbar.mvm")
    solved, distinct = 0, {}
    for s in mvm:
        c = s.counts.get("device_cells", 0)
        solved += c
        if "key" in s.counts:
            distinct.setdefault(s.counts["key"], c)
    unique = sum(distinct.values())
    out["crossbar.solve_redundancy"] = solved / unique if unique else 0.0

    tr, tr_busy = busy("network.train")
    steps = sum(s.counts["steps"] for s in tr)
    out["network.train.steps"] = steps
    out["network.train.busy_s"] = tr_busy
    out["network.step_us"] = 1e6 * tr_busy / steps if steps else 0.0

    for key in ("search", "program_model", "evaluate", "network_energy"):
        out[f"training.{key}.busy_s"] = busy(f"training.{key}")[1]
    out["training.iterative_train.self_s"] = self_s("training.iterative_train")

    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.s"] = busy(f"cli.{sub}")[1]
    io, io_busy = busy("cli.io")
    out["cli.io.s"] = io_busy
    out["cli.io.bytes"] = sum(s.counts.get("bytes", 0) for s in io)
    return out


def group_self_seconds(spans):
    """Self time per top-level group; the basis of the printed shares."""
    totals = dict.fromkeys(GROUPS, 0.0)
    for s in spans:
        totals[s.name.split(".")[0]] += s.self_s
    return totals


def median_metrics(per_iteration):
    """Median of each metric over the traced iterations."""
    return {k: statistics.median(d[k] for d in per_iteration)
            for k in per_iteration[0]}
