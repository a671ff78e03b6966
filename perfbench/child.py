"""One benchmark child: set up a workload, then run and check its rounds.

Started by ``run.py`` in a fresh interpreter per setup and per run, so
every measurement pays the interpreter start, the imports and the
workload's own set-up.  Protocol on stdout: a ``PERFBENCH READY`` line once
set-up is done, and at the end one ``PERFBENCH {json}`` line with the
measurements.  Anything the CLI prints is discarded.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_TIMED_ROUNDS = 3
TRACE_UNTRACED_SHARE = 0.4  # of --seconds, for the untraced half of --trace 1
MAX_FAILURE_LINES = 20

# glibc sysconf names for the cache sizes; glibc answers them from cpuid.
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(np):
    """(wall, cpu) seconds of a fixed numpy kernel that never changes.

    It mixes the kinds of work the workloads do: elementwise passes over
    fresh 128 KiB arrays, like the small cell solves; the same passes over
    fresh 512 KiB arrays, whose working set exceeds the L2 cache, like the
    large crossbar solves; and small matrix products, like training.  Its
    arrays add about 3 MB to the child's peak RSS.  Timed between rounds,
    it measures how fast the shared host runs at that moment.
    The ratio of round time to probe time is steadier between runs than
    either time alone.
    """
    def passes(n, iters):
        a = np.linspace(0.1, 1.0, n)
        for _ in range(iters):
            b = np.exp(-a) * a + np.where(a > 0.5, a * a, a)
            a = 0.5 * (a + b) / (1.0 + b)

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    passes(1 << 14, 1200)
    passes(1 << 16, 80)
    w = np.linspace(-1.0, 1.0, 512).reshape(16, 32)
    x = np.linspace(0.0, 1.0, 512).reshape(32, 16)
    for _ in range(6000):
        h = np.maximum(x @ w, 0.0)
        w -= 1e-6 * (x.T @ h)
    return time.perf_counter() - t0, _cpu_seconds() - cpu0


def environment(np):
    try:
        libc = ctypes.CDLL(None)
        l2 = libc.sysconf(_SC_LEVEL2_CACHE_SIZE)
        l3 = libc.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        l2 = l3 = -1
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", 0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "l2_bytes": l2, "l3_bytes": l3}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import onetr
    import onetr.cli
    if Path(onetr.__file__).resolve().parent != src / "onetr":
        raise SystemExit(f"onetr imported from {onetr.__file__}, not {src}")

    import tracing
    import workloads
    reference = workloads.load_reference(args.workload)

    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    by_seed = reference["seeds"].get(str(args.seed))
    ctx = workloads.Context(args.workload, args.seed, onetr,
                            reference=by_seed or reference["any"],
                            reference_complete=by_seed is not None)
    workloads.setup(ctx)
    print("PERFBENCH READY", flush=True)
    if args.setup_only:
        print("PERFBENCH " + json.dumps({"peak_rss_mb": _peak_rss_mb()}),
              flush=True)
        return 0

    ops = workloads.operations(ctx)
    cli_main = onetr.cli.main
    sink = io.StringIO()

    tracer = None

    def call(op):
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                return cli_main(op.argv)
            return tracer.call(f"cli.{op.argv[0]}", cli_main, op.argv)

    # Round 0 warms up and is not timed.  Untraced rounds run until their
    # budget is spent; with --trace 1 traced rounds then fill the rest.
    untraced_budget = args.seconds * (TRACE_UNTRACED_SHARE if args.trace
                                      else 1.0)
    min_untraced = 1 if args.trace else MIN_TIMED_ROUNDS
    start = time.perf_counter()
    failures, first = [], None
    rounds = {"untraced": [], "traced": []}
    probes = []  # (wall, cpu) of the probe run just before each round
    layers, groups = [], []
    n_rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        if tracer is None:
            if (len(rounds["untraced"]) >= min_untraced
                    and elapsed >= untraced_budget):
                if not args.trace:
                    break
                tracer = tracing.Tracer()
                tracer.install()
        elif rounds["traced"] and elapsed >= args.seconds:
            break
        phase = "untraced" if tracer is None else "traced"
        workloads.clean()
        if tracer is not None:
            tracer.run = f"{args.workload}-{args.seed}-round{n_rounds}"
            first_span = len(tracer.spans)
        probes.append(probe(np))
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        codes = workloads.run_ops(ops, call)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        if n_rounds > 0:
            rounds[phase].append((wall, cpu, n_rounds))
        if tracer is not None:
            spans = tracer.spans[first_span:]
            layers.append(tracing.layer_metrics(spans))
            groups.append(tracing.group_self_seconds(spans))
        errors, first = workloads.check_ops(ctx, ops, codes, first)
        failures += [f"round {n_rounds}: {e}" for e in errors]
        n_rounds += 1
    # Each timed round is divided by the mean of the two probes that
    # bracket it, so the probe samples the host on both sides of the round.
    probes.append(probe(np))
    for phase, timed in rounds.items():
        rounds[phase] = [
            (wall, cpu, (probes[k][0] + probes[k + 1][0]) / 2,
             (probes[k][1] + probes[k + 1][1]) / 2)
            for wall, cpu, k in timed]

    result = {
        "rounds": n_rounds,
        "attempted": n_rounds * len(ops),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURE_LINES],
        "reference": "complete" if ctx.reference_complete
                     else "seed-independent operations only",
        "ops": [op.name for op in ops],
        "wall_s": [r[0] for r in rounds["untraced"]],
        "cpu_s": [r[1] for r in rounds["untraced"]],
        "probe_s": [r[2] for r in rounds["untraced"]],
        "wall_rel": [r[0] / r[2] for r in rounds["untraced"]],
        "cpu_rel": [r[1] / r[3] for r in rounds["untraced"]],
        "peak_rss_mb": _peak_rss_mb(),
        "env": environment(np),
    }
    if tracer is not None:
        # Compared in probe units, so host drift between the two phases
        # cancels, then converted back to seconds.
        def rel(phase):
            return statistics.median(r[0] / r[2] for r in rounds[phase])
        probe_s = statistics.median(
            r[2] for r in rounds["untraced"] + rounds["traced"])
        result["layers"] = tracing.median_metrics(layers)
        result["layers"]["trace.wall_s"] = statistics.median(
            r[0] for r in rounds["traced"])
        result["layers"]["trace.overhead_s"] = (
            (rel("traced") - rel("untraced")) * probe_s)
        result["groups"] = tracing.median_metrics(groups)
        tracer.write(Path(args.workdir) / "spans.jsonl")
    workloads.clean()
    print("PERFBENCH " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
