"""Benchmark entry point for the onetr toolkit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source checkout; the toolkit is imported from
``src/``.  Every workload runs in fresh child processes with BLAS threads
pinned.  With ``--trace 0`` the children run untraced and the result holds
the end-to-end metrics; the set-up is repeated several times and its median
reported.  With ``--trace 1`` one child runs untraced rounds and then traced
rounds, and the result holds the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).with_name("child.py")
WORK = ROOT / ".perfbench_work"

SETUP_RUNS = 5  # set-ups per --trace 0 run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, children included
BLAS_THREADS = 1  # see README.md


class ChildFailed(Exception):
    pass


def spawn(args, workdir, setup_only, deadline):
    """Run one child; returns (seconds from spawn to ready, result or None)."""
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", str(SRC),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    env.pop("ONETR_DEVICE_FILE", None)
    ready, result = None, None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line == "PERFBENCH READY\n":
                ready = time.perf_counter() - t0
            elif line.startswith("PERFBENCH {"):
                result = json.loads(line[len("PERFBENCH "):])
    finally:
        proc.stdout.close()
        code = proc.wait()
        timer.cancel()
    if code != 0 or ready is None or result is None:
        raise ChildFailed(f"child exited with {code} "
                          f"({'ready' if ready else 'never ready'})")
    return ready, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "onetr" / "__init__.py").is_file():
        print(f"error: no toolkit sources under {SRC}", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace
                                                    else "end_to_end"]}
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups, setup_rss = [], []
        if not args.trace:
            for k in range(SETUP_RUNS - 1):
                ready, res = spawn(args, work / f"setup{k}", True, deadline)
                setups.append(ready)
                setup_rss.append(res["peak_rss_mb"])
                shutil.rmtree(work / f"setup{k}", ignore_errors=True)
        ready, res = spawn(args, work / "run", False, deadline)
        setups.append(ready)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"ops {' '.join(res['ops'])}; rounds {res['rounds']} "
          f"(first untimed); reference outputs: {res['reference']}")
    for line in res["failures"]:
        print(f"FAILED {line}")
    attempted, failed = res["attempted"], res["failed"]

    if args.trace:
        wall = res["layers"]["trace.wall_s"]
        print("self time per layer group in a traced round "
              f"({wall:.4f} s): " + ", ".join(
                  f"{g} {s:.4f} s ({s / wall:.1%})"
                  for g, s in sorted(res["groups"].items(),
                                     key=lambda kv: -kv[1])))
        values = res["layers"]
    else:
        for name in ("wall_s", "cpu_s", "probe_s", "wall_rel", "cpu_rel"):
            vals = res[name]
            lo, hi = quartiles(vals)
            print(f"{name}: median {statistics.median(vals):.4f}, quartiles "
                  f"{lo:.4f}..{hi:.4f} over {len(vals)} rounds")
        rss, base = res["peak_rss_mb"], statistics.median(setup_rss)
        print(f"peak_rss_mb: {rss:.1f} MB, of which set-up alone "
              f"{base:.1f} MB; the rounds add {rss - base:.1f} MB "
              f"({(rss - base) / rss:.1%})")
        values = {"setup_s": statistics.median(setups),
                  "wall_rel": statistics.median(res["wall_rel"]),
                  "cpu_rel": statistics.median(res["cpu_rel"]),
                  "peak_rss_mb": rss,
                  "ok_frac": (attempted - failed) / attempted}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, child=res, setup_s=setups), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
