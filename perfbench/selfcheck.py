"""Fast self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Asserts that a short run emits every metric ``BENCHMARK.json`` names,
with its unit, in both modes, that a corrupted artifact is counted as a
failed operation, and that the benchmark refuses to report without the
toolkit sources.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selfcheck"


def need(cond, detail=""):
    """Like ``assert``, but kept under ``python -O``."""
    if not cond:
        raise AssertionError(detail)


def run_bench(trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "neat", "--seed",
         "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return out


def check_emission():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"]: m["unit"] for m in bench[key]}
        out = run_bench(trace)
        need(out.returncode == 0, out.stderr)
        result = json.loads(out.stdout.splitlines()[-1])
        need(set(result) == {"correct", "attempted", "failed", "metrics"})
        need(result["correct"] and result["failed"] == 0, out.stdout)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        need(got == names, (trace, sorted(set(got) ^ set(names))))
        need(all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values()))


def check_corruption():
    """A damaged artifact must turn into a failed operation."""
    sys.path.insert(0, str(ROOT / "src"))
    import onetr
    import onetr.cli
    import workloads
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(WORK)
    try:
        ref = workloads.load_reference("neat")
        ctx = workloads.Context("neat", 0, onetr,
                                reference=ref["seeds"].get("0", {}),
                                reference_complete="0" in ref["seeds"])
        with contextlib.redirect_stdout(io.StringIO()):
            workloads.setup(ctx)
        ops = workloads.operations(ctx)

        def run_round():
            workloads.clean()
            with contextlib.redirect_stdout(io.StringIO()):
                return workloads.run_ops(ops,
                                         lambda op: onetr.cli.main(op.argv))

        codes = run_round()
        failures, first = workloads.check_ops(ctx, ops, codes)
        need(failures == [], failures)

        # A wrong but well-formed number is caught by the output checks.
        path = ctx.out("eval_crossbar") / "eval.json"
        payload = json.loads(path.read_text())
        payload["accuracy"] = payload["accuracy"] - 0.5
        path.write_text(json.dumps(payload))
        failures, _ = workloads.check_ops(ctx, ops, codes)
        need(len(failures) == 1 and "eval_crossbar" in failures[0], failures)

        # A truncated checkpoint is caught on a first round ...
        codes = run_round()
        ckpt = ctx.out("train") / "checkpoint.json"
        ckpt.write_text(ckpt.read_text()[:100])
        failures, _ = workloads.check_ops(ctx, ops, codes)
        need(len(failures) == 1 and failures[0].startswith("train:"), failures)

        # ... and on a later round, by the byte comparison with the first.
        failures, _ = workloads.check_ops(ctx, ops, codes, first)
        need(len(failures) == 1 and failures[0].startswith("train:"), failures)
    finally:
        os.chdir(cwd)
        shutil.rmtree(WORK, ignore_errors=True)


def check_refuses_without_sources():
    bare = WORK.with_name("selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = run_bench(0, cwd=bare)
        need(out.returncode != 0)
        need(not out.stdout.strip(), out.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    for check in (check_corruption,
                  check_refuses_without_sources, check_emission):
        check()
        print(f"ok {check.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
