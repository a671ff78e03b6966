"""Regenerate ``reference.json``: the outputs every workload check compares.

    python3 perfbench/make_reference.py

Runs one round of each workload for seeds 0..99 with the toolkit under
``src/`` and records the numbers each operation's check returns.  The
committed file was produced at the commit that introduced the benchmark,
so later commits are checked against those outputs.  Operations whose
inputs do not depend on the seed are also stored under ``"any"`` and are
checked for every seed, including seeds beyond the file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
from run import BLAS_THREADS  # noqa: E402

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(
    BLAS_THREADS)

import onetr  # noqa: E402
import onetr.cli  # noqa: E402

import workloads  # noqa: E402

REFERENCE_SEEDS = 100
SEED_INDEPENDENT = {"characterize": ("cutoff_default", "cutoff_stressed")}


def outputs(workload, seed, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        ctx = workloads.Context(workload, seed, onetr)
        workloads.setup(ctx)
        ops = workloads.operations(ctx)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = workloads.run_ops(ops,
                                      lambda op: onetr.cli.main(op.argv))
        failures, _ = workloads.check_ops(ctx, ops, codes)
        if failures:
            raise SystemExit(f"{workload} seed {seed}: {failures}")
        return ctx.data["summaries"]
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    work = ROOT / ".perfbench_work" / "reference"
    reference = {}
    for workload in workloads.WORKLOADS:
        seeds = {}
        for seed in range(REFERENCE_SEEDS):
            seeds[str(seed)] = outputs(workload, seed, work)
            print(f"{workload} seed {seed}", flush=True)
        fixed = SEED_INDEPENDENT.get(workload, ())
        anyseed = {op: seeds["0"][op] for op in fixed}
        for seed, found in seeds.items():
            for op in fixed:
                if found[op] != anyseed[op]:
                    raise SystemExit(f"{workload}/{op} depends on the seed")
        reference[workload] = {"any": anyseed, "seeds": seeds}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
