"""Regenerate reference.json: the input-seed pool and its audit constants.

For each candidate input seed, runs ``run`` on every preset through the
same CLI calls the benchmark times and records the CG iterations of each
delayed control and the empirical constant of each audit summary ``run``
writes. The pool keeps the candidates whose CG iterations equal
CG_ITERATIONS, so every seed of a workload does the same work. For the
pool it also runs every audit op of the benchmark's workloads and
records their constants.
Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from env import ROOT, cap_threads, import_program  # noqa: E402

cap_threads()

from workloads import REFERENCE, WORKLOADS, round_ops, run_op  # noqa: E402

CANDIDATES = 96  # input seeds tried: 0 .. CANDIDATES - 1
JOBS = 2  # worker processes
RTOL = 1e-6
ATOL = 1e-12
# CG iterations of the delayed control in ``run``, by preset, that a pool
# seed must give: the most common counts over the candidates, and those
# of input seed 0, the seed the ROADMAP quotes
CG_ITERATIONS = {"default_degenerate": 179, "tirathaba_28C": 33,
                 "tirathaba_20C": 33, "nilaparvata": 33}
OUT = ROOT / ".perfbench_out" / "reference"


def _run(cli, op, out: Path) -> Path:
    shutil.rmtree(out, ignore_errors=True)
    code, _ = run_op(cli, op, out)
    if code != 0:
        raise RuntimeError(f"{' '.join(op.argv)} exited {code}")
    return out


def seed_constants(seed: int) -> tuple[int, dict, dict]:
    """Return (seed, CG iterations by preset, constants) for one input seed."""
    cli = import_program()
    out = OUT / str(seed)
    cg, constants = {}, {}
    for op in round_ops("pipeline_presets", seed):
        _run(cli, op, out)
        cg[op.preset] = json.loads(
            (out / "control_summary.json").read_text())["cg_iterations"]
        for path in sorted(out.glob("audit_*.json")):
            constants[op.reference_key(path.stem)] = \
                json.loads(path.read_text())["empirical_constant"]
    if cg == CG_ITERATIONS:
        for workload in WORKLOADS:
            for op in round_ops(workload, seed):
                if op.kind != "audit":
                    continue
                _run(cli, op, out)
                for stem in op.reports:
                    constants[op.reference_key(stem)] = json.loads(
                        (out / f"{stem}.json").read_text())["empirical_constant"]
    shutil.rmtree(out, ignore_errors=True)
    return seed, cg, constants


def main() -> int:
    pool, seeds, cg_by_seed = [], {}, {}
    try:
        with ProcessPoolExecutor(max_workers=JOBS) as executor:
            for seed, cg, constants in executor.map(
                    seed_constants, range(CANDIDATES)):
                cg_by_seed[str(seed)] = cg
                if cg == CG_ITERATIONS:
                    pool.append(seed)
                    seeds[str(seed)] = constants
                print(f"seed {seed}: cg {cg}", flush=True)
    finally:
        shutil.rmtree(OUT.parent, ignore_errors=True)
    REFERENCE.write_text(json.dumps({
        "rtol": RTOL, "atol": ATOL, "cg_iterations": CG_ITERATIONS,
        "pool": pool, "cg_iterations_by_seed": cg_by_seed, "seeds": seeds,
    }, indent=1, sort_keys=True) + "\n")
    print(f"pool of {len(pool)} input seeds: {pool}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
