"""degenpop benchmark: CLI subcommands timed in-process to a checked result.

Run from the repository root:

    python3 perfbench/run.py --workload hum_default --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

One run sets the program up (fresh import of degenpop plus building and
validating the workload's scenarios), then runs rounds of the workload's
op sequence in a closed loop, one op at a time, for as many rounds as fit
in ``--seconds`` (default: ``run_seconds`` of BENCHMARK.json) at the rate
seen so far, and at least two. Every op's outputs are checked, and the
set-up is timed again several times, after each round, outside the timed
region. With
``--trace 1`` rounds alternate between untraced and traced; the traced
rounds give the per-layer metrics. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from env import ROOT, ProgramMissing, cap_threads, describe, import_program  # noqa: E402

SETUPS_PER_ROUND = 12
MIN_ROUNDS = 2
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "peak_rss_mb": "MB"}


def set_up(workload: str, seed: int) -> tuple[float, object, dict]:
    """Import degenpop and build and validate the workload's scenarios.

    Returns (seconds taken, the cli module, ||y0|| per preset). Each
    scenario gets the seeded initial data the CLI's --seed gives it.
    """
    import numpy as np

    from workloads import workload_presets

    start = time.perf_counter()
    cli = import_program()
    package = sys.modules["degenpop"]
    norms = {}
    for name in workload_presets(workload):
        scenario = package.preset(name)
        grid = scenario.spec.grid
        y0 = package.random_final_data(grid, seed=seed, stream=0)
        scenario.spec = replace(scenario.spec, y0=y0)
        scenario.seed = seed
        report = scenario.hypothesis_report()
        if not report.passed:
            raise RuntimeError(f"preset {name} fails its hypotheses: "
                               f"{report.lines()}")
        norms[name] = math.sqrt(grid.da * grid.dx
                                * float(np.sum(y0.values ** 2)))
    return time.perf_counter() - start, cli, norms


def time_set_up(workload: str, seed: int) -> float:
    """Time one more set-up, then restore the modules the ops run on."""
    kept = {n: m for n, m in sys.modules.items() if n.startswith("degenpop")}
    try:
        return set_up(workload, seed)[0]
    finally:
        for name in [n for n in sys.modules if n.startswith("degenpop")]:
            del sys.modules[name]
        sys.modules.update(kept)


def measure(args) -> dict:
    """One benchmark run; returns the result object."""
    import layers
    from spans import Tracer
    from workloads import (CheckContext, check_op, input_seed,
                           load_reference, round_ops, run_op)

    reference = load_reference()
    seed = input_seed(args.seed, reference)
    first_setup, cli, norms = set_up(args.workload, seed)
    setups = [first_setup]
    ctx = CheckContext(y0_norms=norms, rtol=reference["rtol"],
                       atol=reference["atol"],
                       references=reference["seeds"][str(seed)])
    ops = round_ops(args.workload, seed)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "degenpop" or n.startswith("degenpop.")]
    tracer = Tracer(modules, layers.ANNOTATORS)

    out_root = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    rounds, problems = [], []
    attempted = failed = 0
    residual_rel, cg_iterations, layer_raw = [], [], []
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            done, times = [], []
            if traced:
                tracer.install()
            try:
                for index, op in enumerate(ops):
                    first = len(tracer.spans)
                    code, seconds = run_op(cli, op, out_root / f"op{index}")
                    done.append((index, op, code, first, len(tracer.spans)))
                    times.append(seconds)
            finally:
                tracer.uninstall()
            rounds.append((traced, times))
            setups += [time_set_up(args.workload, seed)
                       for _ in range(SETUPS_PER_ROUND)]

            bytes_written = 0.0
            for index, op, code, first, last in done:
                out = out_root / f"op{index}"
                found = [] if code == 0 else [f"exit code {code}"]
                if code == 0:
                    bad, seen = check_op(op, out, ctx)
                    found += bad
                    if "final_residual_rel" in seen:
                        residual_rel.append(seen["final_residual_rel"])
                        cg_iterations.append(seen["cg_iterations"])
                    bytes_written += seen.get("artifact_bytes", 0)
                if traced and code == 0 and op.kind in ("hum", "run"):
                    found += layers.march_identity(tracer.spans, first, last)
                attempted += 1
                if found:
                    failed += 1
                    problems += [f"{' '.join(op.argv)}: {p}" for p in found]
                shutil.rmtree(out, ignore_errors=True)
            if traced:
                raw = layers.raw_sums(tracer.spans)
                raw["scenarios.artifact_bytes"] = bytes_written
                layer_raw.append(raw)
                tracer.spans.clear()
            # stop before a round that would likely end past --seconds
            elapsed = time.perf_counter() - start
            if len(rounds) >= MIN_ROUNDS \
                    and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:  # absent, or another run is using it
            pass

    for line in problems:
        print(f"failed: {line}", file=sys.stderr)
    walls = [sum(times) for traced, times in rounds if not traced]
    op_times = [t for traced, times in rounds if not traced for t in times]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if args.trace:
        mean = {k: statistics.fmean(r[k] for r in layer_raw)
                for k in layer_raw[0]}
        per_layer = layers.derive(mean)
        per_layer["control.final_residual_rel"] = max(residual_rel, default=0.0)
        traced_wall = statistics.median(
            sum(times) for traced, times in rounds if traced)
        per_layer["trace.overhead_frac"] = traced_wall / metrics["wall_s"] - 1.0
        units = {k: layers.UNITS[k] for k in layers.UNITS if k in per_layer}
        reported = {k: per_layer[k] for k in units}
    else:
        units, reported = END_TO_END, metrics

    print(f"env: {json.dumps(describe(args.caps), sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed} (input seed {seed}), "
          f"trace {args.trace}: {len(rounds)} rounds, {attempted} ops, "
          f"failed_frac {failed / attempted:g}")
    print(f"  op_p50_s over n = {len(op_times)} ops; setup_s over "
          f"{len(setups)} set-ups; wall_s over {len(walls)} untraced rounds")
    for index, op in enumerate(ops):
        times = [ts[index] for traced, ts in rounds if not traced]
        print(f"  op {op.argv[0]} {op.preset}: median "
              f"{statistics.median(times):.4g} s, min {min(times):.4g} s, "
              f"max {max(times):.4g} s over {len(times)}")
    if args.trace and "solver.forward.self_s" in reported:
        march = reported["solver.forward.self_s"] \
            + reported["solver.adjoint.self_s"]
        print(f"  solver march self time / untraced wall_s: "
              f"{march / metrics['wall_s']:.3f}")
    if residual_rel:
        print(f"  final_residual_rel {max(residual_rel):.6g} (worst); "
              f"cg_iterations {sorted(set(cg_iterations))}")
    for name, unit in units.items():
        print(f"  {name} {reported[name]:.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": reported[k], "unit": u}
                        for k, u in units.items()}}


def run_all(args) -> int:
    """Run every workload, untraced and traced, each in its own process."""
    from workloads import WORKLOADS

    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace {trace}: exit code "
                      f"{proc.returncode}", file=sys.stderr)
                return 1
            results[f"{workload}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {}}))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="time budget for the timed rounds (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    args.caps = cap_threads()
    if args.workload == "all":
        return run_all(args)
    try:
        result = measure(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
