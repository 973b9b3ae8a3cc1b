"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload hum_default --seeds 0-9 [--seconds 20]

Runs the benchmark once per seed, untraced, one run at a time, and prints
for each end-to-end metric its median and the distance between its first
and third quartile as a share of the median, next to the metric's bound
from BENCHMARK.json. The last line is a JSON object with the values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        summary[metric["name"]] = {"median": median, "spread": spread,
                                   "bound": metric["bound"], "values": vals}
        print(f"{metric['name']}: median {median:.6g}, spread {spread:.4f} "
              f"(bound {metric['bound']}, a third of it "
              f"{metric['bound'] / 3:.4f})")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
