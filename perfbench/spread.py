"""Run-to-run spread of the end-to-end metrics over seeds.

Runs the benchmark once per seed (sequentially, one process each) and prints,
for every end-to-end metric, the median and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``) next to the
metric's bound from ``BENCHMARK.json``.  A metric is steady when its spread
is below a third of its bound (``setup_s`` is exempt from the spread rule).

    python3 perfbench/spread.py --workload kv_pressure --seeds 0-9
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    values: dict[str, list[float]] = {}
    all_correct = True
    for seed in range(int(first), int(last or first) + 1):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        all_correct &= result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
            flush=True)
    unsteady = False
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        steady = metric["name"] == "setup_s" or spread < metric["bound"] / 3
        unsteady |= not steady
        print(f"{metric['name']:<14} median {median:<14.6g} spread {spread:7.2%} "
              f"bound {metric['bound']:.0%} {'ok' if steady else 'UNSTEADY'}")
    print(f"correct on every seed: {all_correct}")
    return 0 if all_correct and not unsteady else 1


if __name__ == "__main__":
    sys.exit(main())
