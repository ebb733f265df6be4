"""Run the benchmark once per seed on each workload, one run at a time, and
print each end-to-end metric's median, quartiles and spread
((q3 - q1) / median, quartiles as `statistics.quantiles(values, n=4)`).

    python3 benchmarks/spread.py [--workloads figures validate sweep_dense]
                                 [--seeds 1 2 ... 10] [--save PATH]

--save appends every run's result line, as JSON with its workload and seed,
to PATH; `.bench_results/` at the root of the checkout is ignored by git.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--save", default=None)
    args = ap.parse_args()
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failed = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if args.save:
                with open(args.save, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            failed.append(f"{result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(args.seeds)} runs, failed/attempted {' '.join(failed)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:<12} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"spread {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
