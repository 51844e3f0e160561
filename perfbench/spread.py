"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per seed, one run at a time, from the
root of a checkout.  For each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  ``--out`` also writes these figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        result = json.loads(done.stdout.splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: exit {done.returncode}, result {result}")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()),
              flush=True)

    report = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        report[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "unit": m["unit"]}
        print(f"{m['name']}: median {median:.5g} {m['unit']}, quartiles {q1:.5g} {q3:.5g}, "
              f"spread {(q3 - q1) / median:.3f} (bound {m['bound']})")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
