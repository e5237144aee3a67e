"""Print every end-to-end metric of every workload, by name and unit.

    python3 perfbench/report.py --seed 1 --seconds 30

Runs ``run.py --trace 0`` once per workload named in ``BENCHMARK.json``,
one after another, and prints one line per workload and metric, plus
``fail_frac``, the failed share of the steps attempted.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        name = workload["name"]
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        print(lines[0])
        for metric, value in result["metrics"].items():
            print(f"{name:15} {metric:12} {value['value']:.6g} {value['unit']}")
        print(f"{name:15} {'fail_frac':12} {result['failed'] / result['attempted']:g} ratio "
              f"({result['failed']} of {result['attempted']} steps)")


if __name__ == "__main__":
    main()
