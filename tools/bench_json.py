"""Run the benchmark on several checkouts, alternately, and collect the result lines.

    python3 tools/bench_json.py OUT.json parent=../old change=. --seeds 41 42 43

For each seed and each workload of BENCHMARK.json (or those given with
--workloads), every LABEL=CHECKOUT runs `perfbench/run.py --trace 0` for the
file's run_seconds, the order of the checkouts rotating from one pair to the
next.  Each result line is appended to OUT.json with its label, workload and seed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

parser = argparse.ArgumentParser()
parser.add_argument("out", type=Path)
parser.add_argument("checkouts", nargs="+", help="LABEL=CHECKOUT")
parser.add_argument("--seeds", type=int, nargs="+", required=True)
parser.add_argument("--workloads", nargs="+")
args = parser.parse_args()
bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
sides = [c.split("=", 1) for c in args.checkouts]
rows = json.loads(args.out.read_text()) if args.out.exists() else []
for seed in args.seeds:
    for name in args.workloads or [w["name"] for w in bench["workloads"]]:
        for label, checkout in sides:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=checkout, capture_output=True, text=True, check=True)
            rows.append({"label": label, "workload": name, "seed": seed,
                         **json.loads(proc.stdout.splitlines()[-1])})
            args.out.write_text(json.dumps(rows, indent=1) + "\n")
        sides = sides[1:] + sides[:1]
