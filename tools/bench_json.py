"""Run the benchmark on several checkouts, alternately, and collect the result lines.

    python3 tools/bench_json.py OUT.json parent=../old change=. --seeds 41 42 43

For each seed and each workload of BENCHMARK.json (or those given with
--workloads), every LABEL=CHECKOUT runs `perfbench/run.py --trace 0` for the
file's run_seconds, the order of the checkouts rotating from one seed to the
next and from one workload to the next.  Each result line is appended to
OUT.json with its label, workload and seed.  Before the first of them, each
checkout runs the first workload once for one second, and that result is
discarded.

Afterwards it prints, per workload and end-to-end metric of BENCHMARK.json,
each label's median and quartiles over the seeds in OUT.json (a seed run more
than once counts with its latest row), the last label's median change
against the first's, in how many seeds the last label beat the first, the
gap between their medians beside the first label's interquartile range, and
a verdict on the no-regression rule, the bound being the metric's in
BENCHMARK.json:

    worse         the last label's median is worse than the first's by more
                  than the bound;
    unresolved    the first label's interquartile range, relative to its
                  median, exceeds the bound, and not every run of the last
                  label beats every run of the first;
    within bound  otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

parser = argparse.ArgumentParser()
parser.add_argument("out", type=Path)
parser.add_argument("checkouts", nargs="+", help="LABEL=CHECKOUT")
parser.add_argument("--seeds", type=int, nargs="+", required=True)
parser.add_argument("--workloads", nargs="+")
args = parser.parse_args()
bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
sides = [c.split("=", 1) for c in args.checkouts]
labels = [label for label, _ in sides]
workloads = args.workloads or [w["name"] for w in bench["workloads"]]
rows = json.loads(args.out.read_text()) if args.out.exists() else []


def run(checkout, name, seed, seconds):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)


# One discarded one-second run per checkout first: a session's first run imports
# cold, and its setup_s alone could leave a three-seed verdict unresolved.
for _, checkout in sides:
    run(checkout, workloads[0], args.seeds[0], 1)
for i, seed in enumerate(args.seeds):
    for j, name in enumerate(workloads):
        # shifted by seed and by workload, so each workload's order alternates
        # from seed to seed whatever the number of workloads
        shift = (i + j) % len(sides)
        for label, checkout in sides[shift:] + sides[:shift]:
            proc = run(checkout, name, seed, bench["run_seconds"])
            rows.append({"label": label, "workload": name, "seed": seed,
                         **json.loads(proc.stdout.splitlines()[-1])})
            args.out.write_text(json.dumps(rows, indent=1) + "\n")

latest = {(r["workload"], r["label"], r["seed"]): r for r in rows}
for name in workloads:
    runs = {label: {seed: r for (w, lb, seed), r in latest.items() if (w, lb) == (name, label)}
            for label in labels}
    correct = all(r["correct"] for by_seed in runs.values() for r in by_seed.values())
    print(f"{name}: correct in every run: {correct}")
    first, last = runs[labels[0]], runs[labels[-1]]
    for metric in bench["end_to_end"]:
        key, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        medians, spreads, values = {}, {}, {}
        for label in labels:
            values[label] = [r["metrics"][key]["value"] for r in runs[label].values()]
            if not values[label]:
                continue
            q1, medians[label], q3 = np.percentile(values[label], [25, 50, 75])
            spreads[label] = q3 - q1
            print(f"  {key:12} {label:>8}  median {medians[label]:.4g}  "
                  f"quartiles {q1:.4g} .. {q3:.4g}  (n={len(values[label])})")
        seeds = sorted(first.keys() & last.keys())
        if len(labels) > 1 and seeds:
            won = sum(sign * (last[s]["metrics"][key]["value"]
                              - first[s]["metrics"][key]["value"]) < 0 for s in seeds)
            change = medians[labels[-1]] / medians[labels[0]] - 1.0
            gap = abs(medians[labels[-1]] - medians[labels[0]])
            print(f"  {key:12} {labels[-1]} vs {labels[0]}: median {change:+.1%} "
                  f"(bound {metric['bound']:.1%}, {metric['better']} is better), "
                  f"better in {won} of {len(seeds)} seeds, median gap {gap:.4g} "
                  f"against {labels[0]}'s interquartile range {spreads[labels[0]]:.4g}")
            # sign * value is lower for the better run
            beats_all = (max(sign * v for v in values[labels[-1]])
                         < min(sign * v for v in values[labels[0]]))
            verdict = ("worse" if sign * change > metric["bound"]
                       else "unresolved" if (spreads[labels[0]] > metric["bound"]
                                             * abs(medians[labels[0]]) and not beats_all)
                       else "within bound")
            print(f"  {key:12} verdict: {verdict}")
