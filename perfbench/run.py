"""Benchmark of the bayesmc CLI: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run makes the workload's inputs from the seed, then a fresh interpreter
(perfbench/worker.py) calls `bayesmc.cli.main(argv)` for each invocation of
the workload, one after another with `--jobs 1`, pass after pass for S
seconds.  Afterwards every output is checked against the oracles in
perfbench/oracle.py.  With `--trace 0` the metrics are end to end:

    setup_s      median seconds for a fresh interpreter to import bayesmc.cli,
                 rescaled by a reference import timed right after it
    wall_s       median seconds of one pass over the invocations, each
                 invocation's time rescaled to a fixed reference machine
                 speed sampled during it (perfbench/speed.py); raw pass
                 times are printed to stderr
    peak_rss_mb  peak resident memory of the process that ran the passes
    ok_share     1 - failed/attempted; an operation is one invocation (fails
                 on a nonzero exit) or one checked output record.  It stands
                 in for the failed share, which would read 0 once the known
                 defects are fixed

With `--trace 1` half the budget runs untraced and half with every public
bayesmc function wrapped (perfbench/spans.py); the metrics are per layer.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Failures whose labels match a workload's `known`
patterns are defects of the program that the benchmark reports (they count
in `failed`) without marking the run incorrect; any other failure, outputs
that differ between passes or between traced and untraced passes, or a
deliberately corrupted record the oracle does not catch makes `correct`
false.  A per-label failure summary goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from spans import LAYERS, PER_LAYER

WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 7
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150
#: Output file name -> the column the self-check corrupts in the first such
#: file of a run, to show that the oracle catches a wrong record.
CORRUPT = {"infer_summary.csv": "mean", "infer_density.csv": "density",
           "compare.csv": "log_evidence_nats", "entropy.csv": "energy_mean_bits"}


@dataclass
class Invocation:
    label: str
    argv: list[str]
    #: output file (relative to the invocation's --out) -> check(checker, label, path)
    checks: dict


@dataclass
class Workload:
    invocations: list[Invocation]
    #: fnmatch patterns of record labels that fail because of known defects
    known: tuple[str, ...] = ()
    #: records checked while the inputs were made: label -> passed
    records: dict = field(default_factory=dict)


def _infer_checks(source: str, alpha: float, grid) -> dict:
    counts = oracle.AverageCounts(source)
    return {
        "infer_summary.csv": functools.partial(
            oracle.check_summary, counts=counts, alpha=alpha, level=0.95, grid=grid),
        "infer_density.csv": functools.partial(
            oracle.check_density, counts=counts, alpha=alpha, points=512, grid=grid),
    }


def infer_regions(seed: int, work: Path) -> Workload:
    """504 equal-tail regions of the even process at N = 1e4, k <= 6, at
    alpha 1 and 0.1, then a golden-mean infer at N = 1e7.  Average mode has
    no random input, so the seed does not change this workload."""
    grid = [(10_000, k) for k in range(1, 7)]
    invocations = [
        Invocation(f"infer-a{alpha:g}",
                   ["infer", "--source", "even", "--n-start", "10000", "--k-min", "1",
                    "--k-max", "6", "--alpha", f"{alpha:g}"],
                   _infer_checks("even", alpha, grid))
        for alpha in (1.0, 0.1)
    ]
    invocations.append(Invocation(
        "infer-big", ["infer", "--source", "golden_mean", "--n-start", "10000000",
                      "--k-max", "1"],
        _infer_checks("golden_mean", 1.0, [(10_000_000, 1)])))
    # Known defects: tail quantiles below ~1e-15 miss their mass (alpha 0.1),
    # and the incomplete-Beta continued fraction fails at a = b ~ 3e6 (exit 3).
    return Workload(invocations, known=("infer-a0.1:region", "infer-big:exit"))


def _entropy_checks(counts, source, grid) -> dict:
    return {"entropy.csv": functools.partial(
        oracle.check_entropy, counts=counts, alpha=1.0, source=source, grid=grid)}


def sample_sweep(seed: int, work: Path) -> Workload:
    """Sample-mode entropy sweep of the even process, 5 N up to 5e4, k <= 4.

    The oracle recounts the sample that the program's own sampler draws for
    this seed, after checking that it is a valid even-process sequence."""
    import bayesmc.processes as processes

    n_max, grid_n = 50_000, range(10_000, 50_001, 10_000)
    data = processes.sample_sequence(processes.even_process(), n_max, seed).data
    argv = ["entropy", "--source", "even", "--mode", "sample", "--seed", str(seed),
            "--n-start", "10000", "--n-step", "10000", "--n-stop", str(n_max),
            "--k-max", "4"]
    grid = [(N, k) for N in grid_n for k in range(1, 5)]
    inv = Invocation("entropy", argv,
                     _entropy_checks(oracle.SequenceCounts(data), "even", grid))
    return Workload([inv], known=("entropy:energy_var",),
                    records={"entropy:sample_support": _is_even_sequence(data)})


def _is_even_sequence(data: np.ndarray) -> bool:
    """Every block of 1s bounded by 0s on both sides has even length."""
    zeros = np.flatnonzero(data == 0)
    return bool(np.all((np.diff(zeros) - 1) % 2 == 0))


def even_sequence(seed: int, n: int) -> np.ndarray:
    """n symbols of the even process from the benchmark's own generator: from
    the stationary start, the process emits blocks "0" or "11" with equal
    probability, and starts inside a "11" block with probability 1/3."""
    rng = np.random.default_rng(seed)
    pair = rng.random(n) < 0.5
    blocks = np.repeat(pair.astype(np.int64), np.where(pair, 2, 1))
    if rng.random() < 1.0 / 3.0:
        blocks = np.concatenate(([1], blocks))
    return blocks[:n]


def file_orders(seed: int, work: Path) -> Workload:
    """Order comparison and entropy over a seeded 1e6-symbol even-process
    file, orders up to 16."""
    data = even_sequence(seed, 1_000_000)
    path = work / "even.txt"
    path.write_bytes(np.frombuffer(b"01", dtype=np.uint8)[data].tobytes() + b"\n")
    counts = oracle.SequenceCounts(data)
    ks = range(1, 17)
    compare_grid = [(N, k) for N in range(100_000, 1_000_001, 100_000) for k in ks]
    entropy_grid = [(N, k) for N in range(200_000, 1_000_001, 200_000) for k in ks]
    compare = Invocation(
        "compare", ["compare", "--input", str(path), "--n-start", "100000",
                    "--n-step", "100000", "--n-stop", "1000000", "--k-max", "16"],
        {"compare.csv": functools.partial(oracle.check_compare, counts=counts,
                                          alpha=1.0, grid=compare_grid)})
    entropy = Invocation(
        "entropy", ["entropy", "--input", str(path), "--n-start", "200000",
                    "--n-step", "200000", "--n-stop", "1000000", "--k-max", "16"],
        _entropy_checks(counts, None, entropy_grid))
    return Workload([compare, entropy], known=("entropy:energy_var",))


def figures(seed: int, work: Path) -> Workload:
    """The paper's figure bundles 2-10 in average mode; the seed does not
    change this workload."""
    from bayesmc.cli import FIGURE_RECIPES

    invocations = []
    for fig in range(2, 11):
        command, source, recipe = FIGURE_RECIPES[fig]
        k_min, k_max = recipe["k"]
        grid = [(N, k) for N in recipe["n_grid"] for k in range(k_min, k_max + 1)]
        if command == "infer":
            checks = _infer_checks(source, 1.0, grid)
        elif command == "compare":
            checks = {"compare.csv": functools.partial(
                oracle.check_compare, counts=oracle.AverageCounts(source),
                alpha=1.0, grid=grid)}
        else:
            checks = _entropy_checks(oracle.AverageCounts(source), source, grid)
        invocations.append(Invocation(
            f"fig{fig}", ["reproduce", "--figure", str(fig)],
            {f"fig{fig}/{name}": fn for name, fn in checks.items()}))
    return Workload(invocations, known=("fig*:energy_var",))


WORKLOADS = {
    "infer_regions": infer_regions,
    "sample_sweep": sample_sweep,
    "file_orders": file_orders,
    "figures": figures,
}


def measure_setup(src: Path) -> tuple[float, float]:
    """Median seconds for a fresh interpreter to import bayesmc.cli, raw and
    rescaled by the reference imports timed in that interpreter right after;
    one discarded warm-up import first compiles the bytecode."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "t = time.perf_counter(); import bayesmc.cli; "
            "t = time.perf_counter() - t; import speed; "
            "print(t, t * speed.REFERENCE_IMPORT_S / speed.import_reference_seconds())")
    here = Path(__file__).resolve().parent
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code, str(src), str(here)],
                             check=True, capture_output=True, text=True, timeout=60)
        seconds, rescaled = map(float, out.stdout.split())
        raw.append(seconds)
        scaled.append(rescaled)
    return statistics.median(raw[1:]), statistics.median(scaled[1:])


def run_worker(plan: dict, work: Path) -> dict:
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    worker = Path(__file__).resolve().parent / "worker.py"
    proc = subprocess.run([sys.executable, str(worker), str(plan_path)],
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _corrupted_copy(path: Path, column: str, dest: Path) -> Path:
    """Copy of a CSV whose first data row has `column` scaled by 1.001."""
    lines = path.read_text(encoding="utf-8").split("\n")
    col = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    value = float(cells[col])
    cells[col] = repr(value * 1.001 if value else 1e-3)
    lines[1] = ",".join(cells)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text("\n".join(lines), encoding="utf-8")
    return dest


def check_outputs(workload: Workload, exit_codes: dict, out_root: Path, work: Path):
    """Check every output; returns (checker, corruptions caught, tried)."""
    checker = oracle.Checker(workload.known)
    corrupt = dict(CORRUPT)
    caught = tried = 0
    for label, ok in workload.records.items():
        checker.record(label, ok)
    for inv in workload.invocations:
        checker.record(f"{inv.label}:exit", exit_codes[inv.label] == 0)
        if exit_codes[inv.label] != 0:
            continue
        for rel, check in inv.checks.items():
            path = out_root / inv.label / rel
            if not path.is_file():
                checker.record(f"{inv.label}:file", False)
                continue
            own = oracle.Checker()
            try:
                check(own, inv.label, path)
            except (ValueError, KeyError, IndexError):  # not the CSV the CLI documents
                own.record(f"{inv.label}:parse", False)
            checker.attempted += own.attempted
            checker.failures.update(own.failures)
            column = corrupt.pop(path.name, None)
            if column is not None and not own.failures[f"{inv.label}:parse"]:
                bad = oracle.Checker()
                check(bad, inv.label, _corrupted_copy(path, column, work / "corrupt" / rel))
                tried += 1
                caught += bad.failed > own.failed
    return checker, caught, tried


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "bayesmc" / "cli.py").is_file():
        print(f"error: no bayesmc sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        setup = None if args.trace else measure_setup(src)
        out_root = work / "out"
        plan = {
            "src": str(src),
            "out_root": str(out_root),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "min_passes": MIN_PASSES,
            "invocations": [
                [inv.label, inv.argv + ["--jobs", "1", "--out", str(out_root / inv.label)]]
                for inv in workload.invocations],
        }
        report = run_worker(plan, work)
        checker, caught, tried = check_outputs(workload, report["exit_codes"], out_root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    unexpected = checker.unexpected()
    correct = (not unexpected and report["passes_identical"]
               and report.get("traced_identical", True) and caught == tried)
    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": (setup[1], "s"),
            "wall_s": (statistics.median(report["scaled"]), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
            "ok_share": (1.0 - checker.failed / checker.attempted, "share"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    _summarize(args, report, setup, checker, unexpected, caught, tried)
    print(json.dumps({"correct": bool(correct), "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


def _summarize(args, report, setup, checker, unexpected, caught, tried) -> None:
    """Human-readable account of the run, on stderr."""
    err = sys.stderr
    walls = report["walls"]
    print(f"[perfbench] {args.workload} seed={args.seed} passes={len(walls)} "
          f"raw pass s={[round(w, 3) for w in walls]} "
          f"rescaled={[round(w, 3) for w in report['scaled']]}", file=err)
    if setup is not None:
        print(f"[perfbench] setup raw={setup[0]:.4f} rescaled={setup[1]:.4f}", file=err)
    print(f"[perfbench] failed_share={checker.failed / checker.attempted:.6f} "
          f"({checker.failed}/{checker.attempted}); corrupted records caught "
          f"{caught}/{tried}; passes identical={report['passes_identical']}", file=err)
    for label, n in sorted(checker.failures.items()):
        tag = "UNEXPECTED" if label in unexpected else "known defect"
        print(f"[perfbench]   {label}: {n} failed ({tag})", file=err)
    if "layers" in report:
        layers = report["layers"]
        total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        shares = ", ".join(f"{layer} {layers[f'{layer}.self_s'] / total:.1%}"
                           for layer in sorted(LAYERS, key=lambda l: -layers[f"{l}.self_s"]))
        print(f"[perfbench] traced identical={report['traced_identical']} "
              f"overhead_s={layers['trace.overhead_s']:.3f} self time: {shares}", file=err)


if __name__ == "__main__":
    raise SystemExit(main())
