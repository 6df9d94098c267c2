"""Command-line front end: parameter inference, order comparison, entropy
sweeps, simulation, and canned figure-reproduction bundles.

All commands emit CSV (optionally mirrored as JSON) with 12-significant-
digit formatting so outputs are diff-able goldens.  Exit codes: 0 success,
2 invalid configuration, 3 numeric-domain failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import comparison, entropy, inference, processes
from .core import (Alphabet, CountTable, HyperTable, SymbolSequence, check_table_size,
                   count_words, hyper_from_fake_counts, lower_order_counts, read_sequence,
                   uniform_hyper, word_strings, write_sequence)
from .special import NumericDomainError

EXIT_BAD_CONFIG = 2
EXIT_NUMERIC = 3

OUT_DIR_ENV = "BAYESMC_OUT"


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one error record, as for every other invalid input
        raise ConfigError(message)


@dataclass
class ExperimentConfig:
    source: str | None
    input_path: str | None
    csv_column: str | None
    mode: str  # "average" or "sample"
    k_min: int
    k_max: int
    n_grid: tuple[int, ...]
    alpha: float
    fake_counts_path: str | None
    confidence: float
    seed: int | None
    out_dir: Path
    fmt: str
    jobs: int
    density_points: int


def _fmt(value) -> str:
    return "" if value is None else f"{value:.12g}" if isinstance(value, float) else str(value)


@contextlib.contextmanager
def _staged(path: Path, head: str):
    """An open text file, begun with `head`, that appears at `path` only if the block completes."""
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", encoding="utf-8") as fh:
            fh.write(head)
            yield fh
        part.replace(path)
    finally:
        part.unlink(missing_ok=True)


def _resolve_hmm(cfg: ExperimentConfig) -> processes.LabeledHMM:
    if cfg.source is None:
        raise ConfigError("a --source is required for this mode")
    if cfg.source in processes.BUILTIN_SOURCES:
        return processes.BUILTIN_SOURCES[cfg.source]()
    if os.path.exists(cfg.source):
        return processes.load_hmm(cfg.source)
    raise ConfigError(f"unknown source {cfg.source!r}")


def _read_fake_counts(path: str, orders: range, alphabet: Alphabet) -> dict[int, HyperTable]:
    """Each order's prior from a CSV with columns word,symbol,count, where a
    word's length is its order; unlisted entries default to 0, an entry may
    be listed once, and every hyperparameter is its fake count + 1."""
    tables = {k: np.zeros((alphabet.size**k, alphabet.size)) for k in orders}
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row reads "" for its missing fields
        missing = [c for c in ("word", "symbol", "count") if c not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError(f"fake-counts file {path} has no column {', '.join(missing)}")
        for row in reader:
            word, symbol = row["word"].strip(), row["symbol"].strip()
            if len(word) not in tables:
                raise ConfigError(f"fake-count word {word!r} is not of an order in "
                                  f"{orders[0]}..{orders[-1]}")
            if (word, symbol) in seen:
                raise ConfigError(f"fake-count entry word={word!r} symbol={symbol!r} "
                                  "is listed twice")
            seen.add((word, symbol))
            w = np.ravel_multi_index(list(map(alphabet.index, word)), [alphabet.size] * len(word))
            tables[len(word)][w, alphabet.index(symbol)] = float(row["count"])
    return {k: hyper_from_fake_counts(CountTable(k, alphabet, t)) for k, t in tables.items()}


@dataclass(frozen=True)
class _Sweep:
    """One invocation's config, data and each order's invariants, resolved
    once.  `approxes` and `truth` are what entropy compares against, when the
    data come from a source."""

    cfg: ExperimentConfig
    alphabet: Alphabet
    seq: SymbolSequence | None  # file or sample mode: counts come from its prefixes
    hypers: dict[int, HyperTable]
    joints: dict[int, np.ndarray]  # average mode: p(word, symbol), shape (A**k, A)
    approxes: dict[int, entropy.WordConditional]
    truth: float | None

    def points(self, N: int):
        """(k, counts, hyper) for each order at data size N.  A prefix is
        counted once, at the top order, and each lower order derived from it."""
        if self.seq is None:  # the exact average counts, as processes.average_counts
            for k, hyper in self.hypers.items():
                yield k, CountTable(k, self.alphabet, (N - k) * self.joints[k]), hyper
            return
        prefix = SymbolSequence(self.alphabet, self.seq.data[:N])
        top = count_words(prefix, self.cfg.k_max)
        for k, hyper in self.hypers.items():
            yield k, lower_order_counts(top, prefix, k), hyper


def _resolve(cfg: ExperimentConfig, with_truth: bool = False) -> _Sweep:
    """Read the input, sample max(N) symbols or build the source, then each
    order's invariants; `with_truth` adds what entropy compares against."""
    if cfg.input_path is not None and cfg.source is not None:
        raise ConfigError("--source and --input exclude each other")
    if cfg.input_path is not None and cfg.mode == "sample":
        raise ConfigError("--mode sample samples a --source, not an --input")
    if cfg.seed is not None and cfg.mode != "sample":
        raise ConfigError("--seed is read only with --mode sample")
    if cfg.csv_column is not None and cfg.input_path is None:
        raise ConfigError("--csv-column is read only with --input")
    if min(cfg.n_grid) <= cfg.k_max:
        raise ConfigError(f"data size N={min(cfg.n_grid)} must exceed the largest order "
                          f"k={cfg.k_max}")
    hmm = seq = None
    if cfg.input_path is not None:
        seq = read_sequence(cfg.input_path, column=cfg.csv_column)
        if max(cfg.n_grid) > len(seq):
            raise ConfigError(f"requested N={max(cfg.n_grid)} but input has {len(seq)} symbols")
    else:
        hmm = _resolve_hmm(cfg)
        if cfg.mode == "sample":
            if cfg.seed is None:
                raise ConfigError("sample mode requires --seed")
            seq = processes.sample_sequence(hmm, max(cfg.n_grid), cfg.seed)
    alphabet = hmm.alphabet if seq is None else seq.alphabet
    check_table_size(alphabet, cfg.k_max)
    orders = range(cfg.k_min, cfg.k_max + 1)
    hypers = ({k: uniform_hyper(k, alphabet, cfg.alpha) for k in orders}
              if cfg.fake_counts_path is None
              else _read_fake_counts(cfg.fake_counts_path, orders, alphabet))
    joints = {} if seq is not None else {
        k: processes.word_distribution(hmm, k + 1).reshape(alphabet.size**k, alphabet.size)
        for k in orders}
    approxes, truth = {}, None
    if with_truth and hmm is not None:
        approxes = {k: processes.markov_approximation(hmm, k) for k in orders}
        if hmm.is_unifilar():
            truth = processes.true_entropy_rate(hmm)
        elif cfg.source == "sns":  # the builtin: builtins are looked up before files
            truth = processes.SNS_ENTROPY_RATE
    return _Sweep(cfg, alphabet, seq, hypers, joints, approxes, truth)


#: The sweep a pool worker's points read, set once by the pool initializer.
_worker_sweep: _Sweep | None = None


def _init_worker(sweep: _Sweep) -> None:
    global _worker_sweep
    _worker_sweep = sweep


def _in_worker(point, N):
    return list(point(_worker_sweep, N))


def _grid_map(point, sweep: _Sweep):
    """Yield the (file name, row) pairs of point(sweep, N) for each N of the
    grid, in grid order.  Points are module-level generators so that the pool
    can pickle them; a worker returns each N's rows as one list."""
    grid, jobs = sweep.cfg.n_grid, sweep.cfg.jobs
    if jobs > 1 and len(grid) > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(sweep,)) as pool:
            for rows in pool.map(functools.partial(_in_worker, point), grid,
                                 chunksize=max(1, len(grid) // (4 * jobs))):
                yield from rows
    else:
        for N in grid:
            yield from point(sweep, N)


def _write_sweep(sweep: _Sweep, point, columns: dict[str, tuple[str, ...]]) -> None:
    """Write each row of the sweep to its output CSV, and with --format json to
    the CSV's JSON mirror, as the row arrives.  A mirror reads as
    json.dumps(rows, indent=1) would, with infinities as null."""
    out = sweep.cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as stack:
        csvs = {name: stack.enter_context(_staged(out / name, ",".join(columns[name]) + "\n"))
                for name in columns}
        mirrors = {name: stack.enter_context(_staged((out / name).with_suffix(".json"), "["))
                   for name in columns if sweep.cfg.fmt == "json"}
        seps = dict.fromkeys(mirrors, "\n ")
        for name, row in _grid_map(point, sweep):
            csvs[name].write(",".join(map(_fmt, row)) + "\n")
            if name in mirrors:
                record = {f: None if isinstance(v, float) and math.isinf(v) else v
                          for f, v in zip(columns[name], row)}
                mirrors[name].write(seps[name] + json.dumps(record, indent=1).replace("\n", "\n "))
                seps[name] = ",\n "
        for fh in mirrors.values():
            fh.write("\n]\n")


def _infer_point(sweep: _Sweep, N: int):
    for k, counts, hyper in sweep.points(N):
        for row in inference.summary_rows(counts, hyper, sweep.cfg.confidence):
            yield "infer_summary.csv", (N, k, *row)
        x, dens = inference.density_grid(inference.posterior(counts, hyper),
                                         sweep.cfg.density_points)
        xs = x.tolist()
        for word, word_dens in zip(word_strings(k, sweep.alphabet), dens):
            for symbol, entry_dens in zip(sweep.alphabet.symbols, word_dens.tolist()):
                for x, d in zip(xs, entry_dens):
                    yield "infer_density.csv", (N, k, word, symbol, x, d)


def cmd_infer(cfg: ExperimentConfig) -> None:
    _write_sweep(_resolve(cfg), _infer_point, {
        "infer_summary.csv": ("N", "k", "word", "symbol", "count", "alpha", "mean",
                              "variance", "ci_low", "ci_high"),
        "infer_density.csv": ("N", "k", "word", "symbol", "x", "density")})


def _compare_point(sweep: _Sweep, N: int):
    evidences = {k: inference.log_evidence(counts, hyper) for k, counts, hyper in sweep.points(N)}
    uni = comparison.compare_uniform(evidences)
    pen = comparison.compare_penalized(evidences, sweep.alphabet.size)
    for k, log_evidence in evidences.items():
        yield "compare.csv", (N, k, log_evidence, uni.probability(k), pen.probability(k))


def cmd_compare(cfg: ExperimentConfig) -> None:
    _write_sweep(_resolve(cfg), _compare_point, {
        "compare.csv": ("N", "k", "log_evidence_nats", "prob_uniform", "prob_penalized")})


def _entropy_point(sweep: _Sweep, N: int):
    for k, counts, hyper in sweep.points(N):
        q = entropy.q_from(counts, hyper)
        kl_bits = None
        if k in sweep.approxes:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", entropy.SupportWarning)
                kl_bits = entropy.kl_of(q, sweep.approxes[k].cond_probs)
        yield "entropy.csv", (N, k, q.beta, entropy.expected_energy(q),
                              entropy.energy_variance(q), entropy.hmu_of(q), kl_bits,
                              entropy.asymptotic_energy(q), sweep.truth)


def cmd_entropy(cfg: ExperimentConfig) -> None:
    _write_sweep(_resolve(cfg, with_truth=True), _entropy_point, {
        "entropy.csv": ("N", "k", "beta_k", "energy_mean_bits", "energy_var", "hmu_Q_bits",
                        "kl_bits_if_truth_known", "asymptotic_bits", "truth_bits")})


def cmd_simulate(cfg: ExperimentConfig) -> None:
    if cfg.seed is None:
        raise ConfigError("simulate requires --seed")
    seq = processes.sample_sequence(_resolve_hmm(cfg), max(cfg.n_grid), cfg.seed)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_sequence(cfg.out_dir / "sequence.txt", seq)


_COMMANDS = {"infer": cmd_infer, "compare": cmd_compare, "entropy": cmd_entropy,
             "simulate": cmd_simulate}


def _log_grid(start: int, stop: int, points: int) -> tuple[int, ...]:
    grid = np.logspace(math.log10(start), math.log10(stop), points)
    return tuple(int(v) for v in np.unique(np.round(grid)))


#: Parameter grids for the figure-reproduction bundles.  The order-comparison
#: grid for the first source is stated exactly (100..1000 step 5); the other
#: grids are logarithmic spans of the figures' visible axis ranges.
FIGURE_RECIPES = {
    2: ("infer", "golden_mean", {"n_grid": (100, 400, 1600, 6400), "k": (1, 1)}),
    3: ("compare", "golden_mean", {"n_grid": tuple(range(100, 1001, 5)), "k": (1, 4)}),
    4: ("entropy", "golden_mean", {"n_grid": _log_grid(100, 10_000, 49), "k": (1, 4)}),
    5: ("infer", "even", {"n_grid": (100, 400, 1600, 6400), "k": (1, 1)}),
    6: ("compare", "even", {"n_grid": _log_grid(100, 10_000, 61), "k": (1, 4)}),
    7: ("entropy", "even", {"n_grid": _log_grid(100, 200_000, 49), "k": (1, 6)}),
    8: ("infer", "sns", {"n_grid": (100, 400, 1600, 6400), "k": (1, 1)}),
    9: ("compare", "sns", {"n_grid": _log_grid(100, 100_000, 61), "k": (1, 4)}),
    10: ("entropy", "sns", {"n_grid": _log_grid(100, 100_000, 49), "k": (1, 6)}),
}


def cmd_reproduce(cfg: ExperimentConfig, figure: int) -> None:
    if figure not in FIGURE_RECIPES:
        raise ConfigError(f"unknown figure id {figure}; known: {sorted(FIGURE_RECIPES)}")
    command, source, recipe = FIGURE_RECIPES[figure]
    _COMMANDS[command](replace(cfg, source=source, k_min=recipe["k"][0], k_max=recipe["k"][1],
                               n_grid=recipe["n_grid"], out_dir=cfg.out_dir / f"fig{figure}"))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bayesmc")
    # Every option's default, read also by the subcommands that do not accept it.
    parser.set_defaults(source=None, input=None, csv_column=None, mode="average", k_min=1,
                        k_max=1, n_start=1000, n_stop=None, n_step=5, alpha=None,
                        fake_counts=None, confidence=0.95, seed=None,
                        out=os.environ.get(OUT_DIR_ENV, "."), format="csv",
                        jobs=os.cpu_count() or 1, density_points=512)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("infer", "compare", "entropy", "simulate", "reproduce"):
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        if name == "reproduce":
            p.add_argument("--figure", type=int, required=True)
        else:
            p.add_argument("--source", help="builtin source name or path to an hmm JSON file")
            for flag in ("--n-start", "--seed"):
                p.add_argument(flag, type=int)
        if name in ("infer", "compare", "entropy"):
            p.add_argument("--n-stop", type=int)
            p.add_argument("--n-step", type=int)
            p.add_argument("--input", help="sequence file (text, or CSV with --csv-column)")
            p.add_argument("--csv-column")
            p.add_argument("--mode", choices=("average", "sample"))
            p.add_argument("--k-min", type=int)
            p.add_argument("--k-max", type=int)
            p.add_argument("--fake-counts")
        if name != "simulate":
            p.add_argument("--alpha", type=float)
            p.add_argument("--format", choices=("csv", "json"))
            p.add_argument("--jobs", type=int)
        if name in ("infer", "reproduce"):
            p.add_argument("--confidence", type=float)
            p.add_argument("--density-points", type=int)
        p.add_argument("--out")
    return parser


def _config_from(args) -> ExperimentConfig:
    if args.k_min < 1 or args.k_max < args.k_min:
        raise ConfigError(f"invalid order range [{args.k_min}, {args.k_max}]")
    stop = args.n_stop if args.n_stop is not None else args.n_start
    if args.n_start < 1 or args.n_step < 1 or stop < args.n_start:
        raise ConfigError("invalid N grid")
    if not 0.0 < args.confidence < 1.0:
        raise ConfigError("confidence must lie in (0, 1)")
    if args.alpha is not None and args.fake_counts is not None:
        raise ConfigError("--alpha and --fake-counts exclude each other")
    if args.alpha is not None and args.alpha <= 0:
        raise ConfigError("alpha must be positive")
    return ExperimentConfig(
        source=args.source, input_path=args.input, csv_column=args.csv_column, mode=args.mode,
        k_min=args.k_min, k_max=args.k_max, fake_counts_path=args.fake_counts, seed=args.seed,
        n_grid=tuple(range(args.n_start, stop + 1, args.n_step)), confidence=args.confidence,
        alpha=1.0 if args.alpha is None else args.alpha, out_dir=Path(args.out), fmt=args.format,
        jobs=max(1, args.jobs), density_points=args.density_points)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from(args)
        if args.command == "reproduce":
            cmd_reproduce(cfg, args.figure)
        else:
            _COMMANDS[args.command](cfg)
    except (OSError, KeyError, ValueError, ArithmeticError) as exc:
        numeric = isinstance(exc, (NumericDomainError, ArithmeticError))
        code = EXIT_NUMERIC if numeric else EXIT_BAD_CONFIG
        print(f"error code={code} message={exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
