"""Command-line front end: parameter inference, order comparison, entropy
sweeps, simulation, and canned figure-reproduction bundles.

`infer`, `compare` and `entropy` are one sweep over the N grid and the orders,
told apart by their _SWEEPS entry; `reproduce` is its figure's sweep.  Sweeps
emit CSV with 12-significant-digit formatting so outputs are diff-able goldens.
Exit codes: 0 success, 2 invalid configuration, 3 numeric-domain failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import comparison, entropy, inference, processes
from .core import (Alphabet, CountTable, HyperTable, SymbolSequence, check_table_size,
                   hyper_from_fake_counts, prefix_counts, read_sequence, uniform_hyper,
                   write_sequence)
from .special import NumericDomainError

EXIT_BAD_CONFIG = 2
EXIT_NUMERIC = 3

OUT_DIR_ENV = "BAYESMC_OUT"

#: The largest --alpha: the range whose evidence and entropy kernels are checked against
#: mpmath; above it the energy moments overflow to nan and the word totals A * alpha to inf.
MAX_ALPHA = 1e17

#: A sweep maps its N grid in chunks of G >= 1 points whose top-order count tables hold at
#: most this many entries together; all orders of a chunk share one kernel call.
CHUNK_ENTRIES = 2**16


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one error record, as for every other invalid input
        raise ConfigError(message)


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


def _resolve_hmm(cfg: argparse.Namespace) -> processes.LabeledHMM:
    if cfg.source in processes.BUILTIN_SOURCES:
        return processes.BUILTIN_SOURCES[cfg.source]()
    if os.path.exists(cfg.source):
        return processes.load_hmm(cfg.source)
    raise ConfigError(f"unknown source {cfg.source!r}")


def _read_fake_counts(path: str, orders: range, alphabet: Alphabet) -> dict[int, HyperTable]:
    """Each order's prior from a CSV with columns word,symbol,count, a word's length its order:
    unlisted entries are 0, an entry may be listed once, each hyperparameter is count + 1,
    at most MAX_ALPHA."""
    import csv  # here, so that importing the CLI does not load it
    tables = {k: np.zeros((alphabet.size**k, alphabet.size)) for k in orders}
    seen = set()
    with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading byte-order mark
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
            try:
                count = float(row["count"])
            except ValueError:
                count = row["count"]  # reported as its text
            if not (isinstance(count, float) and 0.0 <= count < math.inf):
                raise ConfigError(f"fake-count entry word={word!r} symbol={symbol!r} has "
                                  f"count {count!r}; counts must be finite and >= 0")
            if count + 1.0 > MAX_ALPHA:  # its hyperparameter, as --alpha is bounded
                raise ConfigError(f"fake-count entry word={word!r} symbol={symbol!r} has count "
                                  f"{count:g}; count + 1 must be at most {MAX_ALPHA:g}")
            w = np.ravel_multi_index(list(map(alphabet.index, word)), [alphabet.size] * len(word))
            tables[len(word)][w, alphabet.index(symbol)] = count
    return {k: hyper_from_fake_counts(CountTable(k, alphabet, t)) for k, t in tables.items()}


@dataclass(frozen=True)
class _Sweep:
    """One invocation's config, data and each order's invariants, resolved once.  `approxes`
    and `truth` are what entropy compares against, when the data come from a source."""

    cfg: argparse.Namespace  # the checked command line, as _config_from completes it
    alphabet: Alphabet
    seq: SymbolSequence | None  # file or sample mode: counts come from its prefixes
    hmm: processes.LabeledHMM | None  # the source, whose average counts average mode takes
    hypers: dict[int, HyperTable]
    approxes: dict[int, entropy.WordConditional]
    truth: float | None

    def points(self):
        """Yield each chunk of the N grid, G contiguous points with G as large as
        CHUNK_ENTRIES allows, with (k, counts, hyper) for each order, the counts a
        (G, A**k, A) stack over the chunk's G data sizes.  In average mode each order's
        stack is processes.average_counts of the chunk, whose joint p(word, symbol) the
        source computes once per order.  In sample and file mode they are one
        core.prefix_counts call on the chunk and the previous chunk's top-order stack."""
        A, K, grid = self.alphabet.size, self.cfg.k_max, self.cfg.n_grid
        size, counted = max(1, CHUNK_ENTRIES // A ** (K + 1)), None
        for chunk in (grid[i:i + size] for i in range(0, len(grid), size)):
            if self.seq is None:
                stacks = {k: processes.average_counts(self.hmm, chunk, k) for k in self.hypers}
            else:
                stacks = prefix_counts(self.seq, chunk, self.cfg.k_min, K, counted)
                counted = stacks[K]
            yield chunk, [(k, stacks[k], hyper) for k, hyper in self.hypers.items()]


def _resolve(cfg: argparse.Namespace) -> _Sweep:
    """Read the input, sample max(N) symbols or build the source, then each
    order's invariants, and for entropy what it compares against."""
    hmm = seq = None
    if cfg.input is not None:
        seq = read_sequence(cfg.input, column=cfg.csv_column)
        if max(cfg.n_grid) > len(seq):
            raise ConfigError(f"requested N={max(cfg.n_grid)} but input has {len(seq)} symbols")
    else:
        hmm = _resolve_hmm(cfg)
        if cfg.mode == "sample":
            seq = processes.sample_sequence(hmm, max(cfg.n_grid), cfg.seed)
    alphabet = hmm.alphabet if seq is None else seq.alphabet
    check_table_size(alphabet, cfg.k_max)
    orders = range(cfg.k_min, cfg.k_max + 1)
    hypers = (_read_fake_counts(cfg.fake_counts, orders, alphabet) if cfg.fake_counts is not None
              else {k: uniform_hyper(k, alphabet, cfg.alpha) for k in orders})
    compared = cfg.command == "entropy" and hmm is not None
    approxes = {k: processes.markov_approximation(hmm, k) for k in orders if compared}
    truth = None
    if compared and hmm.is_unifilar():
        truth = processes.true_entropy_rate(hmm)
    elif compared and cfg.source == "sns":  # the builtin: builtins are looked up before files
        truth = processes.SNS_ENTROPY_RATE
    return _Sweep(cfg, alphabet, seq, hmm, hypers, approxes, truth)


#: A cell type's CSV formatter: a float to 12 significant digits, None as an empty cell.
_FORMATS = {float: "{:.12g}".format, int: str, str: str, type(None): lambda v: ""}


def _text(block: list):
    """Yield a block's CSV text: its rows, one per line, each its cells joined by commas, a
    row taking each list column's item and each single value.  A list block (infer_summary,
    compare, entropy) yields one text.  A density block, one per (N, k) table, ends with
    infer_table's x grid, distinct density rows and per-entry index, and yields one text
    per entry: it makes one % template of the (x, density) lines, each x cell followed by
    %.12g, and each distinct row's lines by one % call on it; an entry's cells begin each
    line of its row's lines by one replace of the newline."""
    if not isinstance(block[-1], np.ndarray):
        yield "\n".join(map(",".join, zip(*_cells(block))))
        return
    *columns, x, rows, index = block
    template = "\n".join(c + ",%.12g" for c in map(_FORMATS[float], x.tolist()))
    lines = [template % tuple(row) for row in rows.tolist()]
    for i, cells in zip(index.tolist(), zip(*_cells(columns), itertools.repeat(""))):
        head = ",".join(cells)  # the empty last cell ends it with the comma before x
        yield head + lines[i].replace("\n", "\n" + head)


def _cells(columns: list):
    """Each column's cells as the CSV prints them: a list's items, a single value repeated."""
    return (map(_FORMATS[type(c[0])], c) if isinstance(c, list)
            else itertools.repeat(_FORMATS[type(c)](c)) for c in columns)


def _write_sweep(sweep: _Sweep, point, columns: dict[str, tuple[str, ...]]) -> None:
    """Write each block that point(sweep, chunk, orders) yields for each chunk of the
    sweep, in grid order (N-major, then k), to its output CSV, each text as _text yields
    it; no text outlives its block.  A block holds its file's columns in header order: one
    block per (N, k) of infer_summary and of infer_density, and per N, a row per order, of
    compare and entropy."""
    out = sweep.cfg.out
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as stack:
        files = {name: stack.enter_context(_staged(out / name, ",".join(cols) + "\n"))
                 for name, cols in columns.items()}
        for chunk, orders in sweep.points():
            for name, block in point(sweep, chunk, orders):
                files[name].writelines(text + "\n" for text in _text(block))


def _infer_point(sweep: _Sweep, chunk: tuple[int, ...], orders: list):
    for g, N in enumerate(chunk):
        for k, stack, hyper in orders:
            columns, x, dens, index = inference.infer_table(
                CountTable(k, sweep.alphabet, stack.table[g]), hyper, sweep.cfg.confidence,
                sweep.cfg.density_points)
            yield "infer_summary.csv", [N, k, *columns]
            yield "infer_density.csv", [N, k, *columns[:2], x, dens, index]


def _compare_point(sweep: _Sweep, chunk: tuple[int, ...], orders: list):
    values = inference.log_evidences((counts, hyper) for _, counts, hyper in orders)
    evidences = {k: v for (k, _, _), v in zip(orders, values)}
    uni = comparison.compare_uniform(evidences)
    pen = comparison.compare_penalized(evidences, sweep.alphabet.size)
    for N, *columns in zip(chunk, uni.log_evidence.tolist(), uni.probabilities.tolist(),
                           pen.probabilities.tolist()):
        yield "compare.csv", [N, list(uni.orders), *columns]


def _entropy_point(sweep: _Sweep, chunk: tuple[int, ...], orders: list):
    per_order = []
    moments = entropy.energy_moments_of((counts, hyper) for _, counts, hyper in orders)
    for (k, counts, hyper), m in zip(orders, moments):
        kl_bits = [None] * len(chunk)
        if k in sweep.approxes:
            q = entropy.r_from(inference.posterior(counts, hyper))
            kl_bits = [entropy.kl_of(entropy.WordConditional(k, sweep.alphabet, w, c),
                                     sweep.approxes[k].cond_probs)
                       for w, c in zip(q.word_probs, q.cond_probs)]
        per_order.append((k, m.beta.tolist(), m.mean.tolist(), m.variance.tolist(),
                          m.hmu.tolist(), kl_bits, m.asymptotic.tolist()))
    ks, *stats = zip(*per_order)  # each stat holds, per order, its values over the chunk
    for g, N in enumerate(chunk):
        yield "entropy.csv", [N, list(ks), *([v[g] for v in s] for s in stats), sweep.truth]


#: Each sweep command's point function and its output files' columns.
_SWEEPS = {
    "infer": (_infer_point, {
        "infer_summary.csv": ("N", "k", "word", "symbol", "count", "alpha", "mean",
                              "variance", "ci_low", "ci_high"),
        "infer_density.csv": ("N", "k", "word", "symbol", "x", "density")}),
    "compare": (_compare_point, {
        "compare.csv": ("N", "k", "log_evidence_nats", "prob_uniform", "prob_penalized")}),
    "entropy": (_entropy_point, {
        "entropy.csv": ("N", "k", "beta_k", "energy_mean_bits", "energy_var", "hmu_Q_bits",
                        "kl_bits_if_truth_known", "asymptotic_bits", "truth_bits")}),
}


def _log_grid(start: int, stop: int, points: int) -> tuple[int, ...]:
    grid = np.logspace(math.log10(start), math.log10(stop), points)
    return tuple(sorted({int(v) for v in np.round(grid)}))  # np.unique would import numpy.ma


#: Parameter grids for the figure bundles.  The first source's order-comparison grid is
#: stated exactly (100..1000 step 5); the others span the figures' visible axes, log-spaced.
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


@functools.lru_cache(maxsize=1)  # one per process, built by the first main()
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bayesmc")
    # Every option's default, read also by the subcommands that do not accept it.
    parser.set_defaults(source=None, input=None, csv_column=None, mode="average", k_min=1,
                        k_max=1, n_start=1000, n_stop=None, n_step=5, alpha=None,
                        fake_counts=None, confidence=0.95, seed=None, out=None, jobs=1,
                        density_points=512)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("infer", "compare", "entropy", "simulate", "reproduce"):
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        if name == "reproduce":
            p.add_argument("--figure", type=int, required=True, choices=FIGURE_RECIPES)
        else:
            p.add_argument("--source", help="builtin source name or path to an hmm JSON file")
            for flag in ("--n-start", "--seed"):
                p.add_argument(flag, type=int)
        if name in ("infer", "compare", "entropy"):
            for flag in ("--n-stop", "--n-step", "--k-min", "--k-max"):
                p.add_argument(flag, type=int)
            p.add_argument("--input", help="sequence file (text, or CSV with --csv-column)")
            p.add_argument("--csv-column")
            p.add_argument("--mode", choices=("average", "sample"))
            p.add_argument("--fake-counts")
        if name != "simulate":
            p.add_argument("--alpha", type=float)
            p.add_argument("--jobs", type=int, help="accepted and ignored: every sweep is serial")
        if name in ("infer", "reproduce"):
            p.add_argument("--confidence", type=float)
            p.add_argument("--density-points", type=int)
        p.add_argument("--out")
    return parser


def _config_from(args: argparse.Namespace) -> argparse.Namespace:
    """Check every rule that reads only the command line, then complete it as
    the run's config: the N grid, the default --alpha and --out as a Path,
    by default $BAYESMC_OUT or the working directory.  A reproduce run becomes
    its figure's sweep: the command, source, orders and N grid of its recipe,
    written under fig{N} of --out."""
    if args.k_min < 1 or args.k_max < args.k_min:
        raise ConfigError(f"invalid order range [{args.k_min}, {args.k_max}]")
    stop = args.n_stop if args.n_stop is not None else args.n_start
    if args.n_start < 1 or args.n_step < 1 or stop < args.n_start:
        raise ConfigError("invalid N grid")
    if not 0.0 < args.confidence < 1.0:
        raise ConfigError("confidence must lie in (0, 1)")
    if args.density_points < 2:
        raise ConfigError(f"density points must be at least 2, not {args.density_points}")
    if args.jobs < 1:
        raise ConfigError(f"jobs must be at least 1, not {args.jobs}")
    if args.alpha is not None and args.fake_counts is not None:
        raise ConfigError("--alpha and --fake-counts exclude each other")
    if args.alpha is not None and not 0.0 < args.alpha < math.inf:
        raise ConfigError(f"alpha must be finite and positive, not {args.alpha}")
    if args.alpha is not None and args.alpha > MAX_ALPHA:
        raise ConfigError(f"--alpha must be at most {MAX_ALPHA:g}, not {args.alpha:g}")
    if args.input is not None and args.source is not None:
        raise ConfigError("--source and --input exclude each other")
    if args.input is not None and args.mode == "sample":
        raise ConfigError("--mode sample samples a --source, not an --input")
    sampling = ("simulate" if args.command == "simulate"
                else "sample mode" if args.mode == "sample" else None)
    if (args.seed is None) != (sampling is None):
        raise ConfigError(f"{sampling} requires --seed" if sampling
                          else "--seed is read only with --mode sample")
    if args.csv_column is not None and args.input is None:
        raise ConfigError("--csv-column is read only with --input")
    if args.command in ("infer", "compare", "entropy") and args.n_start <= args.k_max:
        raise ConfigError(f"data size N={args.n_start} must exceed the largest order "
                          f"k={args.k_max}")
    if args.command != "reproduce" and args.source is None and args.input is None:
        raise ConfigError("a --source is required for this mode")
    args.n_grid = tuple(range(args.n_start, stop + 1, args.n_step))
    args.alpha = 1.0 if args.alpha is None else args.alpha
    args.out = Path(args.out if args.out is not None else os.environ.get(OUT_DIR_ENV, "."))
    if args.command == "reproduce":
        args.command, args.source, recipe = FIGURE_RECIPES[args.figure]
        (args.k_min, args.k_max), args.n_grid = recipe["k"], recipe["n_grid"]
        args.out = args.out / f"fig{args.figure}"
    return args


def main(argv=None) -> int:
    try:
        cfg = _config_from(_build_parser().parse_args(argv))
        if cfg.command == "simulate":  # sampled before --out is made
            seq = processes.sample_sequence(_resolve_hmm(cfg), cfg.n_start, cfg.seed)
            cfg.out.mkdir(parents=True, exist_ok=True)
            write_sequence(cfg.out / "sequence.txt", seq)
        else:
            _write_sweep(_resolve(cfg), *_SWEEPS[cfg.command])
    except (OSError, KeyError, ValueError, ArithmeticError) as exc:
        numeric = isinstance(exc, (NumericDomainError, ArithmeticError))
        code = EXIT_NUMERIC if numeric else EXIT_BAD_CONFIG
        print(f"error code={code} message={exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
