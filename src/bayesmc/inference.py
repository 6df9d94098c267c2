"""First-level Bayesian inference for a fixed order k.

The Dirichlet prior is conjugate to the Markov-chain likelihood, so the
posterior is a product of per-word Dirichlets whose parameters are counts
plus hyperparameters.  All probability computations are carried out in
natural-log space end to end; conversion to base 2 happens only at
presentation time.  The evidence and the predictive are log-Gamma ratios, one
per word, and a word without counts adds exactly 0: log_evidences takes a list
of (counts, hyper) pairs, of any orders and stack sizes, and evaluates every
pair's observed words, gathered by _observed_rows as the energy's are, in one
log_gamma_diff call; log_evidence is the one-pair case, and log_predictive the
evidence of new counts under the posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CountTable, HyperTable, _check_integer, require_same_shape, word_strings
from .special import BetaParams, _per_table, _row_sum, inv_reg_inc_beta, log_gamma_diff


@dataclass(frozen=True)
class ConfidenceRegion:
    level: float
    lower: float
    upper: float


def posterior(counts: CountTable, hyper: HyperTable) -> HyperTable:
    """Posterior Dirichlet parameters: counts + hyperparameters, elementwise;
    a stack of counts gives a stack of posteriors."""
    require_same_shape(counts, hyper)
    table = counts.table + hyper.table
    table.flags.writeable = False  # fresh, so _frozen need not copy it
    return HyperTable(counts.order, counts.alphabet, table)


def posterior_mean(post: HyperTable) -> np.ndarray:
    """Mean of every p(s | word) under the Dirichlet table (a posterior, or a
    prior alone); rows sum to 1."""
    return post.table / post.word_totals[..., None]


def posterior_variance(post: HyperTable) -> np.ndarray:
    """Variance of every p(s | word) under the Dirichlet table; equals the
    Beta-marginal variance."""
    totals = post.word_totals[..., None]
    return post.table * (totals - post.table) / (totals**2 * (totals + 1.0))


def marginal(post: HyperTable, word: int, symbol: int) -> BetaParams:
    """Beta marginal of one parameter: a = that entry, b = rest of its row."""
    if post.table.ndim != 2:
        raise ValueError(f"marginal takes one table, not a stack of shape {post.table.shape}")
    a = float(post.table[word, symbol])
    b = float(post.word_totals[word] - a)
    return BetaParams(a, b)


def confidence_region(m: BetaParams, level: float) -> ConfidenceRegion:
    """Equal-tail central region: each tail holds (1 - level)/2 of the mass."""
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    lo = inv_reg_inc_beta(m, (1.0 - level) / 2.0)
    hi = inv_reg_inc_beta(m, (1.0 + level) / 2.0)
    return ConfidenceRegion(level, lo, hi)


def _observed_rows(counts: CountTable, hyper: HyperTable):
    """The words with n(w) > 0 of a pair, each side a lone table or a stack, table by table:
    (flat, shape, alpha, n), their flat indices into the pair's word shape (W,) or (G, W),
    and each side's (m, A) rows there, a lone table's rows serving every table."""
    require_same_shape(counts, hyper)
    shape = np.broadcast_shapes(counts.word_totals.shape, hyper.word_totals.shape)
    flat = np.flatnonzero(np.broadcast_to(counts.word_totals > 0, shape))
    alpha, n = (np.take(t.table.reshape(-1, t.alphabet.size), flat % t.word_totals.size, axis=0)
                for t in (hyper, counts))
    return flat, shape, alpha, n


def _table_sums(per_word, flat, shape):
    """Sums of per_word's last axis, one value per observed word at `flat` as _observed_rows
    gives it, over each table's words: one value for a lone table, one per table of a
    stack.  Each table's run is reduced on its own, so a stack's sums equal its tables'
    bit for bit."""
    *tables, words = shape
    starts = np.searchsorted(flat, words * np.arange(math.prod(tables) + 1))
    runs = starts[1:] > starts[:-1]
    out = np.zeros(per_word.shape[:-1] + runs.shape)
    if runs.any():
        out[..., runs] = np.add.reduceat(per_word, starts[:-1][runs], axis=-1)
    return out.reshape(per_word.shape[:-1] + tuple(tables))


def log_evidences(pairs) -> list:
    """log_evidence of each (counts, hyper) pair, from one log_gamma_diff call over the
    observed words' entries and totals of all of them; a sweep passes the count stacks of
    all its orders at once.  Each word's log ratio, its entries' terms less its total's,
    is summed per table by _table_sums: each value equals the pair's lone call bit for
    bit."""
    gathered = [_observed_rows(counts, hyper) for counts, hyper in pairs]
    if not gathered:
        return []
    # per pair, the prior's and the counts' entries then word totals
    xs, ns = ([y for g in gathered for y in (g[i].ravel(), _row_sum(g[i]))] for i in (2, 3))
    terms = np.split(log_gamma_diff(np.concatenate(xs), np.concatenate(ns)),
                     np.cumsum([x.size for x in xs[:-1]]))
    return [_per_table(_table_sums(_row_sum(entries.reshape(alpha.shape)) - words, flat, shape))
            for (flat, shape, alpha, _), entries, words in zip(gathered, terms[::2], terms[1::2])]


def log_evidence(counts: CountTable, hyper: HyperTable):
    """Natural log of the marginal likelihood (average of the likelihood over
    the prior), in the closed Gamma-ratio form.  A stack of count tables
    gives one log evidence per table, in one pass over the stack.

    The product runs over the observed words: a word with zero counts contributes
    exactly zero, so the all-zero table gives log evidence 0.
    """
    return log_evidences([(counts, hyper)])[0]


def log_predictive(counts: CountTable, new_counts: CountTable, hyper: HyperTable) -> float:
    """Log probability of new data with counts m, averaged over the posterior:
    the evidence of m under the posterior n + alpha as its prior.  Algebraically
    log_evidence(n + m) - log_evidence(n)."""
    return log_evidence(new_counts, posterior(counts, hyper))


def sample_posterior(post: HyperTable, seed) -> np.ndarray:
    """One Dirichlet draw per word (of every table of a stack), via
    per-component Gamma draws normalized row-wise.  Deterministic given the
    seed (or caller-owned Generator)."""
    g = np.random.default_rng(seed).gamma(shape=post.table)
    return g / _row_sum(g)[..., None]


def infer_table(counts: CountTable, hyper: HyperTable, level: float = 0.95,
                points: int = 512) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """Per-parameter posterior summaries and marginal densities of one table for export.

    Returns the summary columns word, symbol, count, alpha, mean, variance, ci_low and
    ci_high, each a list with one value per (word, symbol) entry in code order; the uniform
    open grid x of `points` values in (0, 1); the Beta densities on it of the table's
    distinct marginals (a, b), shape (D, points); and each entry's index into those rows.
    Each distinct marginal is evaluated once: its log_norm, from one array call, serves its
    region and its density, and its region is searched once.  Every value, density rows
    included, equals the lone marginal's bit for bit."""
    _check_integer(points, "points", 2)
    x, post = (np.arange(points) + 0.5) / points, posterior(counts, hyper)
    if post.table.ndim != 2:
        raise ValueError(f"infer_table takes one table, not a stack of shape {post.table.shape}")
    b = post.word_totals[:, None] - post.table  # as marginal() subtracts
    (a, b), index = np.unique([post.table.ravel(), b.ravel()], axis=1, return_inverse=True)
    beta = BetaParams(a[:, None], b[:, None])
    regions = []
    for m_a, m_b, norm in zip(a.tolist(), b.tolist(), beta.log_norm.ravel().tolist()):
        m = BetaParams(m_a, m_b)
        vars(m)["log_norm"] = norm  # where the cached_property keeps m.log_norm
        regions.append(confidence_region(m, level))
    lows, highs = np.array([(r.lower, r.upper) for r in regions])[index].T.tolist()
    words = word_strings(post.order, post.alphabet)
    columns = [[w for w in words for _ in post.alphabet.symbols],
               list(post.alphabet.symbols) * len(words),
               *(t.ravel().tolist() for t in (counts.table, hyper.table, posterior_mean(post),
                                              posterior_variance(post))),
               lows, highs]
    return columns, x, beta.pdf(x), index

