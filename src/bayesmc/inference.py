"""First-level Bayesian inference for a fixed order k.

The Dirichlet prior is conjugate to the Markov-chain likelihood, so the
posterior is a product of per-word Dirichlets whose parameters are counts
plus hyperparameters.  All probability computations are carried out in
natural-log space end to end; conversion to base 2 happens only at
presentation time.  The evidence and the predictive are log-Gamma ratios:
log_evidences takes a list of (counts, hyper) pairs, of any orders and
stack sizes, and evaluates every pair's observed entries and words in one
log_gamma_diff call; log_evidence and log_predictive are the one-pair case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import CountTable, HyperTable, require_same_shape, word_strings
from .special import (BetaParams, _per_table, _row_sum, _table_sum, inv_reg_inc_beta,
                      log_gamma_diff, reg_inc_beta)


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


def region_mass(m: BetaParams, region: ConfidenceRegion) -> float:
    return reg_inc_beta(m, region.upper) - reg_inc_beta(m, region.lower)


def _log_gamma_ratio(pairs) -> list:
    """For each (base, inc) pair of arrays, the log of prod_w Gamma(base(w)) / Gamma(base(w)
    + inc(w)) * prod_(w,s) Gamma(base(w, s) + inc(w, s)) / Gamma(base(w, s)), with (w) a row
    total: the Dirichlet average of a likelihood with counts inc under parameters base.  A
    float for one (W, A) table inc, one value per table for a (G, W, A) stack.

    One log_gamma_diff call takes every pair's entries and word totals where inc is
    nonzero, gathered and concatenated; an entry or word with no counts adds exactly 0.
    The values are scattered back into zero-filled tables, each the log_gamma_diff(base,
    inc) of its pair element for element, and summed as that table would be, so a pair's
    value does not depend on the others'."""
    segments = []  # (where inc is nonzero, base there, inc there): entries, then words
    for base, inc in pairs:
        for x, n in ((base, inc), (_row_sum(base), _row_sum(inc))):
            x, n = np.broadcast_arrays(x, n)
            seen = n != 0
            segments.append((seen, x[seen], n[seen]))
    _, xs, ns = zip(*segments)
    values = np.split(log_gamma_diff(np.concatenate(xs), np.concatenate(ns)),
                      np.cumsum([n.size for n in ns[:-1]]))
    terms = []
    for (seen, _, _), v in zip(segments, values):
        terms.append(np.zeros(seen.shape))
        terms[-1][seen] = v
    return [_per_table(_table_sum(entries) - words.sum(axis=-1))
            for entries, words in zip(terms[::2], terms[1::2])]


def log_evidences(pairs) -> list:
    """log_evidence of each (counts, hyper) pair, from one log_gamma_diff call over all
    of them; each value equals the pair's lone call bit for bit.  A sweep passes the count
    stacks of all its orders at once."""
    pairs = list(pairs)
    for counts, hyper in pairs:
        require_same_shape(counts, hyper)
    return _log_gamma_ratio([(hyper.table, counts.table) for counts, hyper in pairs])


def log_evidence(counts: CountTable, hyper: HyperTable):
    """Natural log of the marginal likelihood (average of the likelihood over
    the prior), in the closed Gamma-ratio form.  A stack of count tables
    gives one log evidence per table, in one pass over the stack.

    The product runs over all A**k words; words with zero counts contribute
    exactly zero, so the all-zero table gives log evidence 0.
    """
    return log_evidences([(counts, hyper)])[0]


def log_predictive(counts: CountTable, new_counts: CountTable, hyper: HyperTable) -> float:
    """Log probability of new data with counts m, averaged over the posterior:
    the evidence's Gamma ratio with the posterior parameters n + alpha as its
    base.  Algebraically log_evidence(n + m) - log_evidence(n)."""
    require_same_shape(counts, new_counts, hyper)
    return _log_gamma_ratio([(posterior(counts, hyper).table, new_counts.table)])[0]


def sample_posterior(post: HyperTable, seed) -> np.ndarray:
    """One Dirichlet draw per word (of every table of a stack), via
    per-component Gamma draws normalized row-wise.  Deterministic given the
    seed (or caller-owned Generator)."""
    g = np.random.default_rng(seed).gamma(shape=post.table)
    return g / _row_sum(g)[..., None]


def summary_rows(counts: CountTable, hyper: HyperTable, level: float = 0.95) -> list[tuple]:
    """Per-parameter posterior summaries of one table for CSV export, one tuple per
    (word, symbol) entry in code order: word, symbol, count, alpha, mean,
    variance, ci_low, ci_high.  The region is searched once per distinct
    marginal (a, b) of the table: entries with an equal marginal share it.  The
    distinct marginals' log_norm comes from one array call, each element equal
    to its lone marginal's bit for bit."""
    post = posterior(counts, hyper)
    count, alpha = counts.table.tolist(), hyper.table.tolist()
    mean, var = posterior_mean(post).tolist(), posterior_variance(post).tolist()
    a = post.table.tolist()
    b = (post.word_totals[:, None] - post.table).tolist()  # as marginal() subtracts
    regions = dict.fromkeys(zip(itertools.chain(*a), itertools.chain(*b)))
    norms = BetaParams(*np.array(list(regions)).T).log_norm.tolist()
    for (m_a, m_b), norm in zip(regions, norms):
        m = BetaParams(m_a, m_b)
        vars(m)["log_norm"] = norm  # where the cached_property keeps m.log_norm
        regions[m_a, m_b] = confidence_region(m, level)
    rows = []
    for w, word in enumerate(word_strings(post.order, post.alphabet)):
        for s, symbol in enumerate(post.alphabet.symbols):
            region = regions[a[w][s], b[w][s]]
            rows.append((word, symbol, count[w][s], alpha[w][s], mean[w][s], var[w][s],
                         region.lower, region.upper))
    return rows


def density_grid(post: HyperTable, points: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Every entry's exact Beta marginal density on a uniform open grid x in
    (0, 1): x, and densities of shape (A**k, A, points), or (G, A**k, A,
    points) for a stack."""
    if points < 2:
        raise ValueError("need at least 2 grid points")
    x = (np.arange(points) + 0.5) / points
    a = post.table[..., None]
    b = (post.word_totals[..., None] - post.table)[..., None]
    return x, BetaParams(a, b).pdf(x)
