"""First-level Bayesian inference for a fixed order k.

The Dirichlet prior is conjugate to the Markov-chain likelihood, so the
posterior is a product of per-word Dirichlets whose parameters are counts
plus hyperparameters.  All probability computations are carried out in
natural-log space end to end; conversion to base 2 happens only at
presentation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CountTable, HyperTable, require_same_shape, word_strings
from .special import (BetaParams, dirichlet_log_norm, inv_reg_inc_beta, log_gamma,
                      reg_inc_beta)


@dataclass(frozen=True)
class DirichletPosterior:
    """Per-word Dirichlet posterior with parameters counts + hyperparameters."""

    order: int
    alphabet: object
    params: np.ndarray = field(repr=False)  # (A**k, A), all > 0

    def __post_init__(self):
        arr = np.ascontiguousarray(self.params, dtype=float)
        if np.any(arr <= 0):
            raise ValueError("posterior parameters must be strictly positive")
        arr.flags.writeable = False
        object.__setattr__(self, "params", arr)

    @property
    def word_totals(self) -> np.ndarray:
        return self.params.sum(axis=1)


@dataclass(frozen=True)
class ConfidenceRegion:
    level: float
    lower: float
    upper: float


def posterior(counts: CountTable, hyper: HyperTable) -> DirichletPosterior:
    """Posterior Dirichlet parameters: counts + hyperparameters, elementwise."""
    require_same_shape(counts, hyper)
    return DirichletPosterior(counts.order, counts.alphabet, counts.table + hyper.table)


def posterior_mean(post: DirichletPosterior) -> np.ndarray:
    """Posterior mean estimate of every p(s | word); rows sum to 1."""
    return post.params / post.word_totals[:, None]


def posterior_variance(post: DirichletPosterior) -> np.ndarray:
    """Posterior variance of every p(s | word); equals the Beta-marginal variance."""
    totals = post.word_totals[:, None]
    return post.params * (totals - post.params) / (totals**2 * (totals + 1.0))


def prior_moments(hyper: HyperTable) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of every p(s | word) under the prior alone."""
    prior = DirichletPosterior(hyper.order, hyper.alphabet, hyper.table)
    return posterior_mean(prior), posterior_variance(prior)


def marginal(post: DirichletPosterior, word: int, symbol: int) -> BetaParams:
    """Beta marginal of one parameter: a = that entry, b = rest of its row."""
    a = float(post.params[word, symbol])
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


def _log_gamma_ratio(base_log_norm, upd: np.ndarray) -> float:
    """log of prod_w Gamma(base(w)) / Gamma(upd(w)) * prod_(w,s) Gamma(upd(w, s))
    / Gamma(base(w, s)), with upd = base + inc and (w) a row total: the
    Dirichlet average of a likelihood with counts inc under parameters base.
    The base's part comes in as its dirichlet_log_norm."""
    return float(base_log_norm + np.sum(log_gamma(upd)) - np.sum(log_gamma(upd.sum(axis=1))))


def log_evidence(counts: CountTable, hyper: HyperTable) -> float:
    """Natural log of the marginal likelihood (average of the likelihood over
    the prior), in the closed Gamma-ratio form.  The prior's normaliser is
    computed once per hyper table.

    The product runs over all A**k words; words with zero counts contribute
    exactly zero, so the all-zero table gives log evidence 0.
    """
    require_same_shape(counts, hyper)
    return _log_gamma_ratio(hyper.log_norm, hyper.table + counts.table)


def log_predictive(counts: CountTable, new_counts: CountTable, hyper: HyperTable) -> float:
    """Log probability of new data with counts m, averaged over the posterior:
    the evidence's Gamma ratio with the posterior parameters n + alpha as its
    base.  Algebraically log_evidence(n + m) - log_evidence(n)."""
    require_same_shape(counts, new_counts, hyper)
    base = counts.table + hyper.table
    return _log_gamma_ratio(dirichlet_log_norm(base), base + new_counts.table)


def sample_posterior(post: DirichletPosterior, seed) -> np.ndarray:
    """One Dirichlet draw per word, via per-component Gamma draws normalized
    row-wise.  Deterministic given the seed (or caller-owned Generator)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.gamma(shape=post.params)
    return g / g.sum(axis=1, keepdims=True)


def summary_rows(counts: CountTable, hyper: HyperTable, level: float = 0.95) -> list[tuple]:
    """Per-parameter posterior summaries for CSV export, one tuple per
    (word, symbol) entry in code order: word, symbol, count, alpha, mean,
    variance, ci_low, ci_high."""
    post = posterior(counts, hyper)
    count, alpha = counts.table.tolist(), hyper.table.tolist()
    mean, var = posterior_mean(post).tolist(), posterior_variance(post).tolist()
    rows = []
    for w, word in enumerate(word_strings(post.order, post.alphabet)):
        for s, symbol in enumerate(post.alphabet.symbols):
            region = confidence_region(marginal(post, w, s), level)
            rows.append((word, symbol, count[w][s], alpha[w][s], mean[w][s], var[w][s],
                         region.lower, region.upper))
    return rows


def density_grid(post: DirichletPosterior, points: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Every entry's exact Beta marginal density on a uniform open grid x in
    (0, 1): x, and densities of shape (A**k, A, points)."""
    if points < 2:
        raise ValueError("need at least 2 grid points")
    x = (np.arange(points) + 0.5) / points
    a = post.params[..., None]
    b = (post.word_totals[:, None] - post.params)[..., None]
    return x, BetaParams(a, b).pdf(x)
