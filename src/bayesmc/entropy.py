"""Entropy-rate estimation via derivatives of the log partition function.

The marginal likelihood is a partition function Z in an inverse-temperature
parameter beta_k = total posterior mass.  Its first derivative gives the
posterior expectation of the energy E = D[Q||P] + h_mu[Q] (conditional
relative entropy plus entropy rate of the posterior-mean distribution Q);
the second derivative gives its variance.  Both reduce to polygamma sums,
which `energy_moments(counts, hyper)` takes from one pass over the posterior
table, with h_mu[Q] and the large-beta expansion.  All returned information
quantities are in bits.  The polygammas run only on observed entries and
words: an unobserved one takes the prior's own term, computed once per hyper
table on its distinct values.  energy_moments, r_from and hmu_of also take a
(G, A**k, A) stack of count or posterior tables and return one value per
table, each equal to its table's own bit for bit.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .comparison import OrderPosterior
from .core import CountTable, HyperTable, _frozen
from .inference import posterior, posterior_mean
from .special import _per_table, _shifted_series, _table_sum

_LN2 = math.log(2.0)

#: Below this, t^2 underflows or trigamma's 1/t^2 overflows, and
#: t^2 (trigamma(t) - 1/t) = 1 - t + t^2 trigamma(1 + t) rounds to 1;
#: t digamma(t) = t digamma(1 + t) - 1 rounds to -1.
_TINY = 1e-150


@dataclass(frozen=True, eq=False)
class WordConditional:
    """A pair (word distribution, conditional next-symbol distribution), or
    a stack of G such pairs."""

    order: int
    alphabet: object
    word_probs: np.ndarray = field(repr=False)  # (A**k,) or (G, A**k)
    cond_probs: np.ndarray = field(repr=False)  # (A**k, A) or (G, A**k, A), rows sum to 1

    def __post_init__(self):
        object.__setattr__(self, "word_probs", _frozen(self.word_probs))
        object.__setattr__(self, "cond_probs", _frozen(self.cond_probs))


def r_from(table: HyperTable) -> WordConditional:
    """The mean distribution of a Dirichlet table: word masses alpha(word)/beta
    with beta = alpha_k the table's total, conditionals = posterior_mean."""
    beta = np.asarray(table.total)[..., None]
    return WordConditional(table.order, table.alphabet, table.word_totals / beta,
                           posterior_mean(table))


def _rate_bits(weights, cond):
    """-sum weights * cond * log2 cond over the last two axes, with 0 log 0 =
    0: the entropy rate in bits per symbol of conditionals `cond` whose
    contexts have the probabilities `weights` (broadcast against `cond`), one
    value per table of a stack."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(cond > 0, cond * np.log2(np.where(cond > 0, cond, 1.0)), 0.0)
    return _per_table(-_table_sum(weights * terms))


def hmu_of(dist: WordConditional) -> float:
    """Entropy rate of the distribution, in bits per symbol; 0 log 0 = 0."""
    return _rate_bits(dist.word_probs[..., None], dist.cond_probs)


def kl_of(dist: WordConditional, true_cond: np.ndarray) -> float:
    """Conditional relative entropy D[Q || P] of one distribution, in bits
    per symbol.

    Infinite when Q puts mass on a transition the reference conditionals
    forbid.
    """
    q = dist.cond_probs
    p = np.asarray(true_cond, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"conditional table shape {p.shape}, expected {q.shape}")
    mass = dist.word_probs[:, None] * q
    if np.any((mass > 0) & (p <= 0)):
        return math.inf
    active = mass > 0
    ratio = np.ones_like(q)
    ratio[active] = q[active] / p[active]
    return float(np.sum(mass[active] * np.log2(ratio[active])))


def _moment_terms(t):
    """t psi(t) and t^2 (psi'(t) - 1/t), from one polygamma pass.  Below _TINY
    they take their limits -1 (t psi(t) = t psi(1 + t) - 1) and 1, as the
    polygammas' 1/t and 1/t^2 would overflow for a subnormal t."""
    tiny = t < _TINY
    psi, tri = _shifted_series(np.where(tiny, 1.0, t), "energy_moments")
    return np.where(tiny, -1.0, t * psi), np.where(tiny, 1.0, t * t * tri)


#: hyper table -> the _moment_terms of its entries and of its word totals, the terms of
#: every unobserved entry and word, kept only as long as the (immutable) table lives.
_PRIOR_TERMS = weakref.WeakKeyDictionary()


def _posterior_terms(counts: CountTable, hyper: HyperTable, post: HyperTable):
    """_moment_terms of the posterior table t = n + alpha and of its word totals t(w), as
    the (entries, words) pair of each moment.  They run in one call on the observed
    entries and words, where n or n(w) is nonzero; the first time for each hyper table
    that call also takes the table's distinct entries and distinct word totals, whose
    terms are gathered into full tables and kept.  Elsewhere t is alpha exactly, and t(w)
    is alpha(w), being added up in the same order, so those take the prior's terms.  The
    arrays therefore equal _moment_terms(t) and _moment_terms(t(w)) bit for bit."""
    t, t_words = post.table, post.word_totals
    seen = np.broadcast_to(counts.table > 0, t.shape)
    seen_words = np.broadcast_to(counts.word_totals > 0, t_words.shape)
    parts = [t[seen], t_words[seen_words]]
    prior = _PRIOR_TERMS.get(hyper)
    if prior is None:
        alpha, alpha_words = hyper.table, hyper.word_totals
        (distinct, at_entry), (distinct_words, at_word) = (np.unique(a, return_inverse=True)
                                                           for a in (alpha, alpha_words))
        parts += [distinct, distinct_words]
    moments = [np.split(m, np.cumsum([p.size for p in parts[:-1]]))
               for m in _moment_terms(np.concatenate(parts))]
    if prior is None:
        prior = _PRIOR_TERMS[hyper] = [(m[2][at_entry].reshape(alpha.shape),
                                        m[3][at_word].reshape(alpha_words.shape))
                                       for m in moments]
    out = []
    # copies of the broadcast prior are C-ordered, as terms of t are, so they sum alike
    for (pair_prior, word_prior), m in zip(prior, moments):
        pairs = np.broadcast_to(pair_prior, t.shape).copy()
        words = np.broadcast_to(word_prior, t_words.shape).copy()
        pairs[seen], words[seen_words] = m[:2]
        out.append((pairs, words))
    return out


@dataclass(frozen=True, eq=False)
class EnergyMoments:
    """The entropy-rate statistics of one posterior, in bits: one float each for a lone
    table, one value per table for a stack."""

    beta: float  # the posterior's total mass beta = n + alpha_k
    mean: float  # E[D[Q||P] + h_mu[Q]], bits per symbol
    variance: float  # its posterior variance, bits^2 per symbol^2
    hmu: float  # h_mu[Q], the entropy rate of Q
    asymptotic: float  # hmu + A**k (A-1) / (2 beta ln 2)
    q: WordConditional  # Q = r_from(posterior(counts, hyper))


def energy_moments(counts: CountTable, hyper: HyperTable) -> EnergyMoments:
    """The posterior energy E = D[Q||P] + h_mu[Q], Q = r_from(posterior(counts, hyper)):
    its mean and variance, the first two beta-derivatives of log Z at fixed Q, from one
    polygamma pass over the posterior table t = n + alpha and its word totals t(w).

    mean = (sum_w t(w) psi(t(w)) - sum_(w,s) t(w,s) psi(t(w,s))) / (beta ln 2), and
    variance = (sum_(w,s) t^2 psi'(t) - sum_w t(w)^2 psi'(t(w))) / (beta ln 2)^2.  Both
    variance sums carry the same leading term sum t^2 / t = beta, so each trigamma is
    taken without its 1/t and the difference keeps its relative precision at any beta.
    A term of t below _TINY takes its limit.  `asymptotic` is the large-beta expansion
    hmu + A**k (A-1) / (2 beta ln 2), whose remainder is O(1/beta^2): meaningful only
    for beta >> 1.
    """
    post = posterior(counts, hyper)
    (mean_pairs, mean_words), (var_pairs, var_words) = _posterior_terms(counts, hyper, post)
    beta = post.total
    scale = beta * _LN2
    mean = (mean_words.sum(axis=-1) - _table_sum(mean_pairs)) / scale
    variance = (_table_sum(var_pairs) - var_words.sum(axis=-1)) / (scale * scale)
    q = r_from(post)
    hmu = hmu_of(q)
    A = post.alphabet.size
    asymptotic = hmu + A**post.order * (A - 1) / (2.0 * beta * _LN2)
    return EnergyMoments(beta, _per_table(mean), _per_table(variance), hmu, asymptotic, q)


def weighted_energy(op: OrderPosterior, energies: dict[int, float]) -> float:
    """Mix per-order energy estimates by the order-posterior weights."""
    missing = [k for k in op.orders if k not in energies]
    if missing:
        raise ValueError(f"missing energy estimates for orders {missing}")
    return float(sum(op.probability(k) * energies[k] for k in op.orders))
