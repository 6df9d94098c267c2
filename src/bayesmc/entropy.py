"""Entropy-rate estimation via derivatives of the log partition function.

The marginal likelihood is a partition function Z in an inverse-temperature
parameter beta_k = total posterior mass.  Its first derivative gives the
posterior expectation of the energy E = D[Q||P] + h_mu[Q] (conditional
relative entropy plus entropy rate of the posterior-mean distribution Q);
the second derivative gives its variance.  Both reduce to polygamma sums.
All returned information quantities are in bits.  The energy moments take
(counts, hyper), as log_evidence does, and evaluate the polygammas only on
observed entries and words: an unobserved one takes the prior's own term,
computed once per hyper table.  The moments, r_from and hmu_of also take a
(G, A**k, A) stack of count or posterior tables and return one value per
table, each equal to its table's own bit for bit.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .comparison import OrderPosterior
from .core import CountTable, HyperTable, _frozen, require_same_shape
from .inference import posterior, posterior_mean
from .special import _per_table, _row_sum, _table_sum, _trigamma_remainder, digamma

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


def _mean_terms(t):
    """t psi(t); below _TINY its limit -1 (t psi(t) = t psi(1 + t) - 1), as
    psi's 1/t would overflow for a subnormal t."""
    tiny = t < _TINY
    return np.where(tiny, -1.0, t * digamma(np.where(tiny, 1.0, t)))


def _variance_terms(t):
    """t^2 (psi'(t) - 1/t); below _TINY its limit 1."""
    tiny = t < _TINY
    return np.where(tiny, 1.0, t * t * _trigamma_remainder(np.where(tiny, 1.0, t)))


#: hyper table -> {term function: (its entries' terms, its words' terms)}, the terms of
#: every unobserved entry and word, kept only as long as the (immutable) table lives.
_PRIOR_TERMS = weakref.WeakKeyDictionary()


def _posterior_terms(counts: CountTable, hyper: HyperTable, terms):
    """terms(t) for the posterior table t = n + alpha, terms(t(w)) for its word totals,
    and t's total beta.  terms runs in one call on the observed entries and words, where
    n or n(w) is nonzero; the first time for each hyper table that call also takes its
    word totals, and a second one its entries, so that no call is larger than the table,
    and both are kept.  Elsewhere t is alpha exactly, and t(w) is alpha(w), being added
    up in the same order, so those take the prior's terms.  Both arrays therefore equal
    terms(t) and terms(t(w)) bit for bit."""
    require_same_shape(counts, hyper)
    t = counts.table + hyper.table
    t_words = _row_sum(t)
    seen = np.broadcast_to(counts.table > 0, t.shape)
    seen_words = np.broadcast_to(counts.word_totals > 0, t_words.shape)
    parts = [t[seen], t_words[seen_words]]
    memo = _PRIOR_TERMS.setdefault(hyper, {})
    prior = memo.get(terms)
    if prior is None:
        parts.append(hyper.word_totals.ravel())
    values = np.split(terms(np.concatenate(parts)), np.cumsum([p.size for p in parts[:-1]]))
    if prior is None:
        prior = memo[terms] = terms(hyper.table), values[2].reshape(hyper.word_totals.shape)
    # copies of the broadcast prior are C-ordered, as terms(t) is, so they sum alike
    pair_prior, word_prior = prior
    pairs = np.broadcast_to(pair_prior, t.shape).copy()
    words = np.broadcast_to(word_prior, t_words.shape).copy()
    pairs[seen], words[seen_words] = values[:2]
    return pairs, words, _per_table(_table_sum(t))


def expected_energy(counts: CountTable, hyper: HyperTable) -> float:
    """Posterior expectation of D[Q||P] + h_mu[Q], in bits per symbol, with Q
    = r_from(posterior(counts, hyper)).

    First beta-derivative of -log Z at fixed Q, expressed with digammas of
    the posterior table t = n + alpha and its word totals t(w):
    (sum_w t(w) psi(t(w)) - sum_(w,s) t(w,s) psi(t(w,s))) / (beta ln 2).  A
    term of t below _TINY is its limit -1.
    """
    pairs, words, beta = _posterior_terms(counts, hyper, _mean_terms)
    return _per_table((words.sum(axis=-1) - _table_sum(pairs)) / (beta * _LN2))


def energy_variance(counts: CountTable, hyper: HyperTable) -> float:
    """Posterior variance of the energy, in bits^2 per symbol^2.

    Second beta-derivative of log Z at fixed Q, expressed with trigammas:
    (sum_(w,s) t^2 psi'(t) - sum_w t(w)^2 psi'(t(w))) / (beta ln 2)^2.  Both
    sums carry the same leading term sum t^2 / t = beta, so each trigamma is
    taken without its 1/t and the difference keeps its relative precision
    at any beta.  A term of t below _TINY is 1.
    """
    pairs, words, beta = _posterior_terms(counts, hyper, _variance_terms)
    scale = beta * _LN2
    return _per_table((_table_sum(pairs) - words.sum(axis=-1)) / (scale * scale))


def asymptotic_energy(counts: CountTable, hyper: HyperTable) -> float:
    """Large-beta expansion: h_mu[Q] + A**k (A-1) / (2 beta ln 2).

    The remainder is O(1/beta^2); meaningful only for beta >> 1.
    """
    post = posterior(counts, hyper)
    A = post.alphabet.size
    correction = A**post.order * (A - 1) / (2.0 * post.total * _LN2)
    return hmu_of(r_from(post)) + correction


def weighted_energy(op: OrderPosterior, energies: dict[int, float]) -> float:
    """Mix per-order energy estimates by the order-posterior weights."""
    missing = [k for k in op.orders if k not in energies]
    if missing:
        raise ValueError(f"missing energy estimates for orders {missing}")
    return float(sum(op.probability(k) * energies[k] for k in op.orders))
