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
table on its distinct values and cached on it.  energy_moments, r_from and
hmu_of also take a (G, A**k, A) stack of count or posterior tables and return
one value per table, each equal to its table's own bit for bit.
energy_moments_of takes a list of (counts, hyper) pairs, of any orders and
stack sizes, and runs one polygamma pass over all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .comparison import OrderPosterior
from .core import CountTable, HyperTable, _frozen
from .inference import posterior, posterior_mean
from .special import _moment_terms, _per_table, _table_sum

_LN2 = math.log(2.0)


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
    word_probs, cond_probs = table.word_totals / beta, posterior_mean(table)
    for fresh in (word_probs, cond_probs):
        fresh.flags.writeable = False  # fresh, so _frozen need not copy it
    return WordConditional(table.order, table.alphabet, word_probs, cond_probs)


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
    if q.ndim != 2:
        raise ValueError(f"kl_of takes one table, not a stack of shape {q.shape}")
    p = np.asarray(true_cond, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"conditional table shape {p.shape}, expected {q.shape}")
    mass = dist.word_probs[:, None] * q
    if np.any((mass > 0) & (p <= 0)):
        return math.inf
    active = mass > 0
    return float(np.sum(mass[active] * np.log2(q[active] / p[active])))


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


def energy_moments_of(pairs) -> list:
    """energy_moments of each (counts, hyper) pair, from one polygamma pass over all of
    them; each equals the pair's lone call bit for bit.  A sweep passes the count stacks
    of all its orders at once.  The pass takes the observed posterior entries and words,
    where n or n(w) is nonzero, and the hyper table's cached terms fill the rest: there t
    is alpha exactly, and t(w) is alpha(w), added up in the same order, so each table of
    terms equals _moment_terms(t) or _moment_terms(t(w)) bit for bit."""
    cases, observed = [], []
    for counts, hyper in pairs:
        post = posterior(counts, hyper)
        seen = [np.broadcast_to(n > 0, t.shape) for n, t in
                ((counts.table, post.table), (counts.word_totals, post.word_totals))]
        cases.append((hyper, post, seen))
        observed += [post.table[seen[0]], post.word_totals[seen[1]]]
    if not cases:
        return []
    moments = [np.split(m, np.cumsum([o.size for o in observed[:-1]]))
               for m in _moment_terms(np.concatenate(observed))]
    out = []
    for i, (hyper, post, (seen, seen_words)) in enumerate(cases):
        sums = []
        for (prior_entries, prior_words), m in zip(hyper._prior_terms, moments):
            # copies of the broadcast prior are C-ordered, as terms of t are, so they sum alike
            entries = np.broadcast_to(prior_entries, post.table.shape).copy()
            words = np.broadcast_to(prior_words, post.word_totals.shape).copy()
            entries[seen], words[seen_words] = m[2 * i], m[2 * i + 1]
            sums.append((_table_sum(entries), words.sum(axis=-1)))
        (mean_entries, mean_words), (var_entries, var_words) = sums
        beta = post.total
        scale = beta * _LN2
        mean = (mean_words - mean_entries) / scale
        variance = (var_entries - var_words) / (scale * scale)
        q = r_from(post)
        hmu = hmu_of(q)
        A = post.alphabet.size
        asymptotic = hmu + A**post.order * (A - 1) / (2.0 * beta * _LN2)
        out.append(EnergyMoments(beta, _per_table(mean), _per_table(variance), hmu,
                                 asymptotic, q))
    return out


def energy_moments(counts: CountTable, hyper: HyperTable) -> EnergyMoments:
    """The posterior energy E = D[Q||P] + h_mu[Q], Q = r_from(posterior(counts, hyper)):
    its mean and variance, the first two beta-derivatives of log Z at fixed Q, from one
    polygamma pass over the posterior table t = n + alpha and its word totals t(w).

    mean = (sum_w t(w) psi(t(w)) - sum_(w,s) t(w,s) psi(t(w,s))) / (beta ln 2), and
    variance = (sum_(w,s) t^2 psi'(t) - sum_w t(w)^2 psi'(t(w))) / (beta ln 2)^2.  Both
    variance sums carry the same leading term sum t^2 / t = beta, so each trigamma is
    taken without its 1/t and the difference keeps its relative precision at any beta.
    A term of t below special._TINY takes its limit.  `asymptotic` is the large-beta
    expansion hmu + A**k (A-1) / (2 beta ln 2), whose remainder is O(1/beta^2):
    meaningful only for beta >> 1.
    """
    return energy_moments_of([(counts, hyper)])[0]


def weighted_energy(op: OrderPosterior, energies: dict[int, float]):
    """Mix per-order energy estimates by the order-posterior weights: a float, or one
    value per table of a stacked posterior (an order's estimate then one value, or one
    per table)."""
    missing = [k for k in op.orders if k not in energies]
    if missing:
        raise ValueError(f"missing energy estimates for orders {missing}")
    return _per_table(sum(op.probability(k) * energies[k] for k in op.orders))
