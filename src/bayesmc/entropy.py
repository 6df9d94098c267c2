"""Entropy-rate estimation via derivatives of the log partition function.

The marginal likelihood is a partition function Z in an inverse-temperature
parameter beta_k = total posterior mass.  Its first derivative gives the
posterior expectation of the energy E = D[Q||P] + h_mu[Q] (conditional
relative entropy plus entropy rate of the posterior-mean distribution Q);
the second derivative gives its variance.  Both reduce to polygamma sums,
which `energy_moments(counts, hyper)` takes, with h_mu[Q] and the large-beta
expansion, at the cost of the observed words, gathered as the evidence's are:
an unobserved word's posterior row is the prior's, so each sum over the table
is the prior's own sum, cached on the hyper table and taken from its distinct
values, plus the observed words' terms less the prior's.  All returned
information quantities are in bits.  energy_moments, r_from and hmu_of also
take a (G, A**k, A) stack of count or posterior tables and return one value
per table, each equal to its table's own bit for bit.  energy_moments_of takes
a list of (counts, hyper) pairs, of any orders and stack sizes, and runs one
polygamma pass over all of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .comparison import OrderPosterior
from .core import Alphabet, CountTable, HyperTable, ShapeMismatchError, _frozen
from .inference import _observed_rows, _table_sums, posterior, posterior_mean
from .special import _moment_terms, _per_table, _row_rates, _row_sum, _table_sum

_LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class WordConditional:
    """A pair (word distribution, conditional next-symbol distribution), or
    a stack of G such pairs.  Shapes that do not fit the order and alphabet,
    or each other, raise ShapeMismatchError."""

    order: int
    alphabet: Alphabet
    word_probs: np.ndarray = field(repr=False)  # (A**k,) or (G, A**k)
    cond_probs: np.ndarray = field(repr=False)  # (A**k, A) or (G, A**k, A), rows sum to 1

    def __post_init__(self):
        word_probs, cond_probs = _frozen(self.word_probs), _frozen(self.cond_probs)
        expected = (self.alphabet.size**self.order, self.alphabet.size)
        if (cond_probs.ndim not in (2, 3) or cond_probs.shape[-2:] != expected
                or word_probs.shape != cond_probs.shape[:-1]):
            raise ShapeMismatchError(
                f"word_probs shape {word_probs.shape} and cond_probs shape {cond_probs.shape}, "
                f"expected {expected[:1]} and {expected} at order {self.order}, or a stack of them")
        object.__setattr__(self, "word_probs", word_probs)
        object.__setattr__(self, "cond_probs", cond_probs)


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
    counts: CountTable = field(repr=False)
    hyper: HyperTable = field(repr=False)

    @functools.cached_property
    def q(self) -> WordConditional:
        """Q = r_from(posterior(counts, hyper)), computed on first read: it costs a pass
        over every entry, and a sweep reads it only to compare Q with a known source."""
        return r_from(posterior(self.counts, self.hyper))


def energy_moments_of(pairs) -> list:
    """energy_moments of each (counts, hyper) pair, from one polygamma pass over all of
    them; each equals the pair's lone call bit for bit.  A sweep passes the count stacks
    of all its orders at once.  The pass takes the posterior rows t = n + alpha of the
    observed words, as the evidence gathers them, and their totals t(w).  Elsewhere the
    posterior is the prior, whose share the hyper table caches: each sum over all entries
    and words is the prior's own sum plus, over the observed words, the posterior's
    terms less the prior's.  The hyper must be one table."""
    cases, observed = [], []
    for counts, hyper in pairs:
        flat, shape, alpha, n = _observed_rows(counts, hyper)
        if hyper.table.ndim != 2:
            raise ValueError(f"energy_moments takes one hyper table, not a stack of shape "
                             f"{hyper.table.shape}")
        t = n + alpha
        t_words = _row_sum(t)
        cases.append((counts, hyper, flat, shape, alpha, t, t_words))
        observed += [t.ravel(), t_words]
    if not cases:
        return []
    moments = [np.split(m, np.cumsum([o.size for o in observed[:-1]]))
               for m in _moment_terms(np.concatenate(observed))]
    out = []
    for i, (counts, hyper, flat, shape, alpha, t, t_words) in enumerate(cases):
        entries, totals, prior_moments, prior_rate = hyper._prior_terms
        alpha_words = _row_sum(alpha)  # the prior's word totals there, as word_totals adds them
        at_entries, at_words = np.searchsorted(entries, alpha), np.searchsorted(totals, alpha_words)
        # per observed word, each moment's word term less its entries' terms, and
        # sum_s t log2(t / t(w)), each the posterior's less the prior's
        per_word = [(m[2 * i + 1] - prior_words[at_words])
                    - _row_sum(m[2 * i].reshape(t.shape) - prior_entries[at_entries])
                    for m, (prior_entries, prior_words, _) in zip(moments, prior_moments)]
        post_rates, prior_rates = _row_rates(np.stack([t, alpha]), np.stack([t_words, alpha_words]))
        mean_sum, var_sum, rate_sum = _table_sums(
            np.stack([*per_word, post_rates - prior_rates]), flat, shape)
        beta = counts.total + hyper.total
        scale = beta * _LN2
        mean = (prior_moments[0][2] + mean_sum) / scale
        variance = -(prior_moments[1][2] + var_sum) / (scale * scale)
        hmu = _per_table(-(prior_rate + rate_sum) / beta)
        A = hyper.alphabet.size
        asymptotic = hmu + A**hyper.order * (A - 1) / (2.0 * beta * _LN2)
        out.append(EnergyMoments(beta, _per_table(mean), _per_table(variance), hmu,
                                 asymptotic, counts, hyper))
    return out


def energy_moments(counts: CountTable, hyper: HyperTable) -> EnergyMoments:
    """The posterior energy E = D[Q||P] + h_mu[Q], Q = r_from(posterior(counts, hyper)):
    its mean and variance, the first two beta-derivatives of log Z at fixed Q, from the
    polygamma terms of the posterior table t = n + alpha and its word totals t(w).

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
