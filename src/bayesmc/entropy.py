"""Entropy-rate estimation via derivatives of the log partition function.

The marginal likelihood is a partition function Z in an inverse-temperature
parameter beta_k = total posterior mass.  Its first derivative gives the
posterior expectation of the energy E = D[Q||P] + h_mu[Q] (conditional
relative entropy plus entropy rate of the posterior-mean distribution Q);
the second derivative gives its variance.  Both reduce to polygamma sums.
All returned information quantities are in bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .comparison import OrderPosterior
from .core import CountTable, HyperTable
from .inference import posterior, posterior_mean
from .special import digamma, trigamma

_LN2 = math.log(2.0)


class SupportWarning(UserWarning):
    """Q puts mass where the reference distribution has none."""


@dataclass(frozen=True)
class WordConditional:
    """A pair (word distribution, conditional next-symbol distribution)."""

    order: int
    alphabet: object
    word_probs: np.ndarray = field(repr=False)  # (A**k,)
    cond_probs: np.ndarray = field(repr=False)  # (A**k, A), rows sum to 1

    def __post_init__(self):
        wp = np.ascontiguousarray(self.word_probs, dtype=float)
        cp = np.ascontiguousarray(self.cond_probs, dtype=float)
        wp.flags.writeable = False
        cp.flags.writeable = False
        object.__setattr__(self, "word_probs", wp)
        object.__setattr__(self, "cond_probs", cp)


@dataclass(frozen=True)
class QDistribution(WordConditional):
    """Mean word/conditional distribution of a Dirichlet table with total mass
    beta."""

    beta: float = 0.0


def r_from(table: HyperTable) -> QDistribution:
    """The mean distribution of a Dirichlet table: word masses alpha(word)/beta
    with beta = alpha_k the table's total, conditionals = posterior_mean."""
    total = table.total
    return QDistribution(table.order, table.alphabet, table.word_totals / total,
                         posterior_mean(table), total)


def q_from(counts: CountTable, hyper: HyperTable) -> QDistribution:
    """Q: word masses (n + alpha)(word)/beta_k, conditionals = posterior mean."""
    return r_from(posterior(counts, hyper))


def hmu_of(dist: WordConditional) -> float:
    """Entropy rate of the distribution, in bits per symbol; 0 log 0 = 0."""
    cp = dist.cond_probs
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(cp > 0, cp * np.log2(np.where(cp > 0, cp, 1.0)), 0.0)
    return float(-np.sum(dist.word_probs[:, None] * terms))


def kl_of(dist: WordConditional, true_cond: np.ndarray) -> float:
    """Conditional relative entropy D[Q || P] in bits per symbol.

    Infinite (with a SupportWarning) when Q puts mass on a transition the
    reference conditionals forbid.
    """
    q = dist.cond_probs
    p = np.asarray(true_cond, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"conditional table shape {p.shape}, expected {q.shape}")
    mass = dist.word_probs[:, None] * q
    if np.any((mass > 0) & (p <= 0)):
        warnings.warn("Q has support where the reference distribution has none",
                      SupportWarning, stacklevel=2)
        return math.inf
    active = mass > 0
    ratio = np.ones_like(q)
    ratio[active] = q[active] / p[active]
    return float(np.sum(mass[active] * np.log2(ratio[active])))


def _masses(q: QDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The posterior masses beta * q(word) and beta * q(word) * q(s | word)."""
    bw = q.beta * q.word_probs
    if np.any(bw <= 0):
        raise ValueError("every word must carry positive posterior mass")
    return bw, bw[:, None] * q.cond_probs


def expected_energy(q: QDistribution) -> float:
    """Posterior expectation of D[Q||P] + h_mu[Q], in bits per symbol.

    First beta-derivative of -log Z at fixed Q, expressed with digammas.
    """
    bw, bws = _masses(q)
    word_part = np.sum(q.word_probs * digamma(bw))
    pair_part = np.sum(q.word_probs[:, None] * q.cond_probs * digamma(bws))
    return float((word_part - pair_part) / _LN2)


def energy_variance(q: QDistribution) -> float:
    """Posterior variance of the energy, in bits^2 per symbol^2.

    Second beta-derivative of log Z at fixed Q, expressed with trigammas;
    the energy is in bits, so the natural-log variance is divided by
    (log 2)^2.
    """
    bw, bws = _masses(q)
    joint = q.word_probs[:, None] * q.cond_probs
    pair_part = np.sum(joint**2 * trigamma(bws))
    word_part = np.sum(q.word_probs**2 * trigamma(bw))
    return float((pair_part - word_part) / _LN2**2)


def asymptotic_energy(q: QDistribution) -> float:
    """Large-beta expansion: h_mu[Q] + A**k (A-1) / (2 beta ln 2).

    The remainder is O(1/beta^2); meaningful only for beta >> 1.
    """
    A = q.alphabet.size
    correction = A**q.order * (A - 1) / (2.0 * q.beta * _LN2)
    return hmu_of(q) + correction


def weighted_energy(op: OrderPosterior, energies: dict[int, float]) -> float:
    """Mix per-order energy estimates by the order-posterior weights."""
    missing = [k for k in op.orders if k not in energies]
    if missing:
        raise ValueError(f"missing energy estimates for orders {missing}")
    return float(sum(op.probability(k) * energies[k] for k in op.orders))
