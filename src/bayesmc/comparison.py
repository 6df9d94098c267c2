"""Second-level inference: probability over candidate Markov-chain orders.

Both priors over orders reduce to a log-sum-exp normalization of the
per-order log evidences, with the parameter-count penalty entering as an
additive -|M_k| term in log space.  Each order's evidence may be one float or
G values, one per table of a (G, A^k, A) stack: the posterior is then (G, K),
each row normalized as the lone call on that row would be, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import _check_integer
from .special import _per_table

#: Two probabilities closer than this are treated as tied in map_order.
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class OrderPosterior:
    """Normalized probability over candidate orders k: (K,) arrays, or (G, K)
    with one row per table of a stack."""

    orders: tuple[int, ...]
    log_evidence: np.ndarray = field(repr=False)
    probabilities: np.ndarray = field(repr=False)

    def probability(self, k: int):
        """P(k): a float, or one value per table of a stack."""
        return _per_table(self.probabilities[..., self.orders.index(k)])


def free_params(k: int, alphabet_size: int) -> int:
    """Number of free parameters of an order-k chain: A**k * (A - 1)."""
    _check_integer(k, "order k", 1)
    _check_integer(alphabet_size, "alphabet size", 2)
    return alphabet_size**k * (alphabet_size - 1)


def _log_normalize(scores: np.ndarray) -> np.ndarray:
    """Normalize exp(scores) along the last axis, each row shifted by its maximum."""
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def _build(evidences: Mapping[int, float], log_prior) -> OrderPosterior:
    if not evidences:
        raise ValueError("need at least one candidate order")
    orders = tuple(sorted(evidences))
    log_ev = np.stack([np.asarray(evidences[k], dtype=float) for k in orders], axis=-1)
    log_pw = np.array([float(log_prior(k)) for k in orders])
    probs = _log_normalize(log_ev + log_pw)
    return OrderPosterior(orders, log_ev, probs)


def compare_uniform(evidences: Mapping[int, float]) -> OrderPosterior:
    """Uniform prior over orders; it cancels in the normalization.  Each order
    maps to one log evidence or to G of them, one per table of a stack."""
    return _build(evidences, lambda k: 0.0)


def compare_penalized(evidences: Mapping[int, float], alphabet_size: int) -> OrderPosterior:
    """Prior weight exp(-|M_k|), penalizing the free-parameter count.

    The penalty prior's own normalization cancels between numerator and
    denominator, so only the exp(-|M_k|) factors matter.
    """
    return _build(evidences, lambda k: -float(free_params(k, alphabet_size)))


def map_order(op: OrderPosterior):
    """Most probable order, an int or one per table of a stack; ties within
    TIE_TOLERANCE go to the smallest k."""
    p = op.probabilities
    if np.isnan(p).any():
        raise ValueError("order probabilities hold nan")
    first = np.argmax(p >= p.max(axis=-1, keepdims=True) - TIE_TOLERANCE, axis=-1)
    return op.orders[first] if first.ndim == 0 else np.asarray(op.orders)[first]
