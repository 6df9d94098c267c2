"""Reference data sources as hidden-state processes with labeled
transition matrices.

Each process is defined by one nonnegative matrix T^(s) per symbol; the
sum T over symbols must be row-stochastic.  Exact word probabilities are
pi . T^(s_0) ... T^(s_L-1) . 1 with pi the stationary state distribution,
which supplies exact average count tables for any data size N and order k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import Alphabet, CountTable, SymbolSequence, check_table_size

#: Reference entropy rate of the simple nondeterministic source, bits/symbol.
#: Its minimal presentation is nondeterministic, so the closed form below
#: does not apply; this constant is used as ground truth instead.
SNS_ENTROPY_RATE = 0.677867

_ROW_SUM_TOL = 1e-12


class NondeterministicProcessError(ValueError):
    """Closed-form entropy rate requested for a nondeterministic process."""


@dataclass(frozen=True)
class LabeledHMM:
    """Hidden-state process with one labeled transition matrix per symbol."""

    alphabet: Alphabet
    matrices: np.ndarray = field(repr=False)  # (A, n_states, n_states)
    name: str = ""

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrices, dtype=float)
        if m.ndim != 3 or m.shape[0] != self.alphabet.size or m.shape[1] != m.shape[2]:
            raise ValueError("matrices must have shape (alphabet size, n, n)")
        if np.any(m < 0):
            raise ValueError("labeled transition matrices must be nonnegative")
        rows = m.sum(axis=0).sum(axis=1)
        if np.any(np.abs(rows - 1.0) > _ROW_SUM_TOL):
            raise ValueError(
                f"state-to-state matrix must be row-stochastic; row sums {rows}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrices", m)

    @property
    def n_states(self) -> int:
        return self.matrices.shape[1]

    @property
    def transition_matrix(self) -> np.ndarray:
        return self.matrices.sum(axis=0)

    def is_unifilar(self) -> bool:
        """True when each (state, symbol) row has at most one successor."""
        return bool(np.all((self.matrices > 0).sum(axis=2) <= 1))


@dataclass(frozen=True)
class MarkovApproximation:
    """Best order-k Markov conditionals of a process, with support mask."""

    order: int
    word_probs: np.ndarray = field(repr=False)
    cond_probs: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)  # words with positive probability


def golden_mean() -> LabeledHMM:
    """Binary first-order Markov source with single forbidden word 00."""
    t0 = [[0.0, 0.5], [0.0, 0.0]]
    t1 = [[0.5, 0.0], [1.0, 0.0]]
    return LabeledHMM(Alphabet.binary(), np.array([t0, t1]), name="golden_mean")


def even_process() -> LabeledHMM:
    """Sofic source emitting 1-blocks of even length; not finite-order Markov."""
    t0 = [[0.5, 0.0], [0.0, 0.0]]
    t1 = [[0.0, 0.5], [1.0, 0.0]]
    return LabeledHMM(Alphabet.binary(), np.array([t0, t1]), name="even")


def sns() -> LabeledHMM:
    """Simple nondeterministic source: a 1 on every transition but one."""
    t0 = [[0.0, 0.0], [0.5, 0.0]]
    t1 = [[0.5, 0.5], [0.0, 0.5]]
    return LabeledHMM(Alphabet.binary(), np.array([t0, t1]), name="sns")


BUILTIN_SOURCES = {
    "golden_mean": golden_mean,
    "even": even_process,
    "sns": sns,
}


def _check_irreducible(T: np.ndarray) -> None:
    n = T.shape[0]
    reach = np.eye(n, dtype=bool) | (T > 0)
    for _ in range(n):
        reach = reach | (reach @ reach)
    if not reach.all():
        raise ValueError("state transition matrix is not irreducible")


def stationary(hmm: LabeledHMM) -> np.ndarray:
    """Unique stationary state distribution pi with pi T = pi.

    Solved directly as a linear system with one balance equation replaced
    by the normalization constraint.
    """
    T = hmm.transition_matrix
    _check_irreducible(T)
    n = hmm.n_states
    a = T.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    if np.any(pi < -1e-12) or np.max(np.abs(pi @ T - pi)) > 1e-10:
        raise ValueError("failed to find a valid stationary distribution")
    return np.clip(pi, 0.0, None)


def word_probability(hmm: LabeledHMM, word) -> float:
    """Stationary probability of an output word (indices or symbol string)."""
    if isinstance(word, str):
        word = [hmm.alphabet.index(c) for c in word]
    v = stationary(hmm)
    for s in word:
        v = v @ hmm.matrices[int(s)]
    return float(v.sum())


def word_distribution(hmm: LabeledHMM, length: int) -> np.ndarray:
    """Probabilities of all A**length words, indexed by word code."""
    if length < 0:
        raise ValueError("word length must be nonnegative")
    check_table_size(hmm.alphabet, length - 1)  # A**length entries
    vecs = stationary(hmm)[None, :]
    for _ in range(length):
        vecs = np.einsum("wi,sij->wsj", vecs, hmm.matrices).reshape(-1, hmm.n_states)
    return vecs.sum(axis=1)


def average_counts(hmm: LabeledHMM, N: float, k: int) -> CountTable:
    """Exact average count table n(word, symbol) = (N - k) p(word symbol).

    Counts are real-valued; they are deliberately not rounded to integers.
    """
    if not N > k:
        raise ValueError(f"data size N={N} must exceed order k={k}")
    A = hmm.alphabet.size
    p = word_distribution(hmm, k + 1).reshape(A**k, A)
    return CountTable(k, hmm.alphabet, (N - k) * p)


def true_entropy_rate(hmm: LabeledHMM) -> float:
    """Closed-form entropy rate for unifilar (deterministic) presentations.

    -sum_v pi(v) sum_s p(s|v) log2 p(s|v), with p(s|v) the row sums of the
    labeled matrices.  Refuses nondeterministic presentations, for which
    the closed form is invalid.
    """
    if not hmm.is_unifilar():
        raise NondeterministicProcessError(
            "entropy rate has no closed form for a nondeterministic presentation; "
            "for the builtin sns source use SNS_ENTROPY_RATE"
        )
    pi = stationary(hmm)
    p_sym = hmm.matrices.sum(axis=2).T  # (state, symbol)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p_sym > 0, p_sym * np.log2(np.where(p_sym > 0, p_sym, 1.0)), 0.0)
    return float(-np.sum(pi[:, None] * terms))


def markov_approximation(hmm: LabeledHMM, k: int) -> MarkovApproximation:
    """Best order-k Markov conditionals: p(s|word) = p(word s)/p(word).

    Zero-probability words get uniform conditionals and are excluded from
    the support mask.
    """
    A = hmm.alphabet.size
    joint = word_distribution(hmm, k + 1).reshape(A**k, A)
    wp = joint.sum(axis=1)
    support = wp > 0
    cond = np.full_like(joint, 1.0 / A)
    cond[support] = joint[support] / wp[support, None]
    return MarkovApproximation(k, wp, cond, support)


def sample_sequence(hmm: LabeledHMM, N: int, seed) -> SymbolSequence:
    """Sample a length-N realization, starting from the stationary state
    distribution.  Deterministic given the seed."""
    if N < 1:
        raise ValueError("sample length must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    A, n = hmm.alphabet.size, hmm.n_states
    # flat distribution over (symbol, next state) per current state
    step_probs = hmm.matrices.transpose(1, 0, 2).reshape(n, A * n)
    state = int(rng.choice(n, p=stationary(hmm)))
    out = np.empty(N, dtype=np.int64)
    for t in range(N):
        move = int(rng.choice(A * n, p=step_probs[state]))
        out[t] = move // n
        state = move % n
    return SymbolSequence(hmm.alphabet, out)


def load_hmm(source) -> LabeledHMM:
    """Build a LabeledHMM from a JSON file path or an already-parsed dict.

    Schema: {"alphabet": ["0", "1"], "matrices": {"0": [[...]], ...},
    "name": optional}.  Validation errors name the violated invariant.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    else:
        spec = source
    try:
        alphabet = Alphabet(tuple(spec["alphabet"]))
        raw = spec["matrices"]
    except KeyError as exc:
        raise ValueError(f"hmm description missing field {exc}") from None
    missing = [s for s in alphabet.symbols if s not in raw]
    if missing:
        raise ValueError(f"no transition matrix for symbols {missing}")
    mats = np.array([raw[s] for s in alphabet.symbols], dtype=float)
    return LabeledHMM(alphabet, mats, name=str(spec.get("name", "")))
