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

from .core import Alphabet, CountTable, SymbolSequence, _frozen, check_table_size
from .entropy import WordConditional, _rate_bits

#: Reference entropy rate of the simple nondeterministic source, bits/symbol.
#: Its minimal presentation is nondeterministic, so the closed form below
#: does not apply; this constant is used as ground truth instead.
SNS_ENTROPY_RATE = 0.677867

_ROW_SUM_TOL = 1e-12


class NondeterministicProcessError(ValueError):
    """Closed-form entropy rate requested for a nondeterministic process."""


@dataclass(frozen=True, eq=False)
class LabeledHMM:
    """Hidden-state process with one labeled transition matrix per symbol."""

    alphabet: Alphabet
    matrices: np.ndarray = field(repr=False)  # (A, n_states, n_states)
    name: str = ""

    def __post_init__(self):
        m = _frozen(self.matrices)
        if m.ndim != 3 or m.shape[0] != self.alphabet.size or m.shape[1] != m.shape[2]:
            raise ValueError("matrices must have shape (alphabet size, n, n)")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"labeled transition matrix entries must be finite, "
                             f"not {m[~np.isfinite(m)][0]}")
        if np.any(m < 0):
            raise ValueError("labeled transition matrices must be nonnegative")
        rows = m.sum(axis=0).sum(axis=1)
        if np.any(np.abs(rows - 1.0) > _ROW_SUM_TOL):
            raise ValueError(
                f"state-to-state matrix must be row-stochastic; row sums {rows}"
            )
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
    return _rate_bits(stationary(hmm), hmm.matrices.sum(axis=2))  # p(s|v) as (symbol, state)


def markov_approximation(hmm: LabeledHMM, k: int) -> WordConditional:
    """Best order-k Markov conditionals: p(s|word) = p(word s)/p(word).

    Zero-probability words (word_probs == 0) get uniform conditionals.
    """
    A = hmm.alphabet.size
    joint = word_distribution(hmm, k + 1).reshape(A**k, A)
    wp = joint.sum(axis=1)
    support = wp > 0
    cond = np.full_like(joint, 1.0 / A)
    cond[support] = joint[support] / wp[support, None]
    return WordConditional(k, hmm.alphabet, wp, cond)


#: Moves drawn per state at a time by `sample_sequence`.
SAMPLE_BLOCK = 4096


def sample_sequence(hmm: LabeledHMM, N: int, seed) -> SymbolSequence:
    """Sample a length-N realization, starting from the stationary state
    distribution.  Deterministic given the seed.

    Each state's moves, coded symbol * n_states + next state, are drawn in
    advance in blocks of min(N, SAMPLE_BLOCK), and the walk takes the next
    unread move of its current state, drawing that state's next block when
    one runs out.  The moves out of a state are i.i.d. from its row and
    independent of when the walk visits it, so the sequence has exactly the
    chain's law.  At most N + n_states * block moves are drawn.
    """
    if N < 1:
        raise ValueError("sample length must be >= 1")
    rng = np.random.default_rng(seed)
    A, n = hmm.alphabet.size, hmm.n_states
    # flat distribution over (symbol, next state) per current state
    step_probs = hmm.matrices.transpose(1, 0, 2).reshape(n, A * n)
    state = int(rng.choice(n, p=stationary(hmm)))
    block = min(N, SAMPLE_BLOCK)
    streams = [rng.choice(A * n, size=block, p=p).tolist() for p in step_probs]
    read = [0] * n
    moves = [0] * N
    for t in range(N):
        i = read[state]
        if i == block:
            streams[state] = rng.choice(A * n, size=block, p=step_probs[state]).tolist()
            i = 0
        move = streams[state][i]
        read[state] = i + 1
        moves[t] = move
        state = move % n
    return SymbolSequence(hmm.alphabet, np.array(moves, dtype=np.int64) // n)


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
    if not isinstance(spec, dict):
        raise ValueError(f"hmm description must be a JSON object, not {type(spec).__name__}")
    try:
        symbols, raw = spec["alphabet"], spec["matrices"]
    except KeyError as exc:
        raise ValueError(f"hmm description missing field {exc}") from None
    if not (isinstance(symbols, str)
            or isinstance(symbols, list) and all(isinstance(s, str) for s in symbols)):
        raise ValueError(f"hmm field 'alphabet' must be a string or a list of strings, "
                         f"not {symbols!r}")
    if not isinstance(raw, dict):
        raise ValueError(f"hmm field 'matrices' must map each symbol to its matrix, "
                         f"not {type(raw).__name__}")
    alphabet = Alphabet(tuple(symbols))
    missing = [s for s in alphabet.symbols if s not in raw]
    if missing:
        raise ValueError(f"no transition matrix for symbols {missing}")
    try:
        mats = np.array([raw[s] for s in alphabet.symbols], dtype=float)
    except (TypeError, ValueError):
        raise ValueError("hmm field 'matrices' must hold one square matrix of numbers "
                         "per symbol") from None
    return LabeledHMM(alphabet, mats, name=str(spec.get("name", "")))
