"""Reference data sources as hidden-state processes with labeled
transition matrices.

Each process is defined by one nonnegative matrix T^(s) per symbol; the
sum T over symbols must be row-stochastic.  Exact word probabilities are
pi . T^(s_0) ... T^(s_L-1) . 1 with pi the stationary state distribution,
which supplies exact average count tables for any data size N and order k.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Alphabet, CountTable, SymbolSequence, _check_integer, _frozen, check_table_size
from .entropy import WordConditional, _rate_bits

#: Entropy rate of the simple nondeterministic source, bits/symbol.  Its minimal
#: presentation is nondeterministic, so the closed form below does not apply; this is
#: the value that the bracket H(X_L | X^(L-1), S_0) <= h <= H(X_L | X^(L-1)) over the
#: source's forward beliefs closes on (its bounds agree to 20 digits at L = 60).
SNS_ENTROPY_RATE = 0.6778671810551529

_ROW_SUM_TOL = 1e-12


class NondeterministicProcessError(ValueError):
    """Closed-form entropy rate requested for a nondeterministic process."""


@dataclass(frozen=True, eq=False)
class LabeledHMM:
    """Hidden-state process with one labeled transition matrix per symbol."""

    alphabet: Alphabet
    matrices: np.ndarray = field(repr=False)  # (A, n_states, n_states)
    name: str = ""
    _joints: dict = field(default_factory=dict, init=False, repr=False)  # order k -> joint(k)

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

    @functools.cached_property
    def stationary(self) -> np.ndarray:
        """Unique stationary state distribution pi with pi T = pi, solved once
        and read-only.

        Solved directly as a linear system with one balance equation replaced
        by the normalization constraint.
        """
        T = self.transition_matrix
        _check_irreducible(T)
        n = self.n_states
        a = T.T - np.eye(n)
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        pi = np.linalg.solve(a, b)
        if np.any(pi < -1e-12) or np.max(np.abs(pi @ T - pi)) > 1e-10:
            raise ValueError("failed to find a valid stationary distribution")
        pi = np.clip(pi, 0.0, None)
        pi.flags.writeable = False
        return pi

    def joint(self, k: int) -> np.ndarray:
        """The (A**k, A) joint p(word, symbol) of order k, from one word_distribution
        call per order, kept on the hmm and read-only."""
        _check_integer(k, "order k", 0)
        if k not in self._joints:
            A = self.alphabet.size
            joint = word_distribution(self, k + 1).reshape(A**k, A)
            joint.flags.writeable = False  # fresh, so no other view can write it
            self._joints[k] = joint
        return self._joints[k]

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
    """Unique stationary state distribution pi with pi T = pi, read-only and
    solved once per hmm (`LabeledHMM.stationary`)."""
    return hmm.stationary


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
    _check_integer(length, "word length", 0)
    check_table_size(hmm.alphabet, length - 1)  # A**length entries
    vecs = stationary(hmm)[None, :]
    for _ in range(length):
        vecs = np.einsum("wi,sij->wsj", vecs, hmm.matrices).reshape(-1, hmm.n_states)
    return vecs.sum(axis=1)


def average_counts(hmm: LabeledHMM, N, k: int) -> CountTable:
    """Exact average count table n(word, symbol) = (N - k) p(word symbol).  A 1-D grid
    of data sizes N gives the (G, A**k, A) stack of their tables, each the lone call's
    bit for bit.

    Counts are real-valued; they are deliberately not rounded to integers.
    """
    sizes = np.asarray(N, dtype=float)
    if sizes.ndim > 1:
        raise ValueError(f"average_counts takes a data size N or a 1-D grid of them, "
                         f"not shape {sizes.shape}")
    if not np.all(sizes > k):  # a NaN N included
        short = np.ravel(N)[~(sizes.ravel() > k)]
        raise ValueError(f"data size N={short[0]} must exceed order k={k}")
    table = (sizes[..., None, None] - k) * hmm.joint(k)
    table.flags.writeable = False  # fresh, so _frozen need not copy it
    return CountTable(k, hmm.alphabet, table)


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
    """Best order-k Markov conditionals: p(s|word) = p(word s)/p(word), from the hmm's
    joint of order k.

    Zero-probability words (word_probs == 0) get uniform conditionals.
    """
    joint = hmm.joint(k)
    wp = joint.sum(axis=1)
    support = wp > 0
    cond = np.full_like(joint, 1.0 / hmm.alphabet.size)
    cond[support] = joint[support] / wp[support, None]
    for fresh in (wp, cond):
        fresh.flags.writeable = False  # fresh, so _frozen need not copy it
    return WordConditional(k, hmm.alphabet, wp, cond)


def _block_length(N: int) -> int:
    """Steps per block of `sample_sequence`'s walk of N steps: about sqrt(N) / 2,
    which balances the lockstep walk's per-step numpy calls against the pass
    over the blocks."""
    return max(1, math.isqrt(N // 4))


def sample_sequence(hmm: LabeledHMM, N: int, seed) -> SymbolSequence:
    """Sample a length-N realization, starting from the stationary state
    distribution.  Deterministic given the seed.

    Each step draws one uniform and takes the move, coded symbol * n_states +
    next state, at which the current state's cumulative row over moves first
    exceeds it, as rng.choice does.  The N steps are split into blocks of
    B = isqrt(N / 4) steps, walked together in numpy lockstep: the first from
    the drawn start, every other one from the most probable state.  One pass
    over the blocks then re-walks each block whose true start, the end of the
    block before, differs from that guess, with the same uniforms, until it
    is in the speculative walk's state: from there on the two walks take the
    same moves.  The sample is the sequential walk over those uniforms, so it
    has exactly the chain's law.  At most N + B - 1 uniforms are drawn, and
    one for the start.
    """
    _check_integer(N, "sample length N", 1)
    rng = np.random.default_rng(seed)
    A, n = hmm.alphabet.size, hmm.n_states
    pi = stationary(hmm)
    start = int(rng.choice(n, p=pi))
    # Uniforms are floored to a grid of 1 / scale, and a walk in state s looks
    # u up as s * scale + u * scale among every state's cumulative rows, each
    # scaled and offset by its state's s * scale: all exact floats, as
    # n * scale <= 2**53.
    scale = 2.0 ** (53 - (n - 1).bit_length())
    cdf = np.cumsum(hmm.matrices.transpose(1, 0, 2).reshape(n, A * n), axis=1)
    cdf /= cdf[:, -1:]
    bounds = (np.ceil(cdf * scale) + scale * np.arange(n)[:, None]).ravel()
    flat = np.arange(bounds.size)  # the moves (state, symbol, next state), flat
    after = flat % n  # the state each move enters
    offset = after * scale
    block = _block_length(N)
    blocks = -(-N // block)
    keys = rng.random((block, blocks))  # keys[t, g]: step t of block g
    keys *= scale
    np.floor(keys, out=keys)
    guess = int(np.argmax(pi))
    lanes = np.full(blocks, guess * scale)
    lanes[0] = start * scale
    moves = np.empty((blocks, block), dtype=np.intp)  # in sequence order
    for t in range(block):
        moves[:, t] = step = bounds.searchsorted(keys[t] + lanes, side="right")
        lanes = offset[step]
    ends = after[moves[:, -1]].tolist()
    bounds, after = bounds.tolist(), after.tolist()
    state = ends[0]
    for g in range(1, blocks):
        walk, spec, t = state, guess, 0
        while walk != spec and t < block:
            stop = min(block, 2 * t + 16)  # as lists, in chunks doubling in length
            rewalked = []
            for spec_move, key in zip(moves[g, t:stop].tolist(), keys[t:stop, g].tolist()):
                if walk == spec:
                    break
                spec = after[spec_move]
                move = bisect.bisect_right(bounds, walk * scale + key)
                rewalked.append(move)
                walk = after[move]
            moves[g, t:t + len(rewalked)] = rewalked
            t += len(rewalked)
        state = ends[g] if walk == spec else walk
    del keys
    symbols = (flat // n % A)[moves.reshape(-1)[:N]]
    symbols.flags.writeable = False  # fresh, so SymbolSequence need not copy it
    return SymbolSequence(hmm.alphabet, symbols)


def load_hmm(source) -> LabeledHMM:
    """Build a LabeledHMM from a JSON file path or an already-parsed dict.

    Schema: {"alphabet": ["0", "1"], "matrices": {"0": [[...]], ...},
    "name": optional}.  Validation errors name the violated invariant.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        import json  # here, so that importing the package does not load it
        with open(source, "r", encoding="utf-8-sig") as fh:  # drops a leading byte-order mark
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
