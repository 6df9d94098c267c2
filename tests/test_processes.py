import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from bayesmc import (
    Alphabet,
    CountTable,
    HyperTable,
    LabeledHMM,
    SNS_ENTROPY_RATE,
    SymbolSequence,
    average_counts,
    count_words,
    even_process,
    free_params,
    golden_mean,
    load_hmm,
    markov_approximation,
    sample_sequence,
    sns,
    stationary,
    true_entropy_rate,
    uniform_hyper,
    word_distribution,
    word_probability,
    word_strings,
)
import bayesmc.processes
from bayesmc.core import InvalidSymbolError, TableTooLargeError, check_table_size
from bayesmc.entropy import WordConditional
from bayesmc.inference import infer_table
from bayesmc.processes import BUILTIN_SOURCES, NondeterministicProcessError, _block_length

from util import biased_chain, even_runs_ok, sns_rate_bracket

GM = golden_mean()
EVEN = even_process()
SNS = sns()


class TestConstruction:
    def test_row_stochastic_enforced(self):
        bad = np.array([[[0.5, 0.0], [0.0, 0.0]], [[0.6, 0.0], [1.0, 0.0]]])
        with pytest.raises(ValueError):
            LabeledHMM(Alphabet.binary(), bad)

    def test_negative_entries_rejected(self):
        bad = np.array([[[-0.5, 0.0], [0.0, 0.0]], [[1.5, 0.0], [1.0, 0.0]]])
        with pytest.raises(ValueError):
            LabeledHMM(Alphabet.binary(), bad)

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            LabeledHMM(Alphabet.binary(), np.zeros((2, 2, 3)))

    def test_unifilarity(self):
        assert GM.is_unifilar()
        assert EVEN.is_unifilar()
        assert not SNS.is_unifilar()

    def test_matrices_frozen(self):
        with pytest.raises(ValueError):
            GM.matrices[0, 0, 0] = 1.0
        assert not GM.matrices.flags.writeable and GM.matrices.flags.c_contiguous

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, value):
        mats = golden_mean().matrices.copy()
        mats[0, 1, 1] = value
        with pytest.raises(ValueError, match=f"entries must be finite, not {value}"):
            LabeledHMM(Alphabet.binary(), mats)


class TestStationary:
    def test_golden_mean(self):
        np.testing.assert_allclose(stationary(GM), [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_even(self):
        np.testing.assert_allclose(stationary(EVEN), [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_sns(self):
        pi = stationary(SNS)
        np.testing.assert_allclose(pi @ SNS.transition_matrix, pi, atol=1e-12)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_reducible_rejected(self):
        mats = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
        hmm = LabeledHMM(Alphabet.binary(), mats)
        with pytest.raises(ValueError):
            stationary(hmm)


class TestWordProbabilities:
    def test_golden_mean_short_words(self):
        assert word_probability(GM, "00") == pytest.approx(0.0, abs=1e-15)
        assert word_probability(GM, "0") == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert word_probability(GM, "1") == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert word_probability(GM, "01") == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert word_probability(GM, "11") == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_even_forbidden_words(self):
        # an odd block of 1s bounded by 0s never occurs
        assert word_probability(EVEN, "010") == pytest.approx(0.0, abs=1e-15)
        assert word_probability(EVEN, "01110") == pytest.approx(0.0, abs=1e-15)
        assert word_probability(EVEN, "0110") > 0

    def test_distribution_normalized(self):
        for hmm, L in itertools.product((GM, EVEN, SNS), (1, 3, 6)):
            assert word_distribution(hmm, L).sum() == pytest.approx(1.0, abs=1e-12)

    def test_distribution_matches_single_words(self):
        dist = word_distribution(GM, 3)
        for code in range(8):
            word = format(code, "03b")
            assert dist[code] == pytest.approx(word_probability(GM, word), abs=1e-13)

    def test_marginal_consistency(self):
        # summing out the last symbol of the length-4 distribution gives length 3
        d4 = word_distribution(EVEN, 4).reshape(8, 2).sum(axis=1)
        np.testing.assert_allclose(d4, word_distribution(EVEN, 3), atol=1e-13)

    def test_empty_word(self):
        assert word_probability(GM, "") == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("word", [[0, -1], [0, 5], np.array([2]), "0x"])
    def test_symbol_outside_alphabet(self, word):
        # read as a SymbolSequence: -1 is not the last symbol, nor 5 numpy's IndexError
        with pytest.raises(InvalidSymbolError):
            word_probability(GM, word)

    def test_table_cap(self):
        # 2**27 words: refused by the shared table cap before anything is built
        for build in (lambda: word_distribution(EVEN, 27), lambda: markov_approximation(EVEN, 26),
                      lambda: average_counts(EVEN, 1e9, 26)):
            with pytest.raises(TableTooLargeError):
                build()


class TestAverageCounts:
    def test_total_mass(self):
        ct = average_counts(GM, 1000, 2)
        assert ct.total == pytest.approx(998.0, abs=1e-9)

    def test_real_valued(self):
        ct = average_counts(GM, 10, 1)
        assert ct.table[0, 1] == pytest.approx(9.0 / 3.0, abs=1e-12)
        assert ct.table[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_requires_n_above_k(self):
        with pytest.raises(ValueError):
            average_counts(GM, 2, 2)

    @pytest.mark.parametrize("hmm, k", [(GM, 1), (EVEN, 3), (SNS, 6)])
    def test_grid_equals_lone_calls(self, hmm, k):
        grid = [k + 1, 100, 1001, 12_345, 2**40 + 1]
        stack = average_counts(hmm, grid, k)
        assert stack.order == k and stack.table.shape == (len(grid), 2**k, 2)
        lone = [average_counts(hmm, N, k).table for N in grid]
        assert ([v.hex() for v in stack.table.ravel().tolist()]
                == [v.hex() for t in lone for v in t.ravel().tolist()])
        integers = average_counts(hmm, np.array(grid), k)
        assert integers.table.tobytes() == stack.table.tobytes()

    @pytest.mark.parametrize("N, message", [
        ([100, 3, 200], r"data size N must be one integer >= 4, not 3"),
        ([float("nan")], r"data size N must be one integer >= 4, not nan"),
        (np.array([10, 20, 2]), r"data size N must be one integer >= 4, not 2"),
        ([[10, 20]], r"data size N must be one integer >= 4, not an array of shape \(2,\)"),
        (np.full((2, 2, 1), 100),
         r"data size N must be one integer >= 4, not an array of shape \(2, 1\)"),
        (np.array([10.0, 20.0]), r"data size N must be one integer >= 4, not 10\.0")])
    def test_grid_rejects_short_or_multidimensional(self, N, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            average_counts(EVEN, N, 3)

    def test_joint_kept_read_only(self):
        hmm = even_process()
        joint = hmm.joint(3)
        assert hmm.joint(3) is joint and joint.shape == (8, 2)
        assert not joint.flags.writeable
        with pytest.raises(ValueError):
            joint[0, 0] = 1.0
        assert joint.tobytes() == word_distribution(hmm, 4).tobytes()

    def test_joint_once_per_hmm_and_order(self, monkeypatch):
        calls, distribution = [], bayesmc.processes.word_distribution

        def counted(hmm, length):
            calls.append(length)
            return distribution(hmm, length)

        monkeypatch.setattr(bayesmc.processes, "word_distribution", counted)
        hmm = even_process()
        for _ in range(3):
            for k in (1, 2, 4):
                average_counts(hmm, [100, 200], k)
                markov_approximation(hmm, k)
        assert calls == [2, 3, 5]
        average_counts(even_process(), 100, 1)  # another hmm computes its own
        assert calls == [2, 3, 5, 2]

    def test_matches_empirical_frequencies(self):
        seq = sample_sequence(GM, 200_000, seed=5)
        emp = count_words(seq, 1).table / (200_000 - 1)
        avg = average_counts(GM, 200_000, 1).table / (200_000 - 1)
        np.testing.assert_allclose(emp, avg, atol=0.01)


#: One count table and prior for infer_table's grid-point cases.
INFER_PAIR = (average_counts(GM, 100, 1), uniform_hyper(1, GM.alphabet))

#: core's integer rule where count_words, uniform_hyper, the table types, word_strings and
#: check_table_size take an order and free_params an order and an alphabet size: (call,
#: message) for values that are not one integer in range.  A table or word_strings takes
#: order 0, as average_counts(hmm, N, 0) builds it, and check_table_size word_distribution's
#: length - 1, -1 for the empty word.
CORE_INTEGER_CASES = [
    (lambda f=f, value=value: f(value), rf"{name} must be one integer >= {least}, not {shown}")
    for f, name, least in (
        (lambda k: count_words(SymbolSequence.from_string("0110", GM.alphabet), k), "order k", 1),
        (lambda k: uniform_hyper(k, GM.alphabet), "order k", 1),
        (lambda k: free_params(k, 2), "order k", 1),
        (lambda size: free_params(1, size), "alphabet size", 2),
        (lambda k: CountTable(k, GM.alphabet, np.ones((4, 2))), "order k", 0),
        (lambda k: HyperTable(k, GM.alphabet, np.ones((4, 2))), "order k", 0),
        (lambda k: word_strings(k, GM.alphabet), "order k", 0),
        (lambda k: check_table_size(GM.alphabet, k), "order k", -1))
    for value, shown in ((1.5, r"1\.5"), (2.0, r"2\.0"), (2.5, r"2\.5"),
                         (min(0, least - 1), str(min(0, least - 1))),
                         (np.array([1, 2]), r"an array of shape \(2,\)"))]


class TestIntegerArguments:
    """A length, order or alphabet size that is not one integer in range raises a one-line
    ValueError naming the argument (core's one integer rule), not numpy's or Python's own
    TypeError or ambiguity error, nor a value."""

    @pytest.mark.parametrize("call, message", [
        (lambda: sample_sequence(GM, np.array([5, 6]), 1),
         r"sample length N must be one integer >= 1, not an array of shape \(2,\)"),
        (lambda: sample_sequence(GM, 5.0, 1),
         r"sample length N must be one integer >= 1, not 5\.0"),
        (lambda: sample_sequence(GM, 0, 1), r"sample length N must be one integer >= 1, not 0"),
        (lambda: markov_approximation(GM, -1), r"order k must be one integer >= 0, not -1"),
        (lambda: average_counts(GM, 100, -1), r"order k must be one integer >= 0, not -1"),
        (lambda: average_counts(GM, 100, 1.0), r"order k must be one integer >= 0, not 1\.0"),
        (lambda: word_distribution(GM, 2.5), r"word length must be one integer >= 0, not 2\.5"),
        (lambda: word_distribution(GM, -1), r"word length must be one integer >= 0, not -1"),
        *CORE_INTEGER_CASES,
        (lambda: average_counts(GM, 150.5, 1), r"data size N must be one integer >= 2, not 150\.5"),
        (lambda: infer_table(*INFER_PAIR, 0.95, 2.5), r"points must be one integer >= 2, not 2\.5"),
        (lambda: infer_table(*INFER_PAIR, 0.95, 3.0), r"points must be one integer >= 2, not 3\.0"),
        (lambda: WordConditional(1.5, GM.alphabet, np.full(2, 0.5), np.full((2, 2), 0.5)),
         r"order k must be one integer >= 0, not 1\.5"),
        (lambda: WordConditional(-1, GM.alphabet, np.full(2, 0.5), np.full((2, 2), 0.5)),
         r"order k must be one integer >= 0, not -1")])
    def test_one_line_error_naming_the_argument(self, call, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            call()

    def test_numpy_integers_accepted(self):
        assert sample_sequence(GM, np.int64(5), 1).data.tolist() == sample_sequence(
            GM, 5, 1).data.tolist()
        assert average_counts(GM, 100, np.int32(2)).table.shape == (4, 2)
        assert markov_approximation(GM, np.int64(0)).cond_probs.shape == (1, 2)
        seq = SymbolSequence.from_string("0110", GM.alphabet)
        assert count_words(seq, np.int64(1)).table.tolist() == count_words(seq, 1).table.tolist()
        assert uniform_hyper(np.int32(2), GM.alphabet).table.shape == (4, 2)
        assert free_params(np.int64(2), np.int32(3)) == 18
        assert CountTable(np.int64(2), GM.alphabet, np.ones((4, 2))).order == 2
        assert HyperTable(np.int32(2), GM.alphabet, np.ones((4, 2))).order == 2
        assert average_counts(GM, 100, np.int64(0)).table.shape == (1, 2)
        assert word_strings(np.int64(2), GM.alphabet) == ["00", "01", "10", "11"]
        check_table_size(GM.alphabet, np.int64(-1))


class TestEntropyRates:
    def test_golden_mean(self):
        assert true_entropy_rate(GM) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_even(self):
        assert true_entropy_rate(EVEN) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_fair_coin(self):
        coin = LabeledHMM(Alphabet.binary(), np.array([[[0.5]], [[0.5]]]))
        assert true_entropy_rate(coin) == pytest.approx(1.0, abs=1e-12)

    def test_biased_chain_closed_form(self):
        chain = biased_chain(0.7, 0.4)
        pi = stationary(chain)
        h = lambda p: -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        ref = pi[0] * h(0.7) + pi[1] * h(0.4)
        assert true_entropy_rate(chain) == pytest.approx(ref, abs=1e-12)

    def test_sns_refuses_closed_form(self):
        with pytest.raises(NondeterministicProcessError):
            true_entropy_rate(SNS)

    def test_sns_constant_bracketed_by_block_entropies(self):
        # h(L) = H(L+1) - H(L) decreases to the entropy rate from above
        def block_entropy(L):
            p = word_distribution(SNS, L)
            p = p[p > 0]
            return float(-(p * np.log2(p)).sum())

        gaps = [block_entropy(L + 1) - block_entropy(L) for L in (8, 12, 15)]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] >= SNS_ENTROPY_RATE - 1e-12
        assert gaps[-1] - SNS_ENTROPY_RATE < 0.002

    def test_sns_constant_inside_belief_bracket(self):
        # the bracket over exact forward beliefs closes to 1.7e-22 at L = 60: the constant
        # is its nearest float
        lower, upper = sns_rate_bracket(60)
        assert upper - lower < 1e-20
        assert lower - 1e-15 <= SNS_ENTROPY_RATE <= upper + 1e-15


class TestMarkovApproximation:
    def test_golden_mean_k1_exact(self):
        approx = markov_approximation(GM, 1)
        np.testing.assert_allclose(approx.cond_probs[0], [0.0, 1.0], atol=1e-13)
        np.testing.assert_allclose(approx.cond_probs[1], [0.5, 0.5], atol=1e-13)
        assert (approx.word_probs > 0).all()

    def test_golden_mean_all_orders_agree(self):
        # a first-order chain: higher-order conditionals depend only on the
        # last symbol wherever the word has positive probability
        a3 = markov_approximation(GM, 3)
        for code in np.nonzero(a3.word_probs > 0)[0]:
            last = code % 2
            np.testing.assert_allclose(
                a3.cond_probs[code],
                markov_approximation(GM, 1).cond_probs[last],
                atol=1e-12,
            )

    def test_even_k3_support(self):
        a3 = markov_approximation(EVEN, 3)
        assert a3.word_probs[0b010] == 0.0  # odd 1-block
        assert a3.word_probs[0b011] > 0.0
        np.testing.assert_allclose(a3.cond_probs[0b010], 0.5)  # placeholder rows

    def test_rates_decrease_toward_truth(self):
        from bayesmc import hmu_of

        hs = [hmu_of(markov_approximation(EVEN, k)) for k in (1, 2, 4, 6)]
        assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))
        assert hs[-1] >= 2.0 / 3.0 - 1e-12


class TestSampling:
    def test_length_and_determinism(self):
        s1 = sample_sequence(GM, 500, seed=9)
        s2 = sample_sequence(GM, 500, seed=9)
        assert len(s1.data) == 500
        np.testing.assert_array_equal(s1.data, s2.data)
        assert not np.array_equal(s1.data, sample_sequence(GM, 500, seed=10).data)

    def test_golden_mean_never_emits_00(self):
        text = sample_sequence(GM, 20_000, seed=1).to_string()
        assert "00" not in text

    def test_even_interior_one_blocks_even(self):
        text = sample_sequence(EVEN, 20_000, seed=2).to_string()
        assert even_runs_ok(text)

    def test_symbol_frequencies(self):
        text = sample_sequence(SNS, 100_000, seed=3).to_string()
        p1 = text.count("1") / len(text)
        assert p1 == pytest.approx(word_probability(SNS, "1"), abs=0.01)

    @given(st.integers(0, 2**31), st.sampled_from(["golden_mean", "even", "sns"]))
    @settings(max_examples=15, deadline=None)
    def test_valid_symbols(self, seed, name):
        # every sampled 3-word is possible, which a symbol-range check alone
        # misses (a swapped // n and % n still emits only 0s and 1s)
        hmm = BUILTIN_SOURCES[name]()
        seq = sample_sequence(hmm, 64, seed)
        assert set(np.unique(seq.data)) <= {0, 1}
        assert_support(hmm, seq)


#: Nonunifilar 3-state source over {a, b, c}: from state 0, a goes to 0 or
#: 1; from state 1, c goes to 1 or 2.  The word bbb is forbidden.
THREE = LabeledHMM(Alphabet(("a", "b", "c")), np.array([
    [[0.3, 0.2, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.25]],   # a
    [[0.0, 0.0, 0.5], [0.4, 0.0, 0.0], [0.0, 0.0, 0.0]],    # b
    [[0.0, 0.0, 0.0], [0.0, 0.1, 0.5], [0.75, 0.0, 0.0]],   # c
]), name="three")


def _random_source(n, A, seed):
    """Seeded random n-state source over A symbols: each state has two moves
    to random (symbol, next state) pairs and the symbol-0 step along the
    cycle s -> s + 1, which makes it irreducible, with weights in [1, 2)."""
    rng = np.random.default_rng(seed)
    mats = np.zeros((A, n, n))
    for s in range(n):
        mats[rng.integers(A, size=2), s, rng.integers(n, size=2)] = 1.0 + rng.random(2)
        mats[0, s, (s + 1) % n] += 1.0
    mats /= mats.sum(axis=(0, 2))[None, :, None]
    return LabeledHMM(Alphabet(tuple("abcdefgh"[:A])), mats, name=f"random{n}")


#: 22 of its 25 2-words and 86 of its 125 3-words are possible, and each of
#: those has an expected count of at least 30 in the chi-square tests below.
RANDOM16 = _random_source(16, 5, seed=16)

#: 3 states on a cycle that stay (symbols a, b, c, naming the state) with
#: probability 0.4 or step forward (d, e, f) with 0.6.  Every state's row
#: puts its stay first, so one uniform moves all states by the same
#: rotation: walks from different states never meet, and every wrong guess
#: of a block's start re-walks the whole block.
ROTATION = LabeledHMM(Alphabet(tuple("abcdef")), np.array([
    np.diag([0.4] * 3) * (np.arange(3)[:, None] == sym) if sym < 3 else
    0.6 * np.roll(np.eye(3), 1, axis=1) * (np.arange(3)[:, None] == sym - 3)
    for sym in range(6)]), name="rotation")

#: The deterministic cycle a -> b -> c, also never meeting.
CYCLE = LabeledHMM(Alphabet(("a", "b", "c")), np.array([
    np.roll(np.eye(3), 1, axis=1) * (np.arange(3)[:, None] == sym) for sym in range(3)]),
    name="cycle")


def word_codes(seq, L, step=1):
    """Codes of seq's length-L words starting every `step` symbols, in
    word_distribution's order."""
    A = seq.alphabet.size
    windows = np.lib.stride_tricks.sliding_window_view(seq.data, L)[::step]
    return windows @ A ** np.arange(L - 1, -1, -1)


def assert_support(hmm, seq, L=3):
    p = word_distribution(hmm, L)
    assert np.all(p[word_codes(seq, L)] > 0)


def assert_frequencies(hmm, codes, L):
    """`codes` of independent length-L words follow word_distribution: cells
    of probability 0 are empty, and a chi-square test of the others passes."""
    p = word_distribution(hmm, L)
    obs = np.bincount(codes, minlength=p.size)
    assert obs[p == 0].sum() == 0
    keep = p > 0
    assert chisquare(obs[keep], obs.sum() * p[keep]).pvalue > 1e-4


def sequential_walk(hmm, N, seed):
    """The walk that sample_sequence splices from its blocks, one step at a
    time: the start drawn by rng.choice from the stationary distribution, then
    at each step rng.choice's search of the current state's cumulative row at
    that step's uniform, step t of block g taking uniform [t, g] of one
    (B, G) draw.  (The sampler floors the uniforms to a grid of 2**-49 or
    finer for these sources, which changes a step only for a uniform that
    close to a bound.)"""
    rng = np.random.default_rng(seed)
    A, n = hmm.alphabet.size, hmm.n_states
    state = int(rng.choice(n, p=stationary(hmm)))
    B = _block_length(N)
    uniforms = rng.random((B, -(-N // B))).T.ravel()[:N]
    cdf = np.cumsum(hmm.matrices.transpose(1, 0, 2).reshape(n, A * n), axis=1)
    cdf /= cdf[:, -1:]
    out = []
    for u in uniforms:
        move = int(np.searchsorted(cdf[state], u, side="right"))
        out.append(move // n)
        state = move % n
    return np.array(out)


SOURCES = [GM, EVEN, SNS, THREE, RANDOM16, ROTATION]


class TestSamplerLaw:
    """The block sampler against the exact word distribution and against the
    sequential walk it splices."""

    @pytest.mark.parametrize("hmm,seed", [(GM, 11), (EVEN, 12), (SNS, 13), (THREE, 14),
                                          (RANDOM16, 15), (ROTATION, 16)],
                             ids=lambda v: getattr(v, "name", None))
    def test_word_frequencies_chi_square(self, hmm, seed):
        # 200,000 symbols in 897 blocks of 223.  Disjoint 3-words are
        # counted, as overlapping windows share symbols and their counts are
        # not multinomial.
        seq = sample_sequence(hmm, 200_000, seed)
        assert_support(hmm, seq)
        assert_frequencies(hmm, word_codes(seq, 3, step=3), 3)

    @pytest.mark.parametrize("hmm", SOURCES, ids=lambda h: h.name)
    def test_pairs_across_block_joins_chi_square(self, hmm):
        # the pair of symbols on each side of every join between two blocks,
        # where walks are spliced; joins 223 symbols apart are about
        # independent, and four samples give 3,584 pairs
        N = 200_000
        B = _block_length(N)
        codes = [word_codes(sample_sequence(hmm, N, seed), 2)[B - 1::B]
                 for seed in (21, 22, 23, 24)]
        assert_frequencies(hmm, np.concatenate(codes), 2)

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 17, 1000, 4095, 4097])
    @pytest.mark.parametrize("hmm", SOURCES + [CYCLE], ids=lambda h: h.name)
    def test_spliced_walk_is_the_sequential_walk(self, hmm, N):
        # N = 17 and 4097 end in a one-step block, 4095 in a three-step one
        np.testing.assert_array_equal(sample_sequence(hmm, N, N).data,
                                      sequential_walk(hmm, N, N))

    @pytest.mark.parametrize("N", [1, 2, 3, 15, 16, 17, 4095, 4096, 4097, 12295])
    @pytest.mark.parametrize("hmm", [EVEN, THREE, ROTATION, CYCLE], ids=lambda h: h.name)
    def test_lengths_around_the_block(self, hmm, N):
        # B = 1 up to N = 15; N = 16 is 8 blocks of 2 and N = 17 adds a block
        # of 1; 4095 is 133 blocks of 31, the last of 3 steps, 4096 is 128
        # blocks of 32 and 4097 adds a block of 1; 12,295 ends in 30 of 55
        seq = sample_sequence(hmm, N, seed=N)
        assert len(seq.data) == N
        assert set(np.unique(seq.data)) <= set(range(hmm.alphabet.size))
        if N >= 3:
            assert_support(hmm, seq)
        if hmm is EVEN:
            assert even_runs_ok(seq.to_string())

    @pytest.mark.parametrize("N", [1, 2, 17, 4095, 4097, 10_001, 12295])
    def test_draws_bounded(self, N):
        # one start choice, which draws one uniform, and one uniform per step
        # of ceil(N / B) blocks: at most N + B - 1, which 17, 4097 and
        # 10,001 (201 blocks of 50) reach
        starts, uniforms = [], []

        class Counting(np.random.Generator):
            def choice(self, *args, size=None, **kw):
                starts.append(size)
                return super().choice(*args, size=size, **kw)

            def random(self, *args, **kw):
                out = super().random(*args, **kw)
                uniforms.append(np.size(out))
                return out

        sample_sequence(THREE, N, Counting(np.random.PCG64(0)))
        assert starts == [None]
        assert sum(uniforms) <= 1 + N + _block_length(N) - 1

    def test_int_seed_equals_generator(self):
        for hmm in (SNS, THREE):
            a = sample_sequence(hmm, 10_007, 21)
            b = sample_sequence(hmm, 10_007, np.random.default_rng(21))
            np.testing.assert_array_equal(a.data, b.data)


class TestLoadHmm:
    def test_round_trip(self, tmp_path):
        spec = {
            "alphabet": ["0", "1"],
            "matrices": {
                "0": [[0.0, 0.5], [0.0, 0.0]],
                "1": [[0.5, 0.0], [1.0, 0.0]],
            },
            "name": "gm-copy",
        }
        path = tmp_path / "hmm.json"
        path.write_text(json.dumps(spec))
        hmm = load_hmm(path)
        assert hmm.name == "gm-copy"
        np.testing.assert_array_equal(hmm.matrices, GM.matrices)

    def test_dict_input(self):
        hmm = load_hmm({
            "alphabet": ["a", "b"],
            "matrices": {"a": [[0.5]], "b": [[0.5]]},
        })
        assert hmm.alphabet.symbols == ("a", "b")

    def test_missing_matrix(self):
        with pytest.raises(ValueError):
            load_hmm({"alphabet": ["0", "1"], "matrices": {"0": [[1.0]]}})

    def test_missing_field(self):
        with pytest.raises(ValueError):
            load_hmm({"alphabet": ["0", "1"]})

    @pytest.mark.parametrize("spec, message", [
        ([1, 2], "hmm description must be a JSON object, not list"),
        ("just a string", "hmm description must be a JSON object, not str"),
        ({"alphabet": 5, "matrices": {}},
         "hmm field 'alphabet' must be a string or a list of strings, not 5"),
        ({"alphabet": [["0"], "1"], "matrices": {}},
         "hmm field 'alphabet' must be a string or a list of strings"),
        ({"alphabet": ["0", "1"], "matrices": [[[1.0]], [[0.0]]]},
         "hmm field 'matrices' must map each symbol to its matrix, not list"),
        ({"alphabet": ["0", "1"], "matrices": {"0": [[0.5], [0.5, 0.0]], "1": [[0.5]]}},
         "hmm field 'matrices' must hold one square matrix of numbers per symbol"),
    ])
    def test_malformed_description(self, spec, message, tmp_path):
        path = tmp_path / "hmm.json"  # as a file, since a str argument is a path
        path.write_text(json.dumps(spec))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_hmm(path)

    def test_string_alphabet(self):
        hmm = load_hmm({"alphabet": "01", "matrices": {"0": [[0.0, 0.5], [0.0, 0.0]],
                                                         "1": [[0.5, 0.0], [1.0, 0.0]]}})
        assert hmm.alphabet.symbols == ("0", "1")
        np.testing.assert_array_equal(hmm.matrices, GM.matrices)
