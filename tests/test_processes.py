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
    LabeledHMM,
    SNS_ENTROPY_RATE,
    average_counts,
    count_words,
    even_process,
    golden_mean,
    load_hmm,
    markov_approximation,
    sample_sequence,
    sns,
    stationary,
    true_entropy_rate,
    word_distribution,
    word_probability,
)
from bayesmc.core import TableTooLargeError
from bayesmc.processes import BUILTIN_SOURCES, SAMPLE_BLOCK, NondeterministicProcessError

from util import biased_chain, even_runs_ok

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

    def test_matches_empirical_frequencies(self):
        seq = sample_sequence(GM, 200_000, seed=5)
        emp = count_words(seq, 1).table / (200_000 - 1)
        avg = average_counts(GM, 200_000, 1).table / (200_000 - 1)
        np.testing.assert_allclose(emp, avg, atol=0.01)


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
        assert gaps[-1] >= SNS_ENTROPY_RATE - 1e-6
        assert gaps[-1] - SNS_ENTROPY_RATE < 0.002


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


def word_codes(seq, L, step=1):
    """Codes of seq's length-L words starting every `step` symbols, in
    word_distribution's order."""
    A = seq.alphabet.size
    windows = np.lib.stride_tricks.sliding_window_view(seq.data, L)[::step]
    return windows @ A ** np.arange(L - 1, -1, -1)


def assert_support(hmm, seq, L=3):
    p = word_distribution(hmm, L)
    assert np.all(p[word_codes(seq, L)] > 0)


class TestSamplerLaw:
    """The move-stream sampler against the exact word distribution."""

    B = SAMPLE_BLOCK

    @pytest.mark.parametrize("hmm,seed", [(GM, 11), (EVEN, 12), (SNS, 13), (THREE, 14)],
                             ids=lambda v: getattr(v, "name", None))
    def test_word_frequencies_chi_square(self, hmm, seed):
        # 200,000 symbols refill every state's 4096-move block several times.
        # Disjoint 3-words are counted, as overlapping windows share symbols
        # and their counts are not multinomial; cells of probability 0 must
        # be empty and are left out.
        seq = sample_sequence(hmm, 200_000, seed)
        assert_support(hmm, seq)
        p = word_distribution(hmm, 3)
        obs = np.bincount(word_codes(seq, 3, step=3), minlength=p.size)
        assert obs[p == 0].sum() == 0
        keep = p > 0
        assert chisquare(obs[keep], obs.sum() * p[keep]).pvalue > 1e-4

    @pytest.mark.parametrize("N", [1, B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("hmm", [EVEN, THREE], ids=lambda h: h.name)
    def test_lengths_around_the_block(self, hmm, N):
        seq = sample_sequence(hmm, N, seed=N)
        assert len(seq.data) == N
        assert set(np.unique(seq.data)) <= set(range(hmm.alphabet.size))
        if N >= 3:
            assert_support(hmm, seq)
        if hmm is EVEN:
            assert even_runs_ok(seq.to_string())

    @pytest.mark.parametrize("N", [1, B - 1, B + 1, 3 * B + 7])
    def test_draws_bounded(self, N):
        # at most N + n_states * min(N, B) moves, never n_states * N
        drawn = []

        class Counting(np.random.Generator):
            def choice(self, *args, size=None, **kw):
                drawn.append(1 if size is None else size)
                return super().choice(*args, size=size, **kw)

        sample_sequence(THREE, N, Counting(np.random.PCG64(0)))
        assert sum(drawn) - 1 <= N + THREE.n_states * min(N, self.B)

    def test_int_seed_equals_generator(self):
        for hmm in (SNS, THREE):
            a = sample_sequence(hmm, 3 * self.B + 7, 21)
            b = sample_sequence(hmm, 3 * self.B + 7, np.random.default_rng(21))
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
