import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesmc import (
    Alphabet,
    BetaParams,
    CountTable,
    HyperTable,
    SymbolSequence,
    confidence_region,
    count_words,
    even_process,
    golden_mean,
    log_evidence,
    log_gamma_diff,
    log_predictive,
    marginal,
    posterior,
    posterior_mean,
    posterior_variance,
    reg_inc_beta,
    sample_posterior,
    uniform_hyper,
)
from bayesmc import average_counts
import bayesmc.inference
import bayesmc.special
from bayesmc.core import ShapeMismatchError, hyper_from_fake_counts
from bayesmc.inference import density_grid, infer_table, region_mass

from util import quad_evidence_binary, quad_evidence_binary_k1_tensor, random_tables

BINARY = Alphabet.binary()
FLAT1 = uniform_hyper(1, BINARY, 1.0)


def table(rows, k=1, alphabet=BINARY):
    return CountTable(k, alphabet, np.asarray(rows, dtype=float))


count_tables = st.integers(0, 8).flatmap(
    lambda seed: st.lists(st.integers(0, 12), min_size=4, max_size=4).map(
        lambda v: table(np.array(v, dtype=float).reshape(2, 2))
    )
)


class TestPosterior:
    def test_zero_counts_gives_prior(self):
        post = posterior(table([[0, 0], [0, 0]]), FLAT1)
        np.testing.assert_array_equal(post.table, FLAT1.table)

    def test_single_count(self):
        post = posterior(table([[0, 1], [0, 0]]), FLAT1)
        np.testing.assert_array_equal(post.table, [[1, 2], [1, 1]])

    def test_forbidden_word_keeps_prior_mass(self):
        counts = average_counts(golden_mean(), 100, 1)
        post = posterior(counts, FLAT1)
        assert post.table[0, 0] == 1.0  # word 00 never occurs

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            posterior(table([[0, 0], [0, 0]]), uniform_hyper(2, BINARY))


class TestPointSummaries:
    def test_prior_mean_is_uniform(self):
        post = posterior(table([[0, 0], [0, 0]]), FLAT1)
        np.testing.assert_allclose(posterior_mean(post), 0.5)

    def test_mean_single_count(self):
        post = posterior(table([[0, 1], [0, 0]]), FLAT1)
        assert posterior_mean(post)[0, 1] == pytest.approx(2.0 / 3.0)

    def test_golden_mean_converges(self):
        counts = average_counts(golden_mean(), 10_000, 1)
        mean = posterior_mean(posterior(counts, FLAT1))
        assert mean[0, 1] == pytest.approx(1.0, abs=1e-3)  # p(1|0)
        assert mean[1, 0] == pytest.approx(0.5, abs=1e-3)  # p(0|1)

    def test_variance_flat(self):
        post = posterior(table([[0, 0], [0, 0]]), FLAT1)
        np.testing.assert_allclose(posterior_variance(post), 1.0 / 12.0)

    def test_variance_single_count(self):
        post = posterior(table([[0, 1], [0, 0]]), FLAT1)
        assert posterior_variance(post)[0, 1] == pytest.approx(1.0 / 18.0)

    def test_variance_matches_beta_marginal(self):
        rng = np.random.default_rng(7)
        for counts, hyper in random_tables(rng, 20):
            post = posterior(counts, hyper)
            var = posterior_variance(post)
            for w in range(post.table.shape[0]):
                for s in range(post.alphabet.size):
                    assert var[w, s] == pytest.approx(
                        marginal(post, w, s).variance(), abs=1e-15
                    )

    def test_variance_shrinks_with_data(self):
        sizes = [50, 200, 800, 3200, 12_800]
        vs = []
        for N in sizes:
            post = posterior(average_counts(golden_mean(), N, 1), FLAT1)
            vs.append(posterior_variance(post)[1, 0])
        assert all(b < a for a, b in zip(vs, vs[1:]))

    def test_moments_of_prior(self):
        mean, var = posterior_mean(FLAT1), posterior_variance(FLAT1)
        np.testing.assert_allclose(mean, 0.5)
        np.testing.assert_allclose(var, 1.0 / 12.0)
        skew = HyperTable(1, BINARY, np.array([[3.0, 1.0], [1.0, 1.0]]))
        mean, var = posterior_mean(skew), posterior_variance(skew)
        assert mean[0, 0] == pytest.approx(3.0 / 4.0)
        assert var[0, 0] == pytest.approx(3.0 / 80.0)

    def test_prior_mean_ternary(self):
        mean = posterior_mean(uniform_hyper(1, Alphabet(("0", "1", "2"))))
        np.testing.assert_allclose(mean, 1.0 / 3.0)

    @given(count_tables)
    def test_rows_sum_to_one(self, counts):
        mean = posterior_mean(posterior(counts, FLAT1))
        np.testing.assert_allclose(mean.sum(axis=1), 1.0, atol=1e-12)

    @given(count_tables)
    def test_pme_decomposition(self, counts):
        # posterior mean = weighted sum of the MLE and the prior expectation
        post = posterior(counts, FLAT1)
        mean = posterior_mean(post)
        n_w = counts.word_totals
        a_w = FLAT1.word_totals
        prior_mean = FLAT1.table / a_w[:, None]
        for w in np.nonzero(n_w > 0)[0]:
            mle = counts.table[w] / n_w[w]
            expected = (n_w[w] * mle + a_w[w] * prior_mean[w]) / (n_w[w] + a_w[w])
            np.testing.assert_allclose(mean[w], expected, atol=1e-12)


class TestMarginals:
    def test_flat(self):
        post = posterior(table([[0, 0], [0, 0]]), FLAT1)
        m = marginal(post, 0, 1)
        assert (m.a, m.b) == (1.0, 1.0)

    def test_single_count(self):
        post = posterior(table([[0, 1], [0, 0]]), FLAT1)
        m = marginal(post, 0, 1)
        assert (m.a, m.b) == (2.0, 1.0)

    def test_density_integrates_to_one(self):
        from scipy.integrate import quad

        post = posterior(average_counts(golden_mean(), 50, 1), FLAT1)
        m = marginal(post, 0, 1)
        total, _ = quad(m.pdf, 0, 1, epsabs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_golden_mean_skew_near_boundary(self):
        # p(1|0) marginal: mode at 1, mean below it, visibly left-skewed
        post = posterior(average_counts(golden_mean(), 400, 1), FLAT1)
        m = marginal(post, 0, 1)
        assert m.b == pytest.approx(1.0)
        assert m.mean() < 1.0
        x, dens = density_grid(post, 256)
        assert np.argmax(dens[0, 1]) == len(x) - 1


class TestConfidenceRegions:
    def test_uniform_quartiles(self):
        r = confidence_region(BetaParams(1, 1), 0.5)
        assert r.lower == pytest.approx(0.25, abs=1e-10)
        assert r.upper == pytest.approx(0.75, abs=1e-10)

    def test_beta21(self):
        r = confidence_region(BetaParams(2, 1), 0.5)
        assert r.lower == pytest.approx(0.5, abs=1e-9)
        assert r.upper == pytest.approx(math.sqrt(0.75), abs=1e-9)

    def test_against_quadrature_inversion(self):
        from scipy.integrate import quad
        from scipy.optimize import brentq

        m = BetaParams(34, 67)
        cdf = lambda x: quad(m.pdf, 0.0, x, epsabs=1e-13)[0]
        r = confidence_region(m, 0.95)
        assert r.lower == pytest.approx(brentq(lambda x: cdf(x) - 0.025, 1e-9, 1 - 1e-9, xtol=1e-12), abs=1e-6)
        assert r.upper == pytest.approx(brentq(lambda x: cdf(x) - 0.975, 1e-9, 1 - 1e-9, xtol=1e-12), abs=1e-6)

    def test_captured_mass(self):
        m = BetaParams(5.5, 2.25)
        for level in (0.5, 0.9, 0.99):
            r = confidence_region(m, level)
            assert region_mass(m, r) == pytest.approx(level, abs=1e-8)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            confidence_region(BetaParams(1, 1), 1.2)


class TestEvidence:
    def test_zero_counts(self):
        assert log_evidence(table([[0, 0], [0, 0]]), FLAT1) == pytest.approx(0.0, abs=1e-13)

    def test_two_symbols(self):
        counts = count_words(SymbolSequence.from_string("01", BINARY), 1)
        assert log_evidence(counts, FLAT1) == pytest.approx(math.log(0.5), abs=1e-12)
        # independent route: 2-D quadrature of likelihood x prior
        assert quad_evidence_binary_k1_tensor(counts) == pytest.approx(0.5, rel=1e-10)

    def test_0110_matches_quadrature(self):
        counts = count_words(SymbolSequence.from_string("0110", BINARY), 1)
        closed = math.exp(log_evidence(counts, FLAT1))
        assert closed == pytest.approx(quad_evidence_binary_k1_tensor(counts), rel=1e-6)

    @given(count_tables)
    @settings(max_examples=40)
    def test_quadrature_equivalence_small_tables(self, counts):
        if counts.total > 12:
            counts = table(np.minimum(counts.table, 3))
        closed = math.exp(log_evidence(counts, FLAT1))
        assert closed == pytest.approx(quad_evidence_binary_k1_tensor(counts), rel=1e-6)

    def test_nonuniform_alpha_quadrature(self):
        hyper = HyperTable(1, BINARY, np.array([[0.7, 1.4], [2.0, 0.5]]))
        counts = table([[2, 3], [1, 4]])
        closed = math.exp(log_evidence(counts, hyper))
        oracle = 1.0
        from scipy.integrate import quad

        for w in range(2):
            a, b = hyper.table[w, 1], hyper.table[w, 0]
            n1, n0 = counts.table[w, 1], counts.table[w, 0]
            dens = BetaParams(a, b).pdf
            val, _ = quad(lambda x: dens(x) * x**n1 * (1 - x) ** n0, 0, 1, epsabs=1e-13)
            oracle *= val
        assert closed == pytest.approx(oracle, rel=1e-8)

    def test_gamma_diffs_summed_in_order(self):
        # the entries' log Gamma differences, each table summed as one run,
        # less the words': the evidence is bit for bit this direct sum
        rng = np.random.default_rng(5)
        for counts, hyper in random_tables(rng, 40, max_k=3):
            a, n = hyper.table, counts.table
            direct = float(np.sum(log_gamma_diff(a, n))
                           - np.sum(log_gamma_diff(a.sum(axis=1), n.sum(axis=1))))
            assert log_evidence(counts, hyper) == direct

    def test_word_without_counts_adds_zero(self):
        rng = np.random.default_rng(6)
        counts = table([[3, 0], [0, 0]])
        ref = log_evidence(counts, HyperTable(1, BINARY, [[0.7, 1.4], [1.0, 1.0]]))
        for row in 10.0 ** rng.uniform(-300, 300, size=(50, 2)):
            hyper = HyperTable(1, BINARY, [[0.7, 1.4], row])
            assert log_evidence(counts, hyper) == ref


class TestPredictive:
    def test_no_new_data(self):
        counts = table([[1, 2], [3, 4]])
        zero = table([[0, 0], [0, 0]])
        assert log_predictive(counts, zero, FLAT1) == pytest.approx(0.0, abs=1e-12)

    def test_no_old_data(self):
        zero = table([[0, 0], [0, 0]])
        new = table([[1, 2], [3, 4]])
        assert log_predictive(zero, new, FLAT1) == pytest.approx(
            log_evidence(new, FLAT1), abs=1e-12
        )

    def test_single_new_count(self):
        counts = table([[0, 10], [0, 0]])
        new = table([[0, 1], [0, 0]])
        assert log_predictive(counts, new, FLAT1) == pytest.approx(
            math.log(11.0 / 12.0), abs=1e-12
        )

    def test_chain_rule_identity(self):
        rng = np.random.default_rng(11)
        for (c1, h), (c2, _) in zip(random_tables(rng, 40), random_tables(rng, 40)):
            if c1.order != c2.order or c1.alphabet != c2.alphabet:
                continue
            lhs = log_predictive(c1, c2, h)
            rhs = log_evidence(
                CountTable(c1.order, c1.alphabet, c1.table + c2.table), h
            ) - log_evidence(c1, h)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


class TestSampling:
    def test_flat_mean(self):
        post = posterior(table([[0, 0], [0, 0]]), FLAT1)
        draws = np.array([sample_posterior(post, s)[0, 1] for s in range(2)])
        rng = np.random.default_rng(0)
        many = np.stack([sample_posterior(post, rng) for _ in range(100_000)])
        assert many[:, 0, 1].mean() == pytest.approx(0.5, abs=0.005)
        assert draws[0] != draws[1]

    def test_skewed_mean(self):
        post = posterior(table([[0, 1], [0, 0]]), FLAT1)
        rng = np.random.default_rng(1)
        many = np.stack([sample_posterior(post, rng) for _ in range(100_000)])
        assert many[:, 0, 1].mean() == pytest.approx(2.0 / 3.0, abs=0.005)

    def test_rows_normalized(self):
        post = posterior(table([[5, 2], [0, 9]]), FLAT1)
        draw = sample_posterior(post, 123)
        np.testing.assert_allclose(draw.sum(axis=1), 1.0, atol=1e-12)

    def test_seed_determinism(self):
        post = posterior(table([[5, 2], [0, 9]]), FLAT1)
        np.testing.assert_array_equal(sample_posterior(post, 42), sample_posterior(post, 42))


class TestExports:
    def test_summary_rows(self):
        rows = list(zip(*infer_table(table([[0, 1], [0, 0]]), FLAT1, level=0.9)[0]))
        # word, symbol, count, alpha, mean, variance, ci_low, ci_high; code order
        assert [r[:4] for r in rows] == [("0", "0", 0.0, 1.0), ("0", "1", 1.0, 1.0),
                                         ("1", "0", 0.0, 1.0), ("1", "1", 0.0, 1.0)]
        word, symbol, count, alpha, mean, var, ci_low, ci_high = rows[1]
        assert mean == pytest.approx(2.0 / 3.0)
        assert var == pytest.approx(BetaParams(2, 1).variance())
        assert reg_inc_beta(BetaParams(2, 1), ci_high) - reg_inc_beta(
            BetaParams(2, 1), ci_low
        ) == pytest.approx(0.9, abs=1e-8)

    def test_density_grid_shape(self):
        x, dens = density_grid(posterior(table([[1, 2], [0, 0]]), FLAT1), 512)
        assert x.shape == (512,)
        assert dens.shape == (2, 2, 512)
        assert np.all(dens >= 0)
        np.testing.assert_array_equal(dens[0, 0], BetaParams(2, 3).pdf(x))

    @pytest.mark.parametrize("alpha", [1.0, 0.1])
    def test_density_grid_matches_each_marginal(self, alpha):
        post = posterior(average_counts(even_process(), 1000, 2),
                         uniform_hyper(2, BINARY, alpha))
        x, dens = density_grid(post, 64)
        assert dens.shape == (4, 2, 64)
        for w in range(4):
            for s in range(2):
                np.testing.assert_array_equal(dens[w, s], marginal(post, w, s).pdf(x))


@st.composite
def tables_with_repeats(draw):
    """A count table whose rows come from a pool of at most three, a zero row among
    them, under one --alpha or under fake counts that differ by entry."""
    A, k = draw(st.sampled_from((2, 3))), draw(st.integers(1, 2))
    alphabet = Alphabet(tuple("012"[:A]))
    pool = draw(st.lists(st.lists(st.integers(0, 6), min_size=A, max_size=A),
                         min_size=1, max_size=2)) + [[0] * A]
    rows = draw(st.lists(st.sampled_from(pool), min_size=A**k, max_size=A**k))
    if draw(st.booleans()):
        hyper = uniform_hyper(k, alphabet, draw(st.sampled_from((0.1, 0.5, 1.0, 3.0))))
    else:
        fake = draw(st.lists(st.sampled_from((0.0, 0.5, 3.0)), min_size=A**(k + 1),
                             max_size=A**(k + 1)))
        hyper = hyper_from_fake_counts(table(np.reshape(fake, (A**k, A)), k, alphabet))
    return table(rows, k, alphabet), hyper


class TestSharedRegions:
    @settings(max_examples=60, deadline=None)
    @given(tables_with_repeats(), st.sampled_from((0.5, 0.9, 0.95)))
    def test_each_entry_gets_its_own_marginals_region(self, pair, level):
        # and its own marginal's density row, among the distinct marginals' rows
        counts, hyper = pair
        post, A = posterior(counts, hyper), counts.alphabet.size
        columns, x, dens, index = infer_table(counts, hyper, level, 16)
        grid_x, grid_dens = density_grid(post, 16)
        assert x.tobytes() == grid_x.tobytes()
        assert len(dens) == len({(m.a, m.b) for m in (marginal(post, i // A, i % A)
                                                      for i in range(len(index)))})
        for i, row in enumerate(zip(*columns)):
            region = confidence_region(marginal(post, i // A, i % A), level)
            assert (row[6].hex(), row[7].hex()) == (region.lower.hex(), region.upper.hex())
            assert list(map(float.hex, dens[index[i]].tolist())) == list(
                map(float.hex, grid_dens[i // A, i % A].tolist()))

    def test_one_search_pair_per_distinct_marginal(self, monkeypatch):
        # even process at k = 4: 13 distinct marginals among 32 entries; a second
        # call searches as often as the first, so nothing is kept between calls
        searches = []
        search = bayesmc.inference.inv_reg_inc_beta
        monkeypatch.setattr(bayesmc.inference, "inv_reg_inc_beta",
                            lambda m, p: searches.append(p) or search(m, p))
        counts, hyper = average_counts(even_process(), 10_000, 4), uniform_hyper(4, BINARY, 1.0)
        post = posterior(counts, hyper)
        distinct = {(m.a, m.b) for m in (marginal(post, w, s) for w in range(16)
                                         for s in range(2))}
        assert len(distinct) == 13
        for _ in range(2):
            searches.clear()
            columns, _, dens, _ = infer_table(counts, hyper)
            assert len(columns[0]) == 32 and len(dens) == len(distinct)
            assert len(searches) == 2 * len(distinct)

    @pytest.mark.parametrize("k, alpha, N", [
        (6, 1.0, 10_000),  # infer_regions' largest table: 128 entries, many marginals repeated
        (2, 1e-3, 10_000),  # forbidden transitions give a < 0.5, log_gamma's shifted branch
        (1, 1.0, None),  # no counts: every entry has the one marginal Beta(1, 1)
    ])
    def test_one_log_norm_call_per_table(self, k, alpha, N, monkeypatch):
        # the distinct marginals' log_norm comes from one array call (3 log_gammas) that
        # serves their regions and their densities, and every region equals the lone
        # marginal's search bit for bit
        calls = []
        log_gamma = bayesmc.special.log_gamma
        monkeypatch.setattr(bayesmc.special, "log_gamma",
                            lambda x: calls.append(np.shape(x)) or log_gamma(x))
        counts = table(np.zeros((2, 2))) if N is None else average_counts(even_process(), N, k)
        hyper = uniform_hyper(k, BINARY, alpha)
        rows = list(zip(*infer_table(counts, hyper, 0.95)[0]))
        assert len(calls) <= 3
        calls.clear()
        post = posterior(counts, hyper)
        for i, row in enumerate(rows):
            region = confidence_region(marginal(post, i // 2, i % 2), 0.95)
            assert (row[6].hex(), row[7].hex()) == (region.lower.hex(), region.upper.hex())
        assert len(calls) == 3 * len(rows)  # the counter sees them: 3 per lone marginal
