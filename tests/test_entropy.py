import functools
import math

import mpmath
import numpy as np
import pytest

from bayesmc import (
    Alphabet,
    CountTable,
    SupportWarning,
    asymptotic_energy,
    average_counts,
    compare_uniform,
    confidence_region,
    count_words,
    energy_variance,
    even_process,
    expected_energy,
    golden_mean,
    hmu_of,
    kl_of,
    log_evidence,
    marginal,
    markov_approximation,
    posterior,
    posterior_mean,
    posterior_variance,
    q_from,
    r_from,
    sample_posterior,
    sample_sequence,
    uniform_hyper,
    weighted_energy,
)
from bayesmc.entropy import QDistribution
from bayesmc.inference import region_mass

from util import biased_chain

mpmath.mp.dps = 40

BINARY = Alphabet.binary()
FLAT1 = uniform_hyper(1, BINARY, 1.0)
LN2 = math.log(2.0)


def q_at(N, hmm=golden_mean(), k=1):
    counts = average_counts(hmm, N, k)
    return q_from(counts, uniform_hyper(k, hmm.alphabet, 1.0))


def mp_energy(q):
    """Expected energy recomputed at 40-digit precision with mpmath psi."""
    beta = mpmath.mpf(q.beta)
    total = mpmath.mpf(0)
    for w, qw in enumerate(q.word_probs):
        qw = mpmath.mpf(float(qw))
        total += qw * mpmath.psi(0, beta * qw)
        for s in range(q.cond_probs.shape[1]):
            qs = mpmath.mpf(float(q.cond_probs[w, s]))
            total -= qw * qs * mpmath.psi(0, beta * qw * qs)
    return float(total / mpmath.log(2))


class TestDistributions:
    def test_q_prior_only_is_flat(self):
        q = q_from(CountTable(1, BINARY, np.zeros((2, 2))), FLAT1)
        assert q.beta == pytest.approx(4.0)
        np.testing.assert_allclose(q.word_probs, 0.5)
        np.testing.assert_allclose(q.cond_probs, 0.5)

    def test_q_beta_is_total_mass(self):
        q = q_at(1000)
        assert q.beta == pytest.approx(999.0 + 4.0)

    def test_q_rows_normalized(self):
        q = q_at(137)
        np.testing.assert_allclose(q.cond_probs.sum(axis=1), 1.0, atol=1e-12)
        assert q.word_probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_r_from_flat(self):
        r = r_from(FLAT1)
        np.testing.assert_allclose(r.word_probs, 0.5)
        np.testing.assert_allclose(r.cond_probs, 0.5)

    def test_r_from_uniform(self):
        u = r_from(uniform_hyper(2, BINARY))
        np.testing.assert_allclose(u.word_probs, 0.25)
        assert hmu_of(u) == pytest.approx(1.0, abs=1e-12)


class TestHmu:
    def test_fair_coin(self):
        assert hmu_of(r_from(FLAT1)) == pytest.approx(1.0)

    def test_golden_mean_limit(self):
        # true rate: p(state 0) = 2/3 contributes one fair-coin bit
        q = q_at(200_000)
        assert hmu_of(q) == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_zero_entries_ignored(self):
        dist = r_from(FLAT1)
        q = QDistribution(1, BINARY, np.array([1.0, 0.0]),
                          np.array([[1.0, 0.0], [0.5, 0.5]]), beta=10.0)
        assert hmu_of(q) == pytest.approx(0.0, abs=1e-12)
        assert hmu_of(dist) == pytest.approx(1.0)


class TestKl:
    def test_zero_when_equal(self):
        q = q_at(500)
        assert kl_of(q, q.cond_probs) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_vs_half(self):
        q = QDistribution(1, BINARY, np.array([1.0, 0.0]),
                          np.array([[0.75, 0.25], [0.5, 0.5]]), beta=1.0)
        ref = np.full((2, 2), 0.5)
        # closed form: 1 - H(1/4)
        assert kl_of(q, ref) == pytest.approx(0.18872187554086717, abs=1e-12)

    def test_support_violation_is_infinite(self):
        q = q_at(100)  # posterior smooths the forbidden 00 transition
        truth = markov_approximation(golden_mean(), 1).cond_probs
        with pytest.warns(SupportWarning):
            assert kl_of(q, truth) == math.inf

    def test_prior_bias_decay_full_support(self):
        # with exact average counts the only error is the O(1/N) prior
        # pull on the posterior mean, so the KL shrinks like 1/N^2
        chain = biased_chain()
        truth = markov_approximation(chain, 1).cond_probs
        kls = []
        for N in (1000, 2000, 4000, 8000):
            counts = average_counts(chain, N, 1)
            kls.append(kl_of(q_from(counts, FLAT1), truth))
        ratios = [a / b for a, b in zip(kls, kls[1:])]
        assert all(3.5 < r < 4.5 for r in ratios)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_of(q_at(100), np.full((4, 2), 0.5))


class TestExpectedEnergy:
    def test_prior_only_binary_k1(self):
        # beta=4, flat Q: (1/ln2)(psi(2) - psi(1)) = 1/ln2
        q = q_from(CountTable(1, BINARY, np.zeros((2, 2))), FLAT1)
        assert expected_energy(q) == pytest.approx(1.0 / LN2, abs=1e-12)

    def test_matches_mpmath(self):
        for N in (50, 500, 5000):
            q = q_at(N)
            assert expected_energy(q) == pytest.approx(mp_energy(q), abs=1e-11)
        for N in (1e4, 1e6, 1e8):  # no cancellation: the mean stays at 1e-14
            q = q_at(N, hmm=even_process(), k=2)
            assert expected_energy(q) == pytest.approx(mp_energy(q), rel=1e-14, abs=0.0)

    def test_matches_finite_difference_of_log_partition(self):
        # d(-log Z)/d(beta) at fixed Q equals the energy in nats; scale the
        # whole table by 1 +/- h to move beta while keeping Q unchanged.
        counts = average_counts(golden_mean(), 400, 1)
        hyper = FLAT1
        t = counts.table + hyper.table
        h = 1e-5

        def neg_logz(scale):
            scaled = t * scale
            return -log_evidence(
                CountTable(1, BINARY, scaled), uniform_hyper(1, BINARY, 1e-300)
            )

        beta = t.sum()
        fd = (neg_logz(1.0 + h) - neg_logz(1.0 - h)) / (2.0 * h * beta)
        q = q_from(counts, hyper)
        assert expected_energy(q) == pytest.approx(fd / LN2, abs=1e-6)

    def test_exceeds_entropy_rate(self):
        # energy = KL + entropy rate, and KL >= 0
        for N in (30, 300, 3000):
            q = q_at(N)
            assert expected_energy(q) >= hmu_of(q) - 1e-12

    def test_decreases_toward_truth(self):
        es = [expected_energy(q_at(N)) for N in (100, 1000, 10_000, 100_000)]
        assert all(b < a for a, b in zip(es, es[1:]))
        assert es[-1] == pytest.approx(2.0 / 3.0, abs=2e-4)

    def test_rejects_empty_word(self):
        q = QDistribution(1, BINARY, np.array([1.0, 0.0]),
                          np.full((2, 2), 0.5), beta=8.0)
        with pytest.raises(ValueError):
            expected_energy(q)


def mp_variance(q):
    """Energy variance recomputed at 40-digit precision with mpmath psi', in bits^2."""
    beta = mpmath.mpf(q.beta)
    total = mpmath.mpf(0)
    for w, qw in enumerate(q.word_probs):
        qw = mpmath.mpf(float(qw))
        total -= qw**2 * mpmath.psi(1, beta * qw)
        for s in range(q.cond_probs.shape[1]):
            qs = mpmath.mpf(float(q.cond_probs[w, s]))
            total += (qw * qs) ** 2 * mpmath.psi(1, beta * qw * qs)
    return float(total / mpmath.log(2) ** 2)


class TestEnergyVariance:
    def test_prior_only_binary_k1(self):
        # beta=4, flat Q: the pair part 4 (1/4)^2 psi'(1) = pi^2/24 minus the
        # word part 2 (1/2)^2 psi'(2) = pi^2/12 - 1/2, in nats^2
        q = q_from(CountTable(1, BINARY, np.zeros((2, 2))), FLAT1)
        ref = (0.5 - math.pi**2 / 24.0) / LN2**2
        assert energy_variance(q) == pytest.approx(ref, abs=1e-12)

    def test_matches_mpmath(self):
        q = q_at(700)
        assert energy_variance(q) == pytest.approx(mp_variance(q), abs=1e-12)
        # The pair and word trigamma sums cancel down to their 1/beta^2
        # remainder, so the relative error grows like eps * beta.  Measured
        # on the even process at k = 2: 3e-13, 6e-11 and 2.3e-9 at N = 1e4,
        # 1e6 and 1e8.
        for N, rel in ((1e4, 1e-12), (1e6, 1e-10), (1e8, 4e-9)):
            q = q_at(N, hmm=even_process(), k=2)
            assert energy_variance(q) == pytest.approx(mp_variance(q), rel=rel, abs=0.0)

    def test_positive_and_shrinks(self):
        vs = [energy_variance(q_at(N)) for N in (100, 1000, 10_000)]
        assert all(v > 0 for v in vs)
        assert vs[0] > vs[1] > vs[2]


#: Seeded posteriors for the Monte Carlo oracle: a sampled golden-mean
#: sequence under the flat prior, and exact even-process counts under
#: alpha = 0.5, whose forbidden transitions carry prior mass only.
MC_CASES = {
    "golden_mean_sample": lambda: (count_words(sample_sequence(golden_mean(), 300, 7), 2),
                                   uniform_hyper(2, BINARY, 1.0)),
    "even_average": lambda: (average_counts(even_process(), 1000, 3),
                             uniform_hyper(3, BINARY, 0.5)),
}
MC_DRAWS = 20_000
#: Every closed form must lie within this many standard errors of its
#: Monte Carlo estimate.
MC_Z = 4.0


@functools.lru_cache(maxsize=None)
def mc_draws(case):
    counts, hyper = MC_CASES[case]()
    post = posterior(counts, hyper)
    rng = np.random.default_rng(1)
    return counts, hyper, post, np.stack([sample_posterior(post, rng) for _ in range(MC_DRAWS)])


def sample_variance_se(samples, axis=0):
    """Sample variance and its standard error, sqrt((m4 - var^2) / M)."""
    var = samples.var(axis=axis, ddof=1)
    m4 = np.mean((samples - samples.mean(axis=axis)) ** 4, axis=axis)
    return var, np.sqrt((m4 - var**2) / samples.shape[axis])


@pytest.mark.parametrize("case", sorted(MC_CASES))
class TestPosteriorMonteCarlo:
    """Closed forms against seeded Dirichlet draws from `sample_posterior`,
    each within MC_Z standard errors of the draws' estimate."""

    def test_energy_moments(self, case):
        counts, hyper, _, draws = mc_draws(case)
        q = q_from(counts, hyper)
        joint = q.word_probs[:, None] * q.cond_probs
        energy = -np.sum(joint * np.log2(draws), axis=(1, 2))
        mean_se = energy.std(ddof=1) / math.sqrt(MC_DRAWS)
        assert abs(energy.mean() - expected_energy(q)) < MC_Z * mean_se
        var, var_se = sample_variance_se(energy)
        assert abs(var - energy_variance(q)) < MC_Z * var_se

    def test_posterior_moments(self, case):
        _, _, post, draws = mc_draws(case)
        mean_se = draws.std(axis=0, ddof=1) / math.sqrt(MC_DRAWS)
        assert np.all(np.abs(draws.mean(axis=0) - posterior_mean(post)) < MC_Z * mean_se)
        var, var_se = sample_variance_se(draws)
        assert np.all(np.abs(var - posterior_variance(post)) < MC_Z * var_se)

    def test_region_mass(self, case):
        _, _, post, draws = mc_draws(case)
        for w, s in np.ndindex(post.table.shape):
            m = marginal(post, w, s)
            region = confidence_region(m, 0.9)
            mass = region_mass(m, region)
            inside = np.mean((draws[:, w, s] >= region.lower) & (draws[:, w, s] <= region.upper))
            assert abs(inside - mass) < MC_Z * math.sqrt(mass * (1.0 - mass) / MC_DRAWS)


class TestAsymptotic:
    def test_formula(self):
        q = q_at(1000, k=2)
        expected = hmu_of(q) + 4.0 / (2.0 * q.beta * LN2)
        assert asymptotic_energy(q) == pytest.approx(expected, abs=1e-14)

    def test_close_to_exact_full_support(self):
        chain = biased_chain()
        for N in (1000, 10_000):
            counts = average_counts(chain, N, 1)
            q = q_from(counts, FLAT1)
            gap = abs(expected_energy(q) - asymptotic_energy(q))
            assert gap < 2.0 / q.beta**2


class TestPartitionAndMixing:
    def test_weighted_energy(self):
        op = compare_uniform({1: 0.0, 2: math.log(3.0)})
        assert weighted_energy(op, {1: 1.0, 2: 2.0}) == pytest.approx(1.75, abs=1e-12)

    def test_weighted_energy_missing_order(self):
        op = compare_uniform({1: 0.0, 2: 0.0})
        with pytest.raises(ValueError):
            weighted_energy(op, {1: 1.0})
