import functools
import gc
import itertools
import math
import re
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesmc import (
    Alphabet,
    CountTable,
    HyperTable,
    average_counts,
    compare_uniform,
    confidence_region,
    core,
    count_words,
    energy_moments,
    energy_moments_of,
    even_process,
    golden_mean,
    hmu_of,
    hyper_from_fake_counts,
    kl_of,
    log_evidence,
    marginal,
    markov_approximation,
    posterior,
    posterior_mean,
    posterior_variance,
    r_from,
    sample_posterior,
    sample_sequence,
    sns,
    special,
    uniform_hyper,
    weighted_energy,
)
from bayesmc.core import ShapeMismatchError
from bayesmc.entropy import WordConditional
from util import ENERGY_ULPS, biased_chain, energy_errors, region_mass

mpmath.mp.dps = 60

BINARY = Alphabet.binary()
FLAT1 = uniform_hyper(1, BINARY, 1.0)
LN2 = math.log(2.0)


def data_at(N, hmm=golden_mean(), k=1):
    """Exact average counts and the flat prior."""
    return average_counts(hmm, N, k), uniform_hyper(k, hmm.alphabet, 1.0)


def post_at(N, hmm=golden_mean(), k=1):
    """The flat-prior posterior of exact average counts."""
    return posterior(*data_at(N, hmm, k))


def q_at(N, hmm=golden_mean(), k=1):
    return r_from(post_at(N, hmm, k))


def mp_table(post):
    """The posterior table's rows in mpmath, with each word total and the
    grand total beta summed by mpmath's fsum: the float word_totals would put
    an ulp(t(w)) / beta^2 error into the reference variance."""
    rows = [[mpmath.mpf(float(t)) for t in row] for row in post.table]
    words = [mpmath.fsum(row) for row in rows]
    return rows, words, mpmath.fsum(words)


def mp_energy(post):
    """Expected energy recomputed at 60-digit precision with mpmath psi."""
    rows, words, beta = mp_table(post)
    total = mpmath.fsum(tw * mpmath.psi(0, tw) for tw in words)
    total -= mpmath.fsum(t * mpmath.psi(0, t) for row in rows for t in row)
    return float(total / (beta * mpmath.log(2)))


class TestDistributions:
    def test_q_prior_only_is_flat(self):
        post = posterior(CountTable(1, BINARY, np.zeros((2, 2))), FLAT1)
        assert post.total == pytest.approx(4.0)
        q = r_from(post)
        np.testing.assert_allclose(q.word_probs, 0.5)
        np.testing.assert_allclose(q.cond_probs, 0.5)

    def test_q_beta_is_total_mass(self):
        assert post_at(1000).total == pytest.approx(999.0 + 4.0)

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


class TestWordConditionalArrays:
    def test_read_only_and_contiguous(self):
        cond = np.asfortranarray([[0.25, 0.75], [0.5, 0.5]])
        q = WordConditional(1, BINARY, [0.5, 0.5], cond)
        for arr in (q.word_probs, q.cond_probs):
            assert not arr.flags.writeable and arr.flags.c_contiguous
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("order, word_shape, cond_shape", [
        (1, (1,), (2, 2)),  # hmu_of read 1.469 and kl_of 0.531 bits off a broadcast
        (3, (2,), (2, 2)),  # an order-3 label on order-1 arrays
        (1, (2,), (3, 2)), (1, (2,), (2, 3)), (1, (2,), (2,)), (1, (2, 1), (2, 2)),
        (1, (3, 2), (2, 2, 2)), (1, (2, 2), (2,)), (1, (2, 2), (1, 2, 2, 2)),
        (2, (3, 2), (3, 4, 2))])
    def test_shapes_must_fit_order_and_each_other(self, order, word_shape, cond_shape):
        with pytest.raises(ShapeMismatchError, match=re.escape(
                f"word_probs shape {word_shape} and cond_probs shape {cond_shape}, expected "
                f"({2**order},) and ({2**order}, 2) at order {order}, or a stack of them")):
            WordConditional(order, BINARY, np.full(word_shape, 0.5), np.full(cond_shape, 0.5))


class TestHmu:
    def test_fair_coin(self):
        assert hmu_of(r_from(FLAT1)) == pytest.approx(1.0)

    def test_golden_mean_limit(self):
        # true rate: p(state 0) = 2/3 contributes one fair-coin bit
        q = q_at(200_000)
        assert hmu_of(q) == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_zero_entries_ignored(self):
        dist = r_from(FLAT1)
        q = WordConditional(1, BINARY, np.array([1.0, 0.0]),
                            np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert hmu_of(q) == pytest.approx(0.0, abs=1e-12)
        assert hmu_of(dist) == pytest.approx(1.0)


class TestKl:
    def test_zero_when_equal(self):
        q = q_at(500)
        assert kl_of(q, q.cond_probs) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_vs_half(self):
        q = WordConditional(1, BINARY, np.array([1.0, 0.0]),
                            np.array([[0.75, 0.25], [0.5, 0.5]]))
        ref = np.full((2, 2), 0.5)
        # closed form: 1 - H(1/4)
        assert kl_of(q, ref) == pytest.approx(0.18872187554086717, abs=1e-12)

    def test_support_violation_is_infinite(self):
        q = q_at(100)  # posterior smooths the forbidden 00 transition
        truth = markov_approximation(golden_mean(), 1).cond_probs
        assert kl_of(q, truth) == math.inf

    def test_prior_bias_decay_full_support(self):
        # with exact average counts the only error is the O(1/N) prior
        # pull on the posterior mean, so the KL shrinks like 1/N^2
        chain = biased_chain()
        truth = markov_approximation(chain, 1).cond_probs
        kls = []
        for N in (1000, 2000, 4000, 8000):
            counts = average_counts(chain, N, 1)
            kls.append(kl_of(r_from(posterior(counts, FLAT1)), truth))
        ratios = [a / b for a, b in zip(kls, kls[1:])]
        assert all(3.5 < r < 4.5 for r in ratios)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_of(q_at(100), np.full((4, 2), 0.5))


class TestExpectedEnergy:
    def test_prior_only_binary_k1(self):
        # beta=4, flat Q: (1/ln2)(psi(2) - psi(1)) = 1/ln2
        counts = CountTable(1, BINARY, np.zeros((2, 2)))
        assert energy_moments(counts, FLAT1).mean == pytest.approx(1.0 / LN2, abs=1e-12)

    def test_matches_mpmath(self):
        for N in (50, 500, 5000):
            assert energy_moments(*data_at(N)).mean == pytest.approx(mp_energy(post_at(N)),
                                                                     abs=1e-11)
        for N in (1e4, 1e6, 1e8):  # no cancellation: the mean stays at 1e-14
            data = data_at(N, hmm=even_process(), k=2)
            assert energy_moments(*data).mean == pytest.approx(mp_energy(posterior(*data)),
                                                               rel=1e-14, abs=0.0)

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
        assert energy_moments(counts, hyper).mean == pytest.approx(fd / LN2, abs=1e-6)

    def test_exceeds_entropy_rate(self):
        # energy = KL + entropy rate, and KL >= 0
        for N in (30, 300, 3000):
            assert energy_moments(*data_at(N)).mean >= hmu_of(r_from(post_at(N))) - 1e-12

    def test_decreases_toward_truth(self):
        es = [energy_moments(*data_at(N)).mean for N in (100, 1000, 10_000, 100_000)]
        assert all(b < a for a, b in zip(es, es[1:]))
        assert es[-1] == pytest.approx(2.0 / 3.0, abs=2e-4)


def mp_variance(post):
    """Energy variance recomputed at 60-digit precision with mpmath psi', in
    bits^2, with the full trigammas: their 1/t parts cancel at 60 digits."""
    rows, words, beta = mp_table(post)
    total = mpmath.fsum(t**2 * mpmath.psi(1, t) for row in rows for t in row)
    total -= mpmath.fsum(tw**2 * mpmath.psi(1, tw) for tw in words)
    return float(total / (beta * mpmath.log(2)) ** 2)


class TestEnergyVariance:
    def test_prior_only_binary_k1(self):
        # beta=4, flat Q: the pair part 4 (1/4)^2 psi'(1) = pi^2/24 minus the
        # word part 2 (1/2)^2 psi'(2) = pi^2/12 - 1/2, in nats^2
        counts = CountTable(1, BINARY, np.zeros((2, 2)))
        ref = (0.5 - math.pi**2 / 24.0) / LN2**2
        assert energy_moments(counts, FLAT1).variance == pytest.approx(ref, abs=1e-12)

    def test_matches_mpmath(self):
        # The pair and word sums share their leading 1/t parts, which cancel
        # in the algebra, so the relative error stays flat in N up to 1e12.
        for hmm, k in itertools.product((even_process(), sns(), golden_mean()), (1, 2, 4)):
            for N in (700, 1e4, 1e6, 1e8, 1e10, 1e12):
                data = data_at(N, hmm=hmm, k=k)
                assert energy_moments(*data).variance == pytest.approx(
                    mp_variance(posterior(*data)), rel=1e-12, abs=0.0), (hmm.name, k, N)

    def test_positive_and_shrinks(self):
        vs = [energy_moments(*data_at(N)).variance for N in (100, 1000, 10_000)]
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
        post = posterior(counts, hyper)
        q = r_from(post)
        joint = q.word_probs[:, None] * q.cond_probs
        energy = -np.sum(joint * np.log2(draws), axis=(1, 2))
        mean_se = energy.std(ddof=1) / math.sqrt(MC_DRAWS)
        moments = energy_moments(counts, hyper)
        assert abs(energy.mean() - moments.mean) < MC_Z * mean_se
        var, var_se = sample_variance_se(energy)
        assert abs(var - moments.variance) < MC_Z * var_se

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


#: The priors of _sparse_case: alpha log-uniform per entry, one alpha for all entries,
#: and fake counts + 1.
PRIORS = ("random", "uniform", "fake_counts")


def _sparse_case(seed, G=None, prior="random"):
    """(counts, hyper) at order 3 over 3 symbols: counts up to 1e6 with most
    entries and some whole words zero, one table or a stack of G; alpha
    log-uniform in [1e-3, 1e7], per entry or (uniform) one for all, or fake
    counts 0-2 plus 1."""
    rng = np.random.default_rng(seed)
    shape = (27, 3) if G is None else (G, 27, 3)
    counts = np.floor(10.0 ** rng.uniform(0, 6, size=shape))
    counts[rng.random(shape) < 0.7] = 0.0
    counts[..., :5, :] = 0.0
    alphabet = Alphabet(("a", "b", "c"))
    hyper = {"random": lambda: HyperTable(3, alphabet, 10.0 ** rng.uniform(-3, 7, size=(27, 3))),
             "uniform": lambda: uniform_hyper(3, alphabet, 10.0 ** rng.uniform(-3, 7)),
             "fake_counts": lambda: hyper_from_fake_counts(
                 CountTable(3, alphabet, np.floor(rng.uniform(0, 3, size=(27, 3)))))}[prior]()
    return CountTable(3, alphabet, counts), hyper


def _hexes(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def _moment_hexes(moments, fields=("beta", "mean", "variance", "hmu", "asymptotic", "q")):
    """The named fields of an EnergyMoments by hex, Q's arrays included."""
    return {f: (_hexes(moments.q.word_probs.ravel()), _hexes(moments.q.cond_probs.ravel()))
            if f == "q" else _hexes(getattr(moments, f)) for f in fields}


class TestObservedEntries:
    """energy_moments runs one polygamma pass on the posterior rows of the observed words
    only, and takes the rest from the prior's share, computed once per hyper table from
    its distinct values and cached on the table."""

    @pytest.mark.parametrize("prior", PRIORS)
    def test_polygammas_see_observed_entries_and_prior_once(self, prior, monkeypatch):
        sizes, evaluate = [], special._shifted_series

        def recorded(x, name):
            sizes.append(np.size(x))
            return evaluate(x, name)

        monkeypatch.setattr(special, "_shifted_series", recorded)
        counts, hyper = _sparse_case(1, prior=prior)
        stack, _ = _sparse_case(2, G=4)

        def observed(data):  # each observed word's row and its total
            return np.count_nonzero(data.word_totals) * (data.alphabet.size + 1)

        distinct = sum(np.unique(x, return_counts=True)[0].size
                       for x in (hyper.table, hyper.word_totals))
        # the observed words' rows and totals, the first time followed by the prior's
        # distinct entries and word totals
        for data, first in ((counts, True), (stack, False), (counts, False)):
            sizes.clear()
            energy_moments(data, hyper)
            assert sizes == ([observed(data), distinct] if first else [observed(data)])
        assert 0 < observed(counts) < 27 * 4
        assert distinct == 2 if prior == "uniform" else distinct > 2

    # the mean with the fields it is computed alongside, and the variance
    @pytest.mark.parametrize("fields", [("beta", "mean", "hmu", "asymptotic", "q"),
                                        ("variance",)],
                             ids=["expected_energy", "energy_variance"])
    @pytest.mark.parametrize("G", [None, 1, 5])
    def test_equal_to_dense_terms_memo_or_not(self, fields, G):
        for seed, prior in itertools.product(range(20), PRIORS):
            counts, hyper = _sparse_case(seed, G, prior)
            moments = energy_moments(counts, hyper)
            fresh = _moment_hexes(moments, fields)
            assert _moment_hexes(energy_moments(counts, hyper), fields) == fresh
            again = HyperTable(hyper.order, hyper.alphabet, hyper.table)
            energy_moments(_sparse_case(seed + 100, G)[0], again)  # again's terms are cached by another call
            assert _moment_hexes(energy_moments(counts, again), fields) == fresh
            # within the oracle's bound of the terms on every entry and word, summed
            # exactly; Q, read on first use, is r_from(posterior) bit for bit
            for errors in energy_errors(moments, counts, hyper):
                assert all(errors[f] <= ENERGY_ULPS for f in fields if f in errors), errors
            if "q" in fields:
                dense = r_from(posterior(counts, hyper))
                assert fresh["q"] == (_hexes(dense.word_probs.ravel()),
                                      _hexes(dense.cond_probs.ravel()))
            if "asymptotic" in fields:
                A = hyper.alphabet.size
                assert fresh["asymptotic"] == _hexes(
                    moments.hmu + A**hyper.order * (A - 1) / (2.0 * moments.beta * LN2))

    def test_prior_terms_once_per_table_read_only(self, monkeypatch):
        counts, hyper = _sparse_case(3)
        terms, calls = special._moment_terms, []

        def counted(t):
            calls.append(np.size(t))
            return terms(t)

        monkeypatch.setattr(core, "_moment_terms", counted)
        energy_moments(counts, hyper)
        kept = hyper._prior_terms
        energy_moments(_sparse_case(4)[0], hyper)
        assert hyper._prior_terms is kept and len(calls) == 1  # computed once per table
        entries, words, moments, rate = kept
        assert entries.tolist() == sorted(set(hyper.table.ravel().tolist()))
        assert words.tolist() == sorted(set(hyper.word_totals.tolist()))
        arrays = [entries, words, *(a for m in moments for a in m[:2])]
        assert [a.shape for a in arrays] == [entries.shape, words.shape] + [
            entries.shape, words.shape] * 2
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        # the prior's own sums: its terms on every entry and word, summed
        dense = [special._moment_terms(x) for x in (hyper.table, hyper.word_totals)]
        for m, (_, _, total) in enumerate(moments):
            assert total == pytest.approx(dense[1][m].sum() - dense[0][m].sum(), rel=1e-13)
        q = r_from(hyper)
        assert rate == pytest.approx(-hmu_of(q) * hyper.total, rel=1e-13)
        again = HyperTable(hyper.order, hyper.alphabet, hyper.table)
        energy_moments(counts, again)  # an equal table computes its own
        assert len(calls) == 2 and again._prior_terms is not kept
        assert [a.tobytes() for a in again._prior_terms[:2]] == [entries.tobytes(),
                                                                  words.tobytes()]
        table = weakref.ref(hyper)
        del hyper, kept, entries, words, moments
        gc.collect()
        assert table() is None


def _oracle_case(rng, A, k, G, prior, density, empty):
    """(counts, hyper) of order k over A symbols, a lone table for G None, else a stack of G:
    counts up to 1e6 in a `density` share of the entries (a few whole words zero), every
    table all zero with `empty`; the prior per entry, uniform or fake counts, alpha
    log-uniform in [1e-3, 1e7]."""
    alphabet = Alphabet(tuple("abcd"[:A]))
    shape = (A**k, A) if G is None else (G, A**k, A)
    counts = np.floor(10.0 ** rng.uniform(0, 6, size=shape))
    counts[rng.random(shape) >= density] = 0.0
    counts[rng.random(shape[:-1]) < 0.2] = 0.0
    if empty:
        counts[...] = 0.0
    table = shape[-2:]
    hyper = {"random": lambda: HyperTable(k, alphabet, 10.0 ** rng.uniform(-3, 7, size=table)),
             "uniform": lambda: uniform_hyper(k, alphabet, 10.0 ** rng.uniform(-3, 7)),
             "fake_counts": lambda: hyper_from_fake_counts(
                 CountTable(k, alphabet, np.floor(rng.uniform(0, 3, size=table))))}[prior]()
    return CountTable(k, alphabet, counts), hyper


#: A batch of 1-3 _oracle_case parameter tuples (A, k, G, prior, density, empty).
ORACLE_BATCH = st.lists(st.tuples(st.integers(2, 4), st.integers(1, 3),
                                  st.one_of(st.none(), st.integers(1, 4)),
                                  st.sampled_from(PRIORS),
                                  st.sampled_from([0.02, 0.3, 1.0]), st.booleans()),
                        min_size=1, max_size=3)


class TestEnergyOracle:
    """energy_moments_of against the closed forms summed in 40-digit mpmath: beta, the
    mean, the variance and h_mu of every table within ENERGY_ULPS ulps of their
    cancelling scales (tests/util.py's mp_energy)."""

    @settings(max_examples=150, deadline=None)
    @given(ORACLE_BATCH, st.integers(0, 2**32 - 1))
    def test_within_ulps_of_mpmath(self, params, seed):
        rng = np.random.default_rng(seed)
        pairs = [_oracle_case(rng, *p) for p in params]
        for (counts, hyper), moments in zip(pairs, energy_moments_of(pairs)):
            for errors in energy_errors(moments, counts, hyper):
                assert max(errors.values()) <= ENERGY_ULPS, errors


class TestAsymptotic:
    def test_formula(self):
        post = post_at(1000, k=2)
        expected = hmu_of(r_from(post)) + 4.0 / (2.0 * post.total * LN2)
        assert energy_moments(*data_at(1000, k=2)).asymptotic == pytest.approx(expected,
                                                                               abs=1e-14)

    def test_close_to_exact_full_support(self):
        chain = biased_chain()
        for N in (1000, 10_000):
            counts = average_counts(chain, N, 1)
            moments = energy_moments(counts, FLAT1)
            assert abs(moments.mean - moments.asymptotic) < 2.0 / moments.beta**2


class TestPartitionAndMixing:
    def test_weighted_energy(self):
        op = compare_uniform({1: 0.0, 2: math.log(3.0)})
        assert weighted_energy(op, {1: 1.0, 2: 2.0}) == pytest.approx(1.75, abs=1e-12)

    def test_weighted_energy_per_table_of_a_stack(self):
        rows = [{1: 0.0, 2: math.log(3.0)}, {1: -2.0, 2: 5.0}, {1: 1.0, 2: 1.0}]
        op = compare_uniform({k: np.array([r[k] for r in rows]) for k in (1, 2)})
        lone = [compare_uniform(r) for r in rows]
        for energies in ({1: 1.0, 2: 2.0}, {1: np.array([1.0, 0.5, 3.0]), 2: 2.0}):
            mixed = weighted_energy(op, energies)
            assert isinstance(mixed, np.ndarray) and mixed.shape == (3,)
            expected = [weighted_energy(one, {k: float(np.broadcast_to(v, 3)[g])
                                              for k, v in energies.items()})
                        for g, one in enumerate(lone)]
            assert [v.hex() for v in mixed.tolist()] == [v.hex() for v in expected]
        assert type(weighted_energy(lone[0], {1: 1.0, 2: 2.0})) is float

    def test_weighted_energy_missing_order(self):
        op = compare_uniform({1: 0.0, 2: 0.0})
        with pytest.raises(ValueError):
            weighted_energy(op, {1: 1.0})
