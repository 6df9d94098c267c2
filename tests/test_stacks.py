"""A (G, A**k, A) stack of count or hyper tables against its tables one by one.

The sweep computes the evidence and energy moments of all its orders, and the
order posteriors over them, for a chunk of the N grid in one call on their
stacks; every value must equal the call on the lone table bit for bit, so that
the CSV outputs do not depend on how the grid is chunked.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayesmc import (
    Alphabet,
    CountTable,
    HyperTable,
    WordConditional,
    compare_penalized,
    compare_uniform,
    energy_moments,
    energy_moments_of,
    free_params,
    hmu_of,
    hyper_from_fake_counts,
    kl_of,
    log_evidence,
    log_evidences,
    log_gamma_diff,
    log_predictive,
    lower_order_counts,
    map_order,
    marginal,
    posterior,
    r_from,
    sample_posterior,
    uniform_hyper,
)
from bayesmc.core import ShapeMismatchError
from bayesmc.inference import density_grid, infer_table
from bayesmc.special import _row_sum, _table_sum

from util import ENERGY_ULPS, energy_errors

BINARY = Alphabet.binary()


def _hexes(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def _stack_case(A, k, G, seed, forbid):
    """(counts stack, hyper table, reference conditionals) for alphabet size A,
    order k and G tables, drawn from `seed`: counts up to 1e6, with zero
    entries and each table at its own scale, and alpha log-uniform in
    [1e-3, 1e7]; with `forbid`, some reference transitions are forbidden."""
    rng = np.random.default_rng(seed)
    shape = (A**k, A)
    scale = 10.0 ** rng.uniform(0, 6, size=(G, 1, 1))
    counts = np.floor(rng.uniform(0, 1, size=(G, *shape)) * (scale + 1))
    counts[rng.random((G, *shape)) < 0.3] = 0.0
    alpha = 10.0 ** rng.uniform(-3, 7, size=shape)
    cond = rng.random(shape)
    if forbid:  # KL is then infinite
        cond[rng.random(shape) < 0.3] = 0.0
        cond[:, 0] += 1e-3  # keep every row's mass positive
    cond /= cond.sum(axis=1, keepdims=True)
    alphabet = Alphabet(tuple("abcd"[:A]))
    return CountTable(k, alphabet, counts), HyperTable(k, alphabet, alpha), cond


#: _stack_case's (A, k, G, seed, forbid): A in 2..4, k in 1..3 and G in 1..6.
STACK_PARAMS = st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(1, 6),
                         st.integers(0, 2**32 - 1), st.booleans())


class TestStackEqualsTables:
    @settings(max_examples=150, deadline=None)
    @given(STACK_PARAMS)
    # here float ** 2 and numpy's x * x square beta ln 2 an ulp apart, so the
    # energy variance must square a lone table's and a stack's the same way
    @example((3, 1, 2, 15459418, False))
    def test_kernels_bit_for_bit(self, params):
        counts, hyper, cond = _stack_case(*params)
        tables = [CountTable(counts.order, counts.alphabet, t) for t in counts.table]
        moments = [lambda c, h, f=f: getattr(energy_moments(c, h), f)
                   for f in ("beta", "mean", "variance", "hmu", "asymptotic")]
        for kernel in (*moments, log_evidence, lambda c, h: hmu_of(r_from(posterior(c, h))),
                       lambda c, h: posterior(c, h).total):
            assert _hexes(kernel(counts, hyper)) == [kernel(t, hyper).hex() for t in tables]
        q = energy_moments(counts, hyper).q
        rows = [kl_of(WordConditional(q.order, q.alphabet, w, c), cond)
                for w, c in zip(q.word_probs, q.cond_probs)]
        assert _hexes(rows) == [kl_of(r_from(posterior(t, hyper)), cond).hex() for t in tables]

    def test_densities_and_draws_per_table(self):
        rng = np.random.default_rng(5)
        counts = CountTable(2, BINARY, rng.integers(0, 50, size=(3, 4, 2)))
        post = posterior(counts, HyperTable(2, BINARY, rng.uniform(0.1, 3.0, size=(4, 2))))
        tables = [HyperTable(2, BINARY, t) for t in post.table]
        x, dens = density_grid(post, 8)
        assert dens.shape == (3, 4, 2, 8)
        assert np.array_equal(dens, np.stack([density_grid(t, 8)[1] for t in tables]))
        draws = sample_posterior(post, np.random.default_rng(9))
        one_by_one = np.random.default_rng(9)
        assert np.array_equal(draws, np.stack([sample_posterior(t, one_by_one) for t in tables]))

    def test_lone_table_gives_float(self):
        counts = CountTable(1, BINARY, [[3.0, 1.0], [2.0, 4.0]])
        hyper = HyperTable(1, BINARY, np.ones((2, 2)))
        post = posterior(counts, hyper)
        m = energy_moments(counts, hyper)
        for value in (log_evidence(counts, hyper), m.beta, m.mean, m.variance, m.hmu,
                      m.asymptotic, hmu_of(r_from(post)), post.total, counts.total):
            assert type(value) is float

    def test_stack_of_one_gives_one_value(self):
        counts = CountTable(1, BINARY, [[[3.0, 1.0], [2.0, 4.0]]])
        hyper = HyperTable(1, BINARY, np.ones((2, 2)))
        assert log_evidence(counts, hyper).shape == (1,)
        m = energy_moments(counts, hyper)
        for value in (m.beta, m.mean, m.variance, m.hmu, m.asymptotic):
            assert value.shape == (1,)


class TestLowerOrderStack:
    """The sweep derives each lower order of a chunk from the stack above it."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.data())
    def test_stack_equals_tables(self, A, K, G, seed, data):
        k = data.draw(st.integers(1, K - 1), label="k")
        top, _, _ = _stack_case(A, K, G, seed, False)
        head = CountTable(k, top.alphabet,
                          np.random.default_rng(seed).integers(0, K - k + 1, size=(A**k, A)))
        derived = lower_order_counts(top, head)
        assert derived.order == k and derived.table.shape == (G, A**k, A)
        tables = [lower_order_counts(CountTable(K, top.alphabet, t), head) for t in top.table]
        assert _hexes(derived.table.ravel()) == _hexes(
            np.concatenate([t.table.ravel() for t in tables]))


class TestStackShapes:
    @pytest.mark.parametrize("kind", [CountTable, HyperTable])
    @pytest.mark.parametrize("shape", [(2,), (3, 2), (2, 3), (4, 3, 2), (1, 1, 2, 2)])
    def test_rejects_wrong_last_axes_or_rank(self, kind, shape):
        with pytest.raises(ShapeMismatchError):
            kind(1, BINARY, np.ones(shape))

    def test_checks_every_table_of_a_stack(self):
        table = np.ones((3, 2, 2))
        table[2, 1, 0] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            CountTable(1, BINARY, table)
        table[2, 1, 0] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            HyperTable(1, BINARY, table)

    def test_totals_per_table(self):
        counts = CountTable(1, BINARY, np.arange(12.0).reshape(3, 2, 2))
        assert counts.total.tolist() == [6.0, 22.0, 38.0]
        assert counts.word_totals.tolist() == [[1.0, 5.0], [9.0, 13.0], [17.0, 21.0]]


def _batch_case(rng, A, k, G, prior):
    """(counts, hyper) of order k over A symbols: a lone table for G None, else a stack
    of G, with counts up to 1e6, zero entries, all-zero rows and now and then an
    all-zero table; the prior is alpha log-uniform in [1e-3, 1e7] per entry or for
    all entries alike, or fake counts + 1."""
    alphabet = Alphabet(tuple("abcd"[:A]))
    shape = (A**k, A) if G is None else (G, A**k, A)
    scale = 10.0 ** rng.uniform(0, 6, size=shape[:-2] + (1, 1))
    counts = np.floor(rng.uniform(0, 1, size=shape) * (scale + 1))
    counts[rng.random(shape) < 0.3] = 0.0
    counts[rng.random(shape[:-1]) < 0.3] = 0.0
    if rng.random() < 0.1:
        counts[...] = 0.0
    table = shape[-2:]
    hyper = {"random": lambda: HyperTable(k, alphabet, 10.0 ** rng.uniform(-3, 7, size=table)),
             "uniform": lambda: uniform_hyper(k, alphabet, 10.0 ** rng.uniform(-3, 7)),
             "fake_counts": lambda: hyper_from_fake_counts(
                 CountTable(k, alphabet, np.floor(rng.uniform(0, 3, size=table))))}[prior]()
    return CountTable(k, alphabet, counts), hyper


def _dense_ratio(base, inc):
    """The evidence's Gamma ratio with log_gamma_diff on every entry and word."""
    return (_table_sum(log_gamma_diff(base, inc))
            - log_gamma_diff(_row_sum(base), _row_sum(inc)).sum(axis=-1))


def _fields_hex(m):
    return [_hexes(getattr(m, f)) for f in ("beta", "mean", "variance", "hmu", "asymptotic")] + [
        _hexes(m.q.word_probs.ravel()), _hexes(m.q.cond_probs.ravel())]


#: Each case of a batch: (A, k, G, prior, share), G None for a lone table; with `share`
#: the case takes the previous case's hyper table if it has its order and alphabet.
BATCH_PARAMS = st.lists(st.tuples(st.integers(2, 4), st.integers(1, 4),
                                  st.one_of(st.none(), st.integers(1, 6)),
                                  st.sampled_from(["random", "uniform", "fake_counts"]),
                                  st.booleans()), min_size=1, max_size=4)


class TestBatchEqualsLoneCalls:
    """log_evidences and energy_moments_of take the count stacks of several orders in
    one kernel pass; each value must equal its pair's lone call bit for bit, and the
    energy's lie within the mpmath oracle's bound."""

    @settings(max_examples=100, deadline=None)
    @given(BATCH_PARAMS, st.integers(0, 2**32 - 1), st.booleans())
    def test_bit_for_bit(self, params, seed, memo_filled):
        rng = np.random.default_rng(seed)
        pairs = []
        for A, k, G, prior, share in params:
            counts, hyper = _batch_case(rng, A, k, G, prior)
            last = pairs[-1][1] if pairs else None
            if share and last is not None and (last.order, last.alphabet) == (k, hyper.alphabet):
                hyper = last
            pairs.append((counts, hyper))
        if memo_filled:  # each prior's terms kept from a call on other counts
            for _, hyper in pairs:
                ones = CountTable(hyper.order, hyper.alphabet, np.ones(hyper.table.shape))
                energy_moments(ones, hyper)

        def fresh(hyper):  # an equal table whose prior terms are not kept yet
            return HyperTable(hyper.order, hyper.alphabet, hyper.table)

        batched = log_evidences(pairs)
        for (counts, hyper), value in zip(pairs, batched):
            assert _hexes(value) == _hexes(log_evidence(counts, fresh(hyper)))
            assert _hexes(value) == _hexes(_dense_ratio(hyper.table, counts.table))
            new = rng.permutation(counts.table.ravel()).reshape(counts.table.shape)
            if new.ndim == 3 and rng.random() < 0.5:
                new = new[0]  # one table of new data against each posterior of the stack
            new = CountTable(counts.order, counts.alphabet, new)
            predictive = _hexes(log_predictive(counts, new, hyper))
            assert predictive == _hexes(_dense_ratio(posterior(counts, hyper).table, new.table))
            # the evidence of the new counts with the posterior as their prior
            assert predictive == _hexes(log_evidence(new, posterior(counts, hyper)))
        for (counts, hyper), m in zip(pairs, energy_moments_of(pairs)):
            assert _fields_hex(m) == _fields_hex(energy_moments(counts, fresh(hyper)))
            # within the oracle's bound of the terms on every entry and word, summed exactly
            for errors in energy_errors(m, counts, hyper):
                assert max(errors.values()) <= ENERGY_ULPS, errors

    def test_empty_batch(self):
        # one value per pair: none for no pairs
        assert log_evidences([]) == [] and energy_moments_of([]) == []


class TestPerTableFunctionsRejectStacks:
    """kl_of, infer_table and marginal take one table: a stack raises, rather than mixing
    one table's word column with another's rows or failing on an unrelated broadcast or
    conversion."""

    @pytest.mark.parametrize("name", ["kl_of", "infer_table", "marginal"])
    @pytest.mark.parametrize("k, G", [(1, 2), (2, 3)])  # G = A**k, then G != A**k
    def test_stack_raises_naming_the_function(self, name, k, G):
        rng = np.random.default_rng(k)
        counts = CountTable(k, BINARY, rng.integers(0, 9, size=(G, 2**k, 2)))
        hyper = uniform_hyper(k, BINARY)
        q = r_from(posterior(counts, hyper))
        cond = rng.uniform(0.1, 1.0, size=q.cond_probs.shape)
        cond /= cond.sum(axis=-1, keepdims=True)  # a matching stack of conditionals
        call = {"kl_of": lambda: kl_of(q, cond),
                "infer_table": lambda: infer_table(counts, hyper),
                "marginal": lambda: marginal(posterior(counts, hyper), 0, 1)}[name]
        with pytest.raises(ValueError, match=rf"^{name} takes one table, not a stack of "
                                             rf"shape \({G}, {2**k}, 2\)$"):
            call()

    def test_energy_moments_reject_a_hyper_stack(self):
        # a stack of counts takes one prior; the prior's share is cached per table
        counts = CountTable(1, BINARY, [[3.0, 1.0], [2.0, 4.0]])
        hyper = HyperTable(1, BINARY, np.ones((3, 2, 2)))
        with pytest.raises(ValueError, match=r"^energy_moments takes one hyper table, not a "
                                             r"stack of shape \(3, 2, 2\)$"):
            energy_moments(counts, hyper)


def _order_case(G, K, seed):
    """K orders drawn from 1..20, each mapped to G log evidences
    from -1e6 to 0, a row's orders from 0.01 to 1e4 nats below its own level,
    and about a third of them tied with the row's first order or at -1e6."""
    rng = np.random.default_rng(seed)
    values = -(10.0 ** rng.uniform(0, 6, size=(G, 1))) - 10.0 ** rng.uniform(-2, 4, size=(G, K))
    ties = rng.random((G, K)) < 0.3
    values[ties] = np.broadcast_to(values[:, :1], (G, K))[ties]
    values = np.maximum(values, -1e6)
    orders = rng.choice(np.arange(1, 21), size=K, replace=False).tolist()
    return {k: values[:, i] for i, k in enumerate(orders)}


class TestOrderPosteriorStack:
    @settings(max_examples=150, deadline=None)
    # K >= 8 orders reach numpy's pairwise sum
    @given(st.integers(1, 6), st.integers(1, 16), st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_rows_equal_lone_calls(self, G, K, A, seed):
        evidences = _order_case(G, K, seed)
        for compare, penalty in ((compare_uniform, lambda k: 0),
                                 (lambda e: compare_penalized(e, A), lambda k: free_params(k, A))):
            stacked = compare(evidences)
            assert stacked.probabilities.shape == stacked.log_evidence.shape == (G, K)
            lones = [compare({k: float(v[g]) for k, v in evidences.items()}) for g in range(G)]
            for row, lone in zip(stacked.probabilities, lones):
                assert _hexes(row) == _hexes(lone.probabilities)
                # a lone row: each order's exp, shifted by the row's maximum, over one np.sum
                scores = lone.log_evidence - np.array([penalty(k) for k in lone.orders], float)
                w = np.exp(scores - scores.max())
                assert _hexes(lone.probabilities) == _hexes(w / w.sum())
            for k in stacked.orders:
                assert _hexes(stacked.probability(k)) == [lone.probability(k).hex()
                                                          for lone in lones]
            assert map_order(stacked).tolist() == [map_order(lone) for lone in lones]
