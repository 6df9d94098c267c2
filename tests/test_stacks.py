"""A (G, A**k, A) stack of count or hyper tables against its tables one by one.

The sweep computes each order's evidence and energy moments for a chunk of
the N grid in one call on a stack; every value must equal the call on the
lone table bit for bit, so that the CSV outputs do not depend on how the
grid is chunked.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayesmc import (
    Alphabet,
    CountTable,
    HyperTable,
    WordConditional,
    energy_moments,
    hmu_of,
    kl_of,
    log_evidence,
    posterior,
    r_from,
    sample_posterior,
)
from bayesmc.core import ShapeMismatchError
from bayesmc.inference import density_grid

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
