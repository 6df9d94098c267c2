"""A (G, A**k, A) stack of count or hyper tables against its tables one by one.

The sweep computes the evidence and energy moments of all its orders, and the
order posteriors over them, for a chunk of the N grid in one call on their
stacks; every value must equal the call on the lone table bit for bit, so that
the CSV outputs do not depend on how the grid is chunked.
"""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bayesmc
from bayesmc import (
    Alphabet,
    CountTable,
    HyperTable,
    SymbolSequence,
    WordConditional,
    average_counts,
    compare_penalized,
    compare_uniform,
    energy_moments,
    energy_moments_of,
    even_process,
    free_params,
    hmu_of,
    hyper_from_fake_counts,
    kl_of,
    log_evidence,
    log_evidences,
    log_predictive,
    map_order,
    marginal,
    posterior,
    posterior_mean,
    posterior_variance,
    prefix_counts,
    r_from,
    sample_posterior,
    uniform_hyper,
)
from bayesmc.core import ShapeMismatchError, require_same_shape
from bayesmc.entropy import EnergyMoments
from bayesmc.inference import infer_table

from util import ENERGY_ULPS, density_grid, energy_errors, per_word_evidence

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
        q = r_from(posterior(counts, hyper))
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


class TestPrefixStack:
    """The sweep counts every order of a chunk of its grid in one prefix_counts call."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.data())
    def test_stack_equals_tables(self, A, K, G, seed, data):
        k_min = data.draw(st.integers(1, K), label="k_min")
        rng = np.random.default_rng(seed)
        seq = SymbolSequence(Alphabet(tuple("abcd"[:A])), rng.integers(0, A, size=K + 200))
        grid = np.sort(rng.choice(np.arange(K + 1, len(seq) + 1), size=G, replace=False))
        stacks = prefix_counts(seq, grid.tolist(), k_min, K)
        for k, stack in stacks.items():
            assert stack.order == k and stack.table.shape == (G, A**k, A)
            tables = [prefix_counts(seq, [N], k_min, K)[k].table for N in grid]
            assert _hexes(stack.table.ravel()) == _hexes(np.concatenate(tables).ravel())


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


def _fields_hex(m):
    return [_hexes(getattr(m, f)) for f in ("beta", "mean", "variance", "hmu", "asymptotic")]


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
            assert _hexes(value) == _hexes(per_word_evidence(hyper.table, counts.table))
            new = rng.permutation(counts.table.ravel()).reshape(counts.table.shape)
            if new.ndim == 3 and rng.random() < 0.5:
                new = new[0]  # one table of new data against each posterior of the stack
            new = CountTable(counts.order, counts.alphabet, new)
            predictive = _hexes(log_predictive(counts, new, hyper))
            post = posterior(counts, hyper)
            assert predictive == _hexes(per_word_evidence(post.table, new.table))
            # the evidence of the new counts with the posterior as their prior
            assert predictive == _hexes(log_evidence(new, post))
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


def _tables_hex(part):
    return [v.hex() for v in np.asarray(part, dtype=float).ravel().tolist()]


def _parts(value) -> list:
    """The per-table arrays of a result, in a fixed order: a table's entries, a
    WordConditional's two arrays, an EnergyMoments record's fields, each element of a
    list, or the value itself."""
    if isinstance(value, (CountTable, HyperTable)):
        return [value.table]
    if isinstance(value, WordConditional):
        return [value.word_probs, value.cond_probs]
    if isinstance(value, EnergyMoments):
        return [getattr(value, f) for f in ("beta", "mean", "variance", "hmu", "asymptotic")]
    if isinstance(value, list):
        return [part for v in value for part in _parts(v)]
    return [] if value is None else [value]


#: Each public callable that takes a stack of count or hyper tables, of WordConditionals
#: or a grid of data sizes, and gives one value per table, called as f(counts, hyper, rng)
#: with a lone hyper table and a (G, A**k, A) count stack or one of its tables (the data
#: sizes are the tables' totals plus k + 1).  The stack call takes a fresh generator, and
#: the lone calls share one from the same seed.
STACKED = {
    "average_counts": lambda c, h, rng: average_counts(
        even_process(), np.int64(c.total) + c.order + 1, c.order),
    "energy_moments": lambda c, h, rng: energy_moments(c, h),
    "energy_moments_of": lambda c, h, rng: energy_moments_of([(c, h)]),
    "hmu_of": lambda c, h, rng: hmu_of(r_from(posterior(c, h))),
    "hyper_from_fake_counts": lambda c, h, rng: hyper_from_fake_counts(c),
    "log_evidence": lambda c, h, rng: log_evidence(c, h),
    "log_evidences": lambda c, h, rng: log_evidences([(c, h)]),
    "log_predictive": lambda c, h, rng: log_predictive(
        c, CountTable(c.order, c.alphabet, np.arange(27.0).reshape(9, 3)), h),
    "posterior": lambda c, h, rng: posterior(c, h),
    "posterior_mean": lambda c, h, rng: posterior_mean(posterior(c, h)),
    "posterior_variance": lambda c, h, rng: posterior_variance(posterior(c, h)),
    "r_from": lambda c, h, rng: r_from(posterior(c, h)),
    "require_same_shape": lambda c, h, rng: require_same_shape(c, h),  # None, as for a table
    "sample_posterior": lambda c, h, rng: sample_posterior(posterior(c, h), rng),
}

#: Each public callable that takes one table: a stack raises a one-line ValueError that
#: names the function.  Called as f(counts stack, hyper, one counts table).
ONE_TABLE = {
    "kl_of": lambda c, h, t: kl_of(r_from(posterior(c, h)), np.full((9, 3), 1.0 / 3.0)),
    "marginal": lambda c, h, t: marginal(posterior(c, h), 0, 1),
    "infer_table": lambda c, h, t: infer_table(c, h),
    "energy_moments": lambda c, h, t: energy_moments(
        t, HyperTable(h.order, h.alphabet, np.stack([h.table, h.table]))),
}

#: Every other public callable: it takes no count or hyper table, WordConditional or
#: grid of data sizes (table types built from arrays, sequences, sources, special
#: functions, order posteriors over evidences, the energy statistics' record, and the
#: command line), or it counts a sequence: count_words, and prefix_counts, whose stacks
#: TestPrefixStack checks against its lone calls.
NO_TABLE = {
    "Alphabet", "BetaParams", "ConfidenceRegion", "CountTable", "EnergyMoments", "HyperTable",
    "LabeledHMM", "OrderPosterior", "SymbolSequence", "WordConditional", "check_table_size",
    "compare_penalized", "compare_uniform", "confidence_region", "count_words", "digamma",
    "even_process", "free_params", "golden_mean", "inv_reg_inc_beta", "load_hmm",
    "log_gamma", "log_gamma_diff", "main", "map_order", "markov_approximation",
    "prefix_counts", "read_sequence", "reg_inc_beta", "sample_sequence", "sns", "stationary",
    "trigamma", "true_entropy_rate", "uniform_hyper", "weighted_energy",
    "word_distribution", "word_probability", "word_strings", "write_sequence",
}

#: Test oracles in tests/util.py that the package used to define (density_grid,
#: infer_table's density reference, and region_mass): none of them is public again.
ORACLES = {"density_grid", "region_mass"}


def _public_callables() -> set:
    """The public functions and classes, exceptions aside, of bayesmc and its modules."""
    names = set()
    for module in (bayesmc, *(importlib.import_module(f"bayesmc.{m}") for m in (
            "cli", "comparison", "core", "entropy", "inference", "processes", "special"))):
        for name, value in vars(module).items():
            if (not name.startswith("_") and callable(value)
                    and getattr(value, "__module__", "").startswith("bayesmc")
                    and not (isinstance(value, type) and issubclass(value, BaseException))):
                names.add(name)
    return names


class TestPublicSurfaceContract:
    """Every public callable that takes tables either maps a stack to its tables' values,
    bit for bit, or raises on one; a new callable fails until it is classified here."""

    def test_every_public_callable_is_classified(self):
        names, classified = _public_callables(), set(STACKED) | set(ONE_TABLE) | NO_TABLE
        assert sorted(names - classified) == [], "unclassified public callables"
        assert sorted(classified - names) == [], "classified names that are not public"
        assert not (set(STACKED) | set(ONE_TABLE)) & NO_TABLE
        assert not names & ORACLES, "test oracles defined by the package"

    @staticmethod
    def _case():
        rng = np.random.default_rng(33)
        alphabet = Alphabet(tuple("abc"))
        counts = CountTable(2, alphabet, np.floor(rng.uniform(0, 50, size=(4, 9, 3))))
        hyper = HyperTable(2, alphabet, 10.0 ** rng.uniform(-3, 3, size=(9, 3)))
        return counts, hyper, [CountTable(2, alphabet, t) for t in counts.table]

    @pytest.mark.parametrize("name", sorted(STACKED))
    def test_stack_gives_each_tables_value(self, name):
        counts, hyper, tables = self._case()
        stacked = STACKED[name](counts, hyper, np.random.default_rng(9))
        one_by_one = np.random.default_rng(9)
        per_table = [_parts(STACKED[name](t, hyper, one_by_one)) for t in tables]
        parts = _parts(stacked)
        assert all(len(p) == len(parts) for p in per_table)
        for i, part in enumerate(parts):
            assert np.shape(part)[0] == len(tables)
            assert list(map(_tables_hex, part)) == [_tables_hex(p[i]) for p in per_table]

    @pytest.mark.parametrize("name", sorted(ONE_TABLE))
    def test_stack_raises_one_line_naming_the_function(self, name):
        counts, hyper, tables = self._case()
        with pytest.raises(ValueError, match=rf"^{name} takes one ") as raised:
            ONE_TABLE[name](counts, hyper, tables[0])
        assert "\n" not in str(raised.value)
