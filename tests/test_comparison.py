import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bayesmc import (
    compare_penalized,
    compare_uniform,
    free_params,
    log_evidence,
    map_order,
    uniform_hyper,
)
from bayesmc import average_counts, golden_mean


def evidences_for(hmm, N, orders):
    out = {}
    for k in orders:
        counts = average_counts(hmm, N, k)
        out[k] = log_evidence(counts, uniform_hyper(k, hmm.alphabet, 1.0))
    return out


class TestFreeParams:
    def test_binary(self):
        assert [free_params(k, 2) for k in (1, 2, 3)] == [2, 4, 8]

    def test_ternary(self):
        assert free_params(2, 3) == 18

    def test_invalid(self):
        with pytest.raises(ValueError):
            free_params(0, 2)
        with pytest.raises(ValueError):
            free_params(1, 1)


class TestUniformPrior:
    def test_equal_evidence_is_flat(self):
        op = compare_uniform({1: -10.0, 2: -10.0, 3: -10.0})
        np.testing.assert_allclose(op.probabilities, 1.0 / 3.0, atol=1e-12)

    def test_two_orders_ratio(self):
        op = compare_uniform({1: 0.0, 2: math.log(3.0)})
        assert op.probability(1) == pytest.approx(0.25, abs=1e-12)
        assert op.probability(2) == pytest.approx(0.75, abs=1e-12)

    def test_normalized_and_sorted(self):
        op = compare_uniform({3: -5.0, 1: -4.0, 2: -6.0})
        assert op.orders == (1, 2, 3)
        assert op.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_extreme_evidences_stable(self):
        op = compare_uniform({1: -1e6, 2: -1e6 + 1.0})
        assert np.all(np.isfinite(op.probabilities))
        assert op.probability(2) == pytest.approx(math.e / (1 + math.e), abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            compare_uniform({})

    @given(st.lists(st.floats(-1e4, 0.0), min_size=1, max_size=6))
    def test_probabilities_valid(self, evs):
        op = compare_uniform({k + 1: v for k, v in enumerate(evs)})
        assert op.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(op.probabilities >= 0)


class TestPenalizedPrior:
    def test_penalty_shifts_log_scores(self):
        evs = {1: -3.0, 2: -1.0}
        op = compare_penalized(evs, 2)
        # scores -3-2 and -1-4: order 2 keeps the same margin as uniform
        expected = math.exp(0.0) / (math.exp(0.0) + math.exp(0.0))
        assert op.probability(2) == pytest.approx(expected, abs=1e-12)

    def test_penalty_prefers_smaller_order_on_equal_evidence(self):
        op = compare_penalized({1: -10.0, 2: -10.0, 3: -10.0}, 2)
        assert map_order(op) == 1
        assert op.probability(1) > op.probability(2) > op.probability(3)

    def test_matches_manual_weights(self):
        evs = {1: -7.0, 2: -4.0, 3: -3.5}
        op = compare_penalized(evs, 2)
        w = np.array([math.exp(evs[k] - free_params(k, 2)) for k in (1, 2, 3)])
        np.testing.assert_allclose(op.probabilities, w / w.sum(), atol=1e-12)


class TestMapOrder:
    def test_simple(self):
        assert map_order(compare_uniform({1: -2.0, 2: -1.0, 3: -3.0})) == 2

    def test_tie_goes_to_smallest(self):
        assert map_order(compare_uniform({2: -1.0, 5: -1.0})) == 2


class TestOnGoldenMean:
    def test_order_one_wins_eventually(self):
        evs = evidences_for(golden_mean(), 5000, range(1, 5))
        op = compare_uniform(evs)
        assert map_order(op) == 1

    def test_selection_sharpens_with_data(self):
        p1 = [
            compare_uniform(evidences_for(golden_mean(), N, range(1, 5))).probability(1)
            for N in (500, 2000, 8000)
        ]
        assert p1[0] < p1[1] < p1[2]

    def test_penalty_suppresses_high_orders_at_small_n(self):
        evs = evidences_for(golden_mean(), 200, range(1, 5))
        op = compare_penalized(evs, 2)
        assert map_order(op) == 1
        assert op.probability(4) < 1e-2


class TestStack:
    EVIDENCES = {1: [-10.0, -3.0, -5.0], 2: [-9.0, -3.0, -7.0]}

    def test_lone_values_stay_scalars(self):
        op = compare_uniform({k: v[0] for k, v in self.EVIDENCES.items()})
        assert op.probabilities.shape == (2,)
        assert type(op.probability(2)) is float
        assert type(map_order(op)) is int and map_order(op) == 2

    def test_one_value_per_table(self):
        op = compare_uniform(self.EVIDENCES)
        assert op.log_evidence.tolist() == [[-10.0, -9.0], [-3.0, -3.0], [-5.0, -7.0]]
        np.testing.assert_allclose(op.probabilities.sum(axis=1), 1.0, atol=1e-15)
        assert op.probability(1).shape == (3,)
        assert map_order(op).tolist() == [2, 1, 1]  # the tie goes to the smallest k

    def test_nan_has_no_map_order(self):
        with pytest.raises(ValueError, match="nan"):
            map_order(compare_uniform({1: [0.0, math.nan], 2: [0.0, -1.0]}))
