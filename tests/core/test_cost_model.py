"""Unit tests for the cost model and access-path selection."""

import pytest

from repro.core import CostParams, choose_access_path, crossover_selectivity
from repro.core.cost_model import (
    e_selection_cost,
    index_probe_cost,
    naive_nlj_cost,
    prefetch_nlj_cost,
    probed_scan_cost,
    scan_join_cost_filtered,
    tensor_join_cost,
)
from repro.errors import JoinError


@pytest.fixture()
def params():
    return CostParams()


class TestCostEquations:
    def test_selection_linear(self, params):
        assert e_selection_cost(200, 100, params) == pytest.approx(
            2 * e_selection_cost(100, 100, params)
        )

    def test_naive_quadratic_in_model(self, params):
        """Doubling both sides quadruples naive cost but far less than
        quadruples prefetch cost when model dominates."""
        expensive = CostParams(model=10_000.0, compute_per_dim=0.001)
        naive_1 = naive_nlj_cost(100, 100, 100, expensive)
        naive_2 = naive_nlj_cost(200, 200, 100, expensive)
        assert naive_2 / naive_1 == pytest.approx(4.0)
        pre_1 = prefetch_nlj_cost(100, 100, 100, expensive)
        pre_2 = prefetch_nlj_cost(200, 200, 100, expensive)
        assert pre_2 / pre_1 < 3.0  # model term is linear

    def test_prefetch_dominates_naive(self, params):
        for n in (10, 100, 1000):
            assert prefetch_nlj_cost(n, n, 100, params) < naive_nlj_cost(
                n, n, 100, params
            )

    def test_tensor_beats_prefetch(self, params):
        assert tensor_join_cost(1000, 1000, 100, params) < prefetch_nlj_cost(
            1000, 1000, 100, params
        )

    def test_scalar_kernel_penalty(self, params):
        fast = prefetch_nlj_cost(100, 100, 100, params)
        slow = prefetch_nlj_cost(100, 100, 100, params, scalar_kernel=True)
        assert slow > fast

    def test_validation(self):
        with pytest.raises(JoinError):
            CostParams(model=-1).validate()
        CostParams().validate()


class TestIndexProbeCost:
    def test_logarithmic_in_base(self, params):
        small = index_probe_cost(1_000, 1, 100, params)
        big = index_probe_cost(1_000_000, 1, 100, params)
        assert big < small * 10  # log growth, not linear

    def test_filter_penalty(self, params):
        full = index_probe_cost(10_000, 1, 100, params, selectivity=1.0)
        filtered = index_probe_cost(10_000, 1, 100, params, selectivity=0.01)
        assert filtered > full

    def test_deeper_k_costs_more(self, params):
        k1 = index_probe_cost(10_000, 1, 100, params, ef_search=1)
        k32 = index_probe_cost(10_000, 64, 100, params, ef_search=1)
        assert k32 > k1

    def test_empty_base(self, params):
        assert index_probe_cost(0, 1, 100, params) == 0.0


class TestAccessPathSelection:
    def test_scan_wins_low_selectivity(self, params):
        decision = choose_access_path(
            1_000, 1_000_000, 1, 100, selectivity=0.01, params=params
        )
        assert decision.choice == "scan"

    def test_index_wins_high_selectivity_top1(self, params):
        decision = choose_access_path(
            1_000, 1_000_000, 1, 100, selectivity=1.0, params=params
        )
        assert decision.choice == "index"

    def test_a_cheap_probe_moves_a_small_join_onto_the_index(self, params):
        """30 x 40 x 8, top-1: the scan wins at default prices and at 1%
        selectivity; a near-free probe wins at full selectivity."""
        shape = (30, 40, 1, 8)
        assert choose_access_path(*shape, params=params).choice == "scan"
        assert choose_access_path(*shape, selectivity=0.01, params=params).choice == "scan"
        cheap = CostParams(probe_hop=0.0001, probe_beam=0.001)
        assert choose_access_path(*shape, params=cheap).choice == "index"

    def test_no_index_forces_scan(self, params):
        decision = choose_access_path(
            1_000, 1_000_000, 1, 100, selectivity=1.0, index_available=False
        )
        assert decision.choice == "scan"
        assert decision.index_cost == float("inf")

    def test_decision_ratio(self, params):
        decision = choose_access_path(100, 10_000, 1, 100, selectivity=0.05)
        assert decision.ratio == pytest.approx(
            decision.index_cost / decision.scan_cost
        )

    def test_filtered_scan_cheaper_than_full(self, params):
        full = scan_join_cost_filtered(100, 100_000, 100, params, selectivity=1.0)
        filtered = scan_join_cost_filtered(
            100, 100_000, 100, params, selectivity=0.01
        )
        assert filtered < full


class TestCapPricing:
    """A cached cap partition prices the scan as a probed scan, like an IVF
    (``(lists, share)``), and can only move an index pick onto the scan."""

    #: ``ejoin_vectors``: 1,000 x 40,000 x 128, 625 caps, IVF 128 / 8.
    SHAPE, CAPS, IVF = (1_000, 40_000, 8, 128), (625, 0.0065), (128, 8 / 128)

    def test_caps_beat_an_ivf_that_beat_the_dense_scan(self):
        assert choose_access_path(*self.SHAPE).choice == "index"
        decision = choose_access_path(*self.SHAPE, caps=self.CAPS, index_lists=self.IVF)
        assert decision.choice == "scan" and decision.caps_share == self.CAPS[1]
        assert decision.scan_cost == probed_scan_cost(
            1_000, 40_000, 128, CostParams(), *self.CAPS
        )

    def test_an_ivf_probing_less_than_the_caps_keep_stays(self):
        decision = choose_access_path(*self.SHAPE, caps=(625, 0.1), index_lists=self.IVF)
        assert decision.choice == "index" and decision.index_cost < decision.scan_cost

    def test_a_dense_scan_pick_never_moves_onto_the_index(self):
        shape = (200, 4_500, 5, 16)
        assert choose_access_path(*shape).choice == "scan"
        decision = choose_access_path(*shape, caps=(70, 0.2), index_lists=(64, 1 / 64))
        assert decision.choice == "scan" and decision.caps_share is None

    def test_a_graph_keeps_its_own_price(self):
        dense = choose_access_path(*self.SHAPE)
        decision = choose_access_path(*self.SHAPE, caps=self.CAPS)
        assert decision.index_cost == dense.index_cost and decision.choice == "scan"


class TestCrossover:
    def test_topk1_crossover_exists(self, params):
        """Figure 15 shape: for top-1 there is a selectivity above which
        the index wins."""
        crossover = crossover_selectivity(10_000, 1_000_000, 1, 100)
        assert crossover is not None
        assert 0.0 < crossover <= 1.0

    def test_deeper_k_pushes_crossover_up(self, params):
        """Figure 16 shape: top-32 moves the crossover to higher
        selectivity (or off the chart)."""
        c1 = crossover_selectivity(10_000, 1_000_000, 1, 100)
        c32 = crossover_selectivity(10_000, 1_000_000, 32, 100, ef_search=64)
        if c32 is not None:
            assert c32 >= c1
        # c32 may be None (index never wins) — also a valid Fig-16 shape.

    def test_monotone_decision_in_selectivity(self, params):
        """Once the index wins, it keeps winning at higher selectivity."""
        seen_index = False
        for step in range(1, 101):
            sel = step / 100
            decision = choose_access_path(
                10_000, 1_000_000, 1, 100, selectivity=sel
            )
            if decision.choice == "index":
                seen_index = True
            elif seen_index:
                pytest.fail(f"decision flipped back to scan at {sel}")
