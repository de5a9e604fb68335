"""Unit tests for the unified ejoin() entry point."""

import numpy as np
import pytest

from repro.core import ThresholdCondition, TopKCondition, ejoin, tensor_join
from repro.core.join import STRATEGIES
from repro.errors import JoinError
from repro.index import FlatIndex

THRESHOLD = ThresholdCondition(0.4)


@pytest.fixture()
def flat_index(small_vectors):
    _, right = small_vectors
    idx = FlatIndex(right.shape[1])
    idx.add(right)
    return idx


class TestDispatch:
    def test_all_scan_strategies_agree(self, small_vectors):
        left, right = small_vectors
        reference = tensor_join(left, right, THRESHOLD).pairs()
        for strategy in ("nlj", "nlj-scalar", "tensor", "parallel-tensor"):
            got = ejoin(left, right, THRESHOLD, strategy=strategy)
            assert got.pairs() == reference, strategy

    def test_index_strategy(self, small_vectors, flat_index):
        left, right = small_vectors
        got = ejoin(
            left, None, TopKCondition(2), strategy="index", index=flat_index
        )
        expected = tensor_join(left, right, TopKCondition(2))
        assert got.pairs() == expected.pairs()

    def test_naive_strategy_with_items(self, hash_model):
        left = ["aa", "bb"]
        right = ["aa", "cc"]
        result = ejoin(
            left, right, ThresholdCondition(0.95), model=hash_model,
            strategy="naive-nlj",
        )
        assert (0, 0) in result.pairs()

    def test_strategy_names_constant(self):
        assert "auto" in STRATEGIES and "tensor" in STRATEGIES


class TestValidation:
    def test_condition_required(self, small_vectors):
        left, right = small_vectors
        with pytest.raises(JoinError, match="condition"):
            ejoin(left, right, None)

    def test_unknown_strategy(self, small_vectors):
        left, right = small_vectors
        with pytest.raises(JoinError, match="unknown strategy"):
            ejoin(left, right, THRESHOLD, strategy="hash-join")

    def test_index_strategy_needs_index(self, small_vectors):
        left, right = small_vectors
        with pytest.raises(JoinError, match="index"):
            ejoin(left, right, THRESHOLD, strategy="index")

    def test_tensor_needs_right(self, small_vectors):
        left, _ = small_vectors
        with pytest.raises(JoinError, match="right"):
            ejoin(left, None, THRESHOLD, strategy="tensor")

    def test_naive_needs_model(self, small_vectors):
        left, right = small_vectors
        with pytest.raises(JoinError, match="model"):
            ejoin(left, right, THRESHOLD, strategy="naive-nlj")

    def test_auto_without_inputs(self, small_vectors):
        left, _ = small_vectors
        with pytest.raises(JoinError, match="right input or index"):
            ejoin(left, None, THRESHOLD, strategy="auto")


class TestAutoSelection:
    def test_auto_small_input_uses_tensor(self, small_vectors):
        left, right = small_vectors
        result = ejoin(left, right, THRESHOLD, strategy="auto")
        assert result.stats.strategy == "tensor"

    def test_auto_large_input_parallel(self):
        rng = np.random.default_rng(80)
        left = rng.standard_normal((2100, 4)).astype(np.float32)
        right = rng.standard_normal((2100, 4)).astype(np.float32)
        result = ejoin(left, right, ThresholdCondition(0.99), strategy="auto")
        assert result.stats.strategy.startswith("parallel-tensor")

    def test_auto_prefers_index_at_full_selectivity(self, small_vectors, flat_index):
        """With an index and no filter, the cost model picks the probe for
        top-1 against a large-enough base (emulated via cost params)."""
        left, right = small_vectors
        from repro.core import CostParams

        cheap_probe = CostParams(probe_hop=0.0001, probe_beam=0.001)
        result = ejoin(
            left,
            right,
            TopKCondition(1),
            strategy="auto",
            index=flat_index,
            cost_params=cheap_probe,
            selectivity_hint=1.0,
        )
        assert result.stats.strategy.startswith("index")

    def test_auto_prefers_scan_at_low_selectivity(self, small_vectors, flat_index):
        left, right = small_vectors
        result = ejoin(
            left,
            right,
            TopKCondition(1),
            strategy="auto",
            index=flat_index,
            selectivity_hint=0.01,
        )
        assert result.stats.strategy == "tensor"

    def test_auto_index_only_base(self, small_vectors, flat_index):
        left, _ = small_vectors
        result = ejoin(
            left, None, TopKCondition(1), strategy="auto", index=flat_index,
            selectivity_hint=0.0001,
        )
        assert result.stats.strategy.startswith("index")


class TestRawItems:
    def test_items_with_model(self, hash_model):
        left = ["barbecue", "piano"]
        right = ["barbeque", "pianos", "sqlite"]
        result = ejoin(
            left, right, TopKCondition(1), model=hash_model, strategy="tensor"
        )
        best = dict(zip(result.left_ids.tolist(), result.right_ids.tolist()))
        assert best[0] == 0  # barbecue -> barbeque
        assert best[1] == 1  # piano -> pianos

    def test_parallel_tensor_with_items(self, hash_model):
        result = ejoin(
            ["a", "b"],
            ["a", "c"],
            ThresholdCondition(0.9),
            model=hash_model,
            strategy="parallel-tensor",
            n_threads=2,
        )
        assert (0, 0) in result.pairs()
