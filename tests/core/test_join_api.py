"""Unit tests for the unified ejoin() entry point."""

import numpy as np
import pytest

from repro.core import (
    ThresholdCondition,
    TopKCondition,
    ejoin,
    quantized_tensor_join,
    tensor_join,
)
from repro.core.join import STRATEGIES
from repro.engine import ExecutionEngine
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

    @pytest.mark.usefixtures("schedule_every_task")
    def test_every_scan_label_reads_one_representation(self, small_vectors):
        """A scan label reads exactly one representation of the right side:
        ``ejoin`` under it is that representation's door, bit for bit —
        ``parallel-tensor`` the fp32 door on an ``n_threads`` engine."""
        left, right = small_vectors
        scans = {
            label: (reads, engine_kind)
            for label, (access, reads, engine_kind) in STRATEGIES.items()
            if access == "scan"
        }
        assert scans == {
            "tensor": ("fp32", None),
            "tensor-int8": ("int8", None),
            "parallel-tensor": ("fp32", "threads"),
        }
        for condition in (THRESHOLD, TopKCondition(3)):
            for label, (reads, engine_kind) in scans.items():
                threads = {"n_threads": 2} if engine_kind else {}
                got = ejoin(left, right, condition, strategy=label, **threads)
                if reads == "fp32":
                    engine = ExecutionEngine(n_threads=2) if engine_kind else None
                    want = tensor_join(left, right, condition, engine=engine)
                else:
                    want = quantized_tensor_join(left, right, condition, method=reads)
                assert len(got) > 0, label
                for name in ("left_ids", "right_ids", "scores"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), label
                assert got.stats.strategy == (f"{label}/2t" if engine_kind else label)

    def test_strategy_names_constant(self):
        """Every label names one path; none asks ``ejoin`` to choose one."""
        assert "auto" not in STRATEGIES and "tensor" in STRATEGIES
        assert len(STRATEGIES) == 7

    def test_defaults_to_the_fp32_scan(self):
        """With no label ``ejoin`` runs the one-worker fp32 scan whatever
        the input size, an index at hand or not: it picks nothing."""
        rng = np.random.default_rng(80)
        left = rng.standard_normal((2100, 4)).astype(np.float32)
        right = rng.standard_normal((2100, 4)).astype(np.float32)
        index = FlatIndex(4)
        index.add(right)
        condition = ThresholdCondition(0.99)
        got = ejoin(left, right, condition, index=index)
        assert got.stats.strategy == "tensor"
        assert got.pairs() == tensor_join(left, right, condition).pairs()


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
