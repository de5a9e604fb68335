"""Shared-memory segment publish/attach round-trips and ownership."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ShardError
from repro.shard import leaked_segments
from repro.shard.store import AttachedSegment, SegmentOwner, SegmentSpec

pytestmark = pytest.mark.shard


class TestSegmentRoundTrip:
    def test_publish_attach_preserves_bits(self):
        owner = SegmentOwner()
        try:
            array = np.arange(96, dtype=np.float32).reshape(12, 8) / 7.0
            spec = owner.publish(array)
            assert spec.shape == (12, 8)
            assert spec.dtype == "float32"
            view = AttachedSegment(spec)
            try:
                assert np.array_equal(view.array, array)
            finally:
                view.close()
        finally:
            owner.close()

    def test_attached_view_is_read_only(self):
        owner = SegmentOwner()
        try:
            view = AttachedSegment(owner.publish(np.zeros(4, dtype=np.int8)))
            try:
                with pytest.raises(ValueError):
                    view.array[0] = 1
            finally:
                view.close()
        finally:
            owner.close()

    def test_spec_pickles_through_the_envelope(self):
        spec = SegmentSpec(name="x", dtype="float16", shape=(3, 5))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.nbytes == 3 * 5 * 2

    def test_attach_after_unlink_raises_shard_error(self):
        owner = SegmentOwner()
        spec = owner.publish(np.ones(8))
        owner.unlink(spec.name)
        with pytest.raises(ShardError):
            AttachedSegment(spec)


class TestOwnership:
    def test_unlink_is_idempotent_and_close_clears_all(self):
        owner = SegmentOwner()
        specs = [owner.publish(np.full(16, i, dtype=np.int64)) for i in range(3)]
        assert owner.segment_names() == sorted(s.name for s in specs)
        assert leaked_segments(owner.prefix) == sorted(s.name for s in specs)
        owner.unlink(specs[0].name)
        owner.unlink(specs[0].name)
        owner.close()
        owner.close()
        assert owner.segment_names() == []
        assert leaked_segments(owner.prefix) == []

    def test_worker_close_does_not_unlink(self):
        owner = SegmentOwner()
        try:
            spec = owner.publish(np.arange(5))
            view = AttachedSegment(spec)
            view.close()
            # Owner's copy survives a reader detach; a fresh attach works.
            again = AttachedSegment(spec)
            assert np.array_equal(again.array, np.arange(5))
            again.close()
        finally:
            owner.close()
        assert leaked_segments(owner.prefix) == []
