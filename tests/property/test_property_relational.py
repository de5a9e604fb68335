"""Property-based tests for relational substrate invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.query import Engine
from repro.relational import Catalog, Col, DataType, Field, Schema, Table

values = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=40
)


def make_table(ints):
    schema = Schema.of(Field("x", DataType.INT64), Field("pos", DataType.INT64))
    return Table.from_arrays(
        schema,
        {"x": np.asarray(ints), "pos": np.arange(len(ints), dtype=np.int64)},
    )


class TestTableProperties:
    @given(ints=values)
    @settings(max_examples=80, deadline=None)
    def test_mask_then_concat_partition(self, ints):
        """mask(p) + mask(~p) partitions the table."""
        t = make_table(ints)
        bitmap = np.asarray(ints) > 0
        kept = t.mask(bitmap)
        dropped = t.mask(~bitmap)
        assert kept.num_rows + dropped.num_rows == t.num_rows
        merged = set(kept.array("pos").tolist()) | set(
            dropped.array("pos").tolist()
        )
        assert merged == set(range(t.num_rows))

    @given(ints=values, seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=80, deadline=None)
    def test_take_permutation_roundtrip(self, ints, seed):
        t = make_table(ints)
        perm = np.random.default_rng(seed).permutation(t.num_rows)
        inverse = np.argsort(perm)
        roundtrip = t.take(perm).take(inverse)
        assert roundtrip.array("x").tolist() == t.array("x").tolist()

    @given(ints=values)
    @settings(max_examples=80, deadline=None)
    def test_sort_is_ordered_permutation(self, ints):
        t = make_table(ints).sort_by("x")
        xs = t.array("x").tolist()
        assert xs == sorted(ints)
        assert sorted(t.array("pos").tolist()) == list(range(len(ints)))

    @given(ints=values, threshold=st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=80, deadline=None)
    def test_filter_complement(self, ints, threshold):
        t = make_table(ints)
        pred = Col("x") > threshold
        bitmap = pred.evaluate(t)
        negated = (~pred).evaluate(t)
        assert (bitmap ^ negated).all()

    @given(ints=values)
    @settings(max_examples=50, deadline=None)
    def test_to_dicts_roundtrip(self, ints):
        t = make_table(ints)
        rebuilt = Table.from_dicts(t.schema, t.to_dicts())
        assert rebuilt.array("x").tolist() == t.array("x").tolist()


#: A small key domain: duplicates on both sides, keys only one side has,
#: and (with an empty list) an empty side all come up.
keys = st.lists(st.integers(min_value=0, max_value=6), max_size=25)


def keyed_table(ints, as_strings, *, vec_dim=0):
    """``k | pos [| vec]``: the key, the row's position, an embedding."""
    fields = [
        Field("k", DataType.STRING if as_strings else DataType.INT64),
        Field("pos", DataType.INT64),
    ]
    arrays = {
        "k": [f"key-{v}" for v in ints] if as_strings else np.asarray(ints, dtype=np.int64),
        "pos": np.arange(len(ints), dtype=np.int64),
    }
    if vec_dim:
        fields.append(Field("vec", DataType.TENSOR, dim=vec_dim))
        arrays["vec"] = np.ones((len(ints), vec_dim), dtype=np.float32)
    return Table.from_arrays(Schema.of(*fields), arrays)


class TestEquiJoinProperties:
    @given(left=keys, right=keys, as_strings=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_join_matches_the_dict_of_lists_oracle(self, left, right, as_strings):
        """``QueryBuilder.join`` against the textbook build/probe: output is
        left-major, each left row's matches in ascending right position,
        shared names take ``l_`` / ``r_``, the rest keep theirs."""
        catalog = Catalog()
        catalog.register("l", keyed_table(left, as_strings))
        catalog.register("r", keyed_table(right, as_strings, vec_dim=2))
        engine = Engine(catalog)
        out = engine.query("l").join("r", left_on="k", right_on="k").execute()

        positions = {}
        for j, key in enumerate(right):
            positions.setdefault(key, []).append(j)
        pairs = [(i, j) for i, key in enumerate(left) for j in positions.get(key, ())]
        assert out.schema.names == ("l_k", "l_pos", "r_k", "r_pos", "vec")
        assert out.array("l_pos").tolist() == [i for i, _ in pairs]
        assert out.array("r_pos").tolist() == [j for _, j in pairs]
        assert out.array("l_k").tolist() == out.array("r_k").tolist()
        assert out.array("vec").shape == (len(pairs), 2)
        assert out.array("l_pos").dtype == np.int64  # also when no row matched

        with pytest.raises(TypeMismatchError, match="tensor keys"):
            engine.query("l").join("r", left_on="k", right_on="vec").execute()
