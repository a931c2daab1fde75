"""FlowTable: amortized growth + order-preserving compaction.

Property-tests the columnar flow store against a naive list-of-rows
model under random arrive/finish interleavings — the exact workload the
fabric puts on it — plus direct checks of the amortized-doubling
capacity policy and the order-preserving removal contract that the
byte-identical ``repro bench --check`` guarantee relies on.  Every
table carries the fixed ``remaining``/``rate`` columns ahead of the
declared extras; the drain itself is tested in ``test_fastdrain.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.flowarray import FlowTable


def make_table():
    return FlowTable(src=np.int64, dst=np.int64, size=np.float64)


def row(s, d, z):
    """Append values: the fixed remaining/rate columns, then the extras."""
    return (2.0 * z, 0.5 * z, s, d, z)


class TestBasics:
    def test_empty(self):
        tab = make_table()
        assert tab.n == 0
        assert tab.col("src").shape == (0,)

    def test_append_and_views(self):
        tab = make_table()
        tab.append(*row(1, 2, 10.0))
        tab.append(*row(3, 4, 20.0))
        assert tab.n == 2
        assert tab.col("src").tolist() == [1, 3]
        assert tab.col("size").tolist() == [10.0, 20.0]

    def test_views_are_live(self):
        tab = make_table()
        tab.append(*row(1, 2, 10.0))
        view = tab.col("size")
        view[0] = 99.0
        assert tab.col("size")[0] == 99.0

    def test_narrow_column_rejected(self):
        # The C drain compacts extra columns as 8-byte words.
        with pytest.raises(ValueError, match="8 bytes wide"):
            FlowTable(flag=np.bool_)

    def test_unknown_column_raises(self):
        tab = make_table()
        with pytest.raises(KeyError):
            tab.col("nope")

    def test_fixed_columns_lead(self):
        tab = make_table()
        tab.append(*row(1, 2, 10.0))
        assert tab.col("remaining").tolist() == [20.0]
        assert tab.col("rate").tolist() == [5.0]
        assert tab.col("src").tolist() == [1]

    def test_wrong_row_width_raises(self):
        tab = make_table()
        with pytest.raises(ValueError, match="expected 5 values"):
            tab.append(1, 2, 3.0)


class TestRemoval:
    def test_remove_preserves_order(self):
        tab = make_table()
        for i in range(6):
            tab.append(*row(i, i, float(i)))
        tab.remove(np.array([1, 4]))
        # Survivors keep their relative order — swap-removal would not.
        assert tab.col("src").tolist() == [0, 2, 3, 5]

    def test_remove_all(self):
        tab = make_table()
        for i in range(3):
            tab.append(*row(i, i, float(i)))
        tab.remove(np.array([0, 1, 2]))
        assert tab.n == 0

    def test_remove_then_append_reuses_capacity(self):
        tab = make_table()
        for i in range(5):
            tab.append(*row(i, i, float(i)))
        cap_before = tab._capacity
        tab.remove(np.array([0]))
        tab.append(*row(9, 9, 9.0))
        assert tab._capacity == cap_before
        assert tab.col("src").tolist() == [1, 2, 3, 4, 9]


class TestAmortizedGrowth:
    def test_capacity_doubles(self):
        tab = make_table()
        caps = set()
        for i in range(200):
            tab.append(*row(i, i, float(i)))
            caps.add(tab._capacity)
        # Doubling from the minimum: a handful of distinct capacities,
        # not one per append.
        assert len(caps) <= 6
        for c in caps:
            assert c & (c - 1) == 0 or c == tab._MIN_CAPACITY

    def test_growth_keeps_data(self):
        tab = make_table()
        for i in range(100):
            tab.append(*row(i, 2 * i, float(i)))
        assert tab.col("dst").tolist() == [2 * i for i in range(100)]


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 9), st.integers(0, 9),
                  st.floats(0.0, 1e9, allow_nan=False)),
        st.tuples(st.just("remove"), st.integers(0, 2 ** 30))),
    max_size=60))
def test_matches_naive_list_model(ops):
    """Random arrive/finish interleavings match a list-of-rows model."""
    import random

    tab = make_table()
    model = []
    for op in ops:
        if op[0] == "append":
            _, s, d, z = op
            tab.append(*row(s, d, z))
            model.append((s, d, z))
        else:
            if not model:
                continue
            rng = random.Random(op[1])
            k = rng.randint(1, len(model))
            drop = sorted(rng.sample(range(len(model)), k))
            tab.remove(np.array(drop, dtype=np.int64))
            dropped = set(drop)
            model = [r for i, r in enumerate(model) if i not in dropped]
        assert tab.n == len(model)
        assert tab.col("src").tolist() == [r[0] for r in model]
        assert tab.col("dst").tolist() == [r[1] for r in model]
        assert tab.col("size").tolist() == [r[2] for r in model]
        assert tab.col("remaining").tolist() == [2.0 * r[2] for r in model]
        assert tab.col("rate").tolist() == [0.5 * r[2] for r in model]
