"""Unit tests for the FREERIDE reduction object."""

import numpy as np
import pytest

from repro.freeride.reduction_object import ReductionObject
from repro.util.errors import ReductionObjectError


class TestAlloc:
    def test_group_ids_are_sequential(self):
        ro = ReductionObject()
        assert ro.alloc(3) == 0
        assert ro.alloc(5) == 1
        assert ro.num_groups == 2
        assert ro.size == 8

    def test_alloc_matrix(self):
        ro = ReductionObject()
        gids = ro.alloc_matrix(4, 3)
        assert gids == [0, 1, 2, 3]
        assert ro.size == 12

    def test_identity_values_per_op(self):
        ro = ReductionObject()
        g_add = ro.alloc(1, "add")
        g_min = ro.alloc(1, "min")
        g_max = ro.alloc(1, "max")
        assert ro.get(g_add, 0) == 0.0
        assert ro.get(g_min, 0) == np.inf
        assert ro.get(g_max, 0) == -np.inf

    def test_invalid_op(self):
        with pytest.raises(ReductionObjectError):
            ReductionObject().alloc(1, "mul")

    def test_invalid_num_elems(self):
        with pytest.raises(ValueError):
            ReductionObject().alloc(0)

    def test_alloc_after_freeze_rejected(self):
        ro = ReductionObject()
        ro.alloc(1)
        ro.freeze_layout()
        with pytest.raises(ReductionObjectError):
            ro.alloc(1)

    def test_nbytes(self):
        ro = ReductionObject()
        ro.alloc(10)
        assert ro.nbytes == 80


class TestAccumulate:
    def test_add(self):
        ro = ReductionObject()
        g = ro.alloc(2)
        ro.accumulate(g, 0, 1.5)
        ro.accumulate(g, 0, 2.5)
        ro.accumulate(g, 1, -1.0)
        assert ro.get(g, 0) == 4.0
        assert ro.get(g, 1) == -1.0

    def test_min_max(self):
        ro = ReductionObject()
        gmin = ro.alloc(1, "min")
        gmax = ro.alloc(1, "max")
        for v in [3.0, 1.0, 2.0]:
            ro.accumulate(gmin, 0, v)
            ro.accumulate(gmax, 0, v)
        assert ro.get(gmin, 0) == 1.0
        assert ro.get(gmax, 0) == 3.0

    def test_update_count(self):
        ro = ReductionObject()
        g = ro.alloc(2)
        ro.accumulate(g, 0, 1.0)
        ro.accumulate(g, 1, 1.0)
        assert ro.update_count == 2

    def test_out_of_range_elem(self):
        ro = ReductionObject()
        g = ro.alloc(2)
        with pytest.raises(ReductionObjectError):
            ro.accumulate(g, 2, 1.0)

    def test_unallocated_group(self):
        ro = ReductionObject()
        with pytest.raises(ReductionObjectError):
            ro.accumulate(0, 0, 1.0)

    def test_accumulate_group_vectorized(self):
        ro = ReductionObject()
        g = ro.alloc(3)
        ro.accumulate_group(g, np.array([1.0, 2.0, 3.0]))
        ro.accumulate_group(g, np.array([1.0, 1.0, 1.0]))
        assert list(ro.get_group(g)) == [2.0, 3.0, 4.0]
        assert ro.update_count == 6

    def test_accumulate_group_shape_check(self):
        ro = ReductionObject()
        g = ro.alloc(3)
        with pytest.raises(ReductionObjectError):
            ro.accumulate_group(g, np.zeros(2))

    def test_accumulate_group_min(self):
        ro = ReductionObject()
        g = ro.alloc(2, "min")
        ro.accumulate_group(g, np.array([3.0, 5.0]))
        ro.accumulate_group(g, np.array([4.0, 2.0]))
        assert list(ro.get_group(g)) == [3.0, 2.0]

    def test_group_view_is_writable(self):
        ro = ReductionObject()
        g = ro.alloc(2)
        view = ro.group_view(g)
        view[0] = 9.0
        assert ro.get(g, 0) == 9.0

    def test_set_overwrites(self):
        ro = ReductionObject()
        g = ro.alloc(1, "min")
        ro.set(g, 0, 5.0)
        assert ro.get(g, 0) == 5.0


class TestMerge:
    def make_pair(self):
        base = ReductionObject()
        base.alloc(2, "add")
        base.alloc(1, "min")
        base.freeze_layout()
        return base, base.clone_empty()

    def test_clone_empty_has_identities(self):
        base, clone = self.make_pair()
        assert clone.get(0, 0) == 0.0
        assert clone.get(1, 0) == np.inf
        assert base.same_layout(clone)

    def test_merge_respects_group_ops(self):
        base, clone = self.make_pair()
        base.accumulate(0, 0, 1.0)
        base.accumulate(1, 0, 5.0)
        clone.accumulate(0, 0, 2.0)
        clone.accumulate(1, 0, 3.0)
        base.merge_from(clone)
        assert base.get(0, 0) == 3.0  # add merged
        assert base.get(1, 0) == 3.0  # min merged

    def test_merge_with_identity_is_noop(self):
        base, clone = self.make_pair()
        base.accumulate(0, 1, 7.0)
        before = base.snapshot()
        base.merge_from(clone)
        assert np.array_equal(base.snapshot(), before)

    def test_merge_layout_mismatch(self):
        a = ReductionObject()
        a.alloc(2)
        b = ReductionObject()
        b.alloc(3)
        with pytest.raises(ReductionObjectError):
            a.merge_from(b)

    def test_merge_is_commutative(self):
        base, _ = self.make_pair()
        x, y = base.clone_empty(), base.clone_empty()
        x.accumulate(0, 0, 1.0)
        x.accumulate(1, 0, 9.0)
        y.accumulate(0, 0, 2.0)
        y.accumulate(1, 0, 4.0)
        xy = base.clone_empty()
        xy.merge_from(x)
        xy.merge_from(y)
        yx = base.clone_empty()
        yx.merge_from(y)
        yx.merge_from(x)
        assert np.array_equal(xy.snapshot(), yx.snapshot())

    def test_groups_iterator(self):
        ro = ReductionObject()
        ro.alloc(2)
        ro.alloc(1)
        got = dict(ro.groups())
        assert set(got) == {0, 1}
        assert len(got[0]) == 2


class TestVectorizedLayoutOps:
    """merge_from/clone_empty/same_layout run from cached per-layout
    constants; results must match a group-by-group merge bit for bit."""

    LAYOUTS = {
        "single_op": [(3, "add")] * 5,
        "op_runs": [(2, "add"), (4, "add"), (1, "min"), (3, "min"), (2, "max")],
        "interleaved": [(2, "add"), (1, "min"), (3, "add"), (2, "max"), (1, "min")],
    }

    @staticmethod
    def _filled(layout, rng):
        ro = ReductionObject.from_layout(layout)
        ro._buffer[:] = rng.normal(size=ro.size) * 1e3
        ro._buffer[rng.integers(ro.size)] = np.nan
        ro._touched[:] = rng.random(ro.num_groups) < 0.5
        ro.update_count = int(rng.integers(100))
        return ro

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_merge_matches_group_by_group(self, name):
        rng = np.random.default_rng(3)
        layout = self.LAYOUTS[name]
        a, b = self._filled(layout, rng), self._filled(layout, rng)
        expected = a.snapshot()
        for g, (n, op) in enumerate(layout):
            off = sum(m for m, _ in layout[:g])
            ufunc = {"add": np.add, "min": np.minimum, "max": np.maximum}[op]
            expected[off : off + n] = ufunc(
                expected[off : off + n], b._buffer[off : off + n]
            )
        touched = a._touched | b._touched
        count = a.update_count + b.update_count
        a.merge_from(b)
        assert np.array_equal(a.snapshot(), expected, equal_nan=True)
        assert np.array_equal(a._touched, touched)
        assert a.update_count == count

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_merge_into_strided_external_buffer(self, name):
        layout = self.LAYOUTS[name]
        rng = np.random.default_rng(5)
        b = self._filled(layout, rng)
        backing = np.zeros(2 * b.size)
        a = ReductionObject.from_layout(layout, buffer=backing[::2])
        plain = ReductionObject.from_layout(layout)
        a.merge_from(b)
        plain.merge_from(b)
        assert np.array_equal(a.snapshot(), plain.snapshot(), equal_nan=True)
        assert not backing[1::2].any()

    def test_clone_empty_copies_the_identity_vector(self):
        ro = ReductionObject.from_layout(self.LAYOUTS["interleaved"])
        x, y = ro.clone_empty(), ro.clone_empty()
        x.accumulate(0, 0, 5.0)
        x.accumulate(1, 0, -1.0)
        assert y.get(0, 0) == 0.0 and y.get(1, 0) == np.inf
        assert ro.clone_empty().get(1, 0) == np.inf
        assert y.layout() == ro.layout() and ro.same_layout(y)

    def test_same_layout_compares_signatures(self):
        a = ReductionObject.from_layout([(2, "add"), (1, "min")])
        b = ReductionObject.from_layout([(2, "add"), (1, "min")])
        c = ReductionObject.from_layout([(2, "add"), (1, "max")])
        assert a.same_layout(b) and not a.same_layout(c)
        with pytest.raises(ReductionObjectError):
            a.merge_from(c)

    def test_alloc_after_clone_refreshes_layout(self):
        ro = ReductionObject()
        ro.alloc(2, "add")
        clone = ro.clone_empty()
        assert ro.same_layout(clone)
        ro.alloc(1, "min")
        assert not ro.same_layout(clone)
        assert ro.clone_empty().get(1, 0) == np.inf
        assert clone.num_groups == 1 and clone.size == 2

    def test_touched_groups_include_out_of_band_writes(self):
        ro = ReductionObject.from_layout(self.LAYOUTS["op_runs"])
        ro.accumulate(0, 0, 0.0)  # identity-valued, but explicitly touched
        ro.group_view(3)[1] = -2.0  # bypasses the bitmap
        assert ro.touched_groups() == frozenset({0, 3})
        assert ro.touched_mask().tolist() == [True, False, False, True, False]
