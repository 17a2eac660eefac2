"""The FREERIDE *reduction object*.

FREERIDE's defining API difference from Map-Reduce (paper §III-A) is that the
programmer **explicitly declares a reduction object and performs updates to
its elements directly**; every data element is processed and reduced in one
step, with no intermediate (key, value) pairs.

The reduction object is a two-level structure maintained in main memory:
*groups* (e.g. one per k-means cluster), each holding a fixed number of
float64 *elements* (e.g. count, sum of coordinates).  Each element is
addressed by ``(group_id, elem_id)`` — the "unique ID for each element"
that ``reduction_object_alloc`` assigns in Table I.

Updates go through :meth:`ReductionObject.accumulate` with an associative,
commutative element operation (add/min/max), which is what makes per-thread
copies mergeable in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.util.errors import ReductionObjectError
from repro.util.validation import check_nonnegative_int, check_positive_int

__all__ = [
    "AccumulateOp",
    "ACCUMULATE_OPS",
    "INVERTIBLE_ACCUMULATE_OPS",
    "ReductionObject",
]

#: Element-update operations. Each must be associative and commutative so the
#: result is independent of processing order (paper §III-A requirement).
AccumulateOp = str

ACCUMULATE_OPS: dict[str, Callable[[np.ndarray, int, float], None]] = {}


def _op_add(buf: np.ndarray, idx: int, value: float) -> None:
    buf[idx] += value


def _op_min(buf: np.ndarray, idx: int, value: float) -> None:
    if value < buf[idx]:
        buf[idx] = value


def _op_max(buf: np.ndarray, idx: int, value: float) -> None:
    if value > buf[idx]:
        buf[idx] = value


ACCUMULATE_OPS["add"] = _op_add
ACCUMULATE_OPS["min"] = _op_min
ACCUMULATE_OPS["max"] = _op_max

_IDENTITY: dict[str, float] = {"add": 0.0, "min": np.inf, "max": -np.inf}

_MERGE_UFUNC = {"add": np.add, "min": np.minimum, "max": np.maximum}

#: Ops with an element inverse: contributions can be *retracted* directly
#: (``a + x - x == a``), so delta retractions cost O(|delta|).  min/max
#: discard the information needed to undo an update — the delta executor
#: re-reduces those groups from the surviving elements instead.
INVERTIBLE_ACCUMULATE_OPS: frozenset[str] = frozenset({"add"})

_RETRACT_UFUNC = {"add": np.subtract}


@dataclass
class _GroupMeta:
    """Layout of one allocated group."""

    group_id: int
    num_elems: int
    op: AccumulateOp
    offset: int  # start of this group's elements in the dense buffer


class _LayoutInfo:
    """Per-layout constants, built once and shared by every clone.

    ``signature`` is the ``(num_elems, op)`` tuple two objects must agree
    on to merge; ``identity`` the read-only identity-valued buffer;
    ``merge_plan`` one ``(ufunc, selector)`` pair per op kind, whose
    selector is a slice when that op's cells are contiguous (the whole
    buffer for a single-op layout) and an index array otherwise.
    """

    __slots__ = ("signature", "identity", "offsets", "nelems", "ops", "merge_plan")

    def __init__(self, groups: "list[_GroupMeta]") -> None:
        self.signature = tuple((m.num_elems, m.op) for m in groups)
        self.ops = [m.op for m in groups]
        self.offsets = np.array([m.offset for m in groups], dtype=np.int64)
        self.nelems = np.array([m.num_elems for m in groups], dtype=np.int64)
        self.identity = np.repeat(
            np.array([_IDENTITY[op] for op in self.ops], dtype=np.float64),
            self.nelems,
        )
        self.identity.flags.writeable = False
        cell_ops = np.repeat(np.array(self.ops, dtype=object), self.nelems)
        plan = []
        for op in sorted(set(self.ops)):
            cells = np.flatnonzero(cell_ops == op)
            if cells.size == self.identity.size:
                sel: "slice | np.ndarray" = slice(None)
            elif cells[-1] - cells[0] + 1 == cells.size:
                sel = slice(int(cells[0]), int(cells[-1]) + 1)
            else:
                sel = cells
            plan.append((_MERGE_UFUNC[op], sel))
        self.merge_plan = plan


class ReductionObject:
    """A dense, mergeable reduction object.

    Groups are allocated up front with :meth:`alloc` (mirroring
    ``reduction_object_alloc``), then updated with :meth:`accumulate` and
    read with :meth:`get` / :meth:`get_group`.

    Storage is one contiguous float64 buffer; groups are slices of it.  This
    matches FREERIDE's in-memory representation and makes merging two copies
    a single vectorized ufunc per op kind.
    """

    def __init__(self) -> None:
        self._groups: list[_GroupMeta] = []
        self._buffer: np.ndarray = np.empty(0, dtype=np.float64)
        self._finalized_layout = False
        #: number of accumulate() calls, for runtime statistics
        self.update_count: int = 0
        # lazy per-layout constants (see _LayoutInfo); reset by every alloc
        self._info: _LayoutInfo | None = None
        #: explicit per-group touched bitmap: set by every update API, so a
        #: group stays visible in touched_groups() even when its accumulated
        #: value happens to equal the op identity
        self._touched: np.ndarray = np.zeros(0, dtype=bool)

    # -- layout -------------------------------------------------------------

    def alloc(self, num_elems: int, op: AccumulateOp = "add") -> int:
        """Allocate a group of ``num_elems`` elements; returns its group id.

        All elements of a group share one accumulate op and start at that
        op's identity (0 for add, +inf for min, -inf for max).
        """
        check_positive_int(num_elems, "num_elems")
        if op not in ACCUMULATE_OPS:
            raise ReductionObjectError(f"unknown accumulate op {op!r}")
        if self._finalized_layout:
            raise ReductionObjectError(
                "cannot allocate groups after the layout is frozen"
            )
        gid = len(self._groups)
        meta = _GroupMeta(gid, num_elems, op, offset=self._buffer.size)
        self._groups.append(meta)
        self._buffer = np.concatenate(
            [self._buffer, np.full(num_elems, _IDENTITY[op])]
        )
        self._info = None
        self._touched = np.concatenate([self._touched, [False]])
        return gid

    def alloc_many(
        self, layout: "Sequence[tuple[int, AccumulateOp]]"
    ) -> list[int]:
        """Allocate a whole layout of groups with one buffer reallocation.

        Equivalent to calling :meth:`alloc` per entry, but O(total
        elements) instead of quadratic in the group count — the setup path
        for wide layouts (e.g. one group per window).
        """
        if self._finalized_layout:
            raise ReductionObjectError(
                "cannot allocate groups after the layout is frozen"
            )
        gids: list[int] = []
        segments = [self._buffer]
        offset = int(self._buffer.size)
        for num_elems, op in layout:
            check_positive_int(num_elems, "num_elems")
            if op not in ACCUMULATE_OPS:
                raise ReductionObjectError(f"unknown accumulate op {op!r}")
            gid = len(self._groups)
            self._groups.append(_GroupMeta(gid, num_elems, op, offset))
            segments.append(np.full(num_elems, _IDENTITY[op]))
            offset += num_elems
            gids.append(gid)
        self._buffer = np.concatenate(segments)
        self._info = None
        self._touched = np.concatenate(
            [self._touched, np.zeros(len(gids), dtype=bool)]
        )
        return gids

    def alloc_matrix(self, num_groups: int, num_elems: int, op: AccumulateOp = "add") -> list[int]:
        """Allocate ``num_groups`` identical groups (k-means: one per centroid)."""
        check_positive_int(num_groups, "num_groups")
        return self.alloc_many([(num_elems, op)] * num_groups)

    def freeze_layout(self) -> None:
        """Freeze the layout: replicas must share it, so no more allocs."""
        self._finalized_layout = True

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    @property
    def size(self) -> int:
        """Total number of elements across all groups."""
        return int(self._buffer.size)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the element buffer, in bytes."""
        return int(self._buffer.nbytes)

    def _meta(self, group: int) -> _GroupMeta:
        try:
            return self._groups[group]
        except IndexError:
            raise ReductionObjectError(
                f"group {group} not allocated (have {len(self._groups)})"
            )

    def _cell(self, group: int, elem: int) -> tuple[_GroupMeta, int]:
        meta = self._meta(group)
        check_nonnegative_int(elem, "elem")
        if elem >= meta.num_elems:
            raise ReductionObjectError(
                f"element {elem} out of range for group {group} "
                f"({meta.num_elems} elements)"
            )
        return meta, meta.offset + elem

    # -- updates and reads ----------------------------------------------------

    def accumulate(self, group: int, elem: int, value: float) -> None:
        """Fold ``value`` into element ``(group, elem)`` with the group's op.

        This is Table I's ``void accumulate(int, int, void* value)``.
        """
        meta, idx = self._cell(group, elem)
        ACCUMULATE_OPS[meta.op](self._buffer, idx, value)
        self._touched[meta.group_id] = True
        self.update_count += 1

    def accumulate_group(self, group: int, values: np.ndarray) -> None:
        """Vectorized accumulate of a whole group at once.

        Semantically ``accumulate(group, i, values[i])`` for every i; used by
        vectorized kernels.  Counts as ``len(values)`` updates.
        """
        meta = self._meta(group)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (meta.num_elems,):
            raise ReductionObjectError(
                f"group {group} expects {meta.num_elems} values, got {values.shape}"
            )
        sl = slice(meta.offset, meta.offset + meta.num_elems)
        ufunc = _MERGE_UFUNC[meta.op]
        self._buffer[sl] = ufunc(self._buffer[sl], values)
        self._touched[meta.group_id] = True
        self.update_count += meta.num_elems

    def _layout_info(self) -> _LayoutInfo:
        if self._info is None:
            self._info = _LayoutInfo(self._groups)
        return self._info

    def _group_tables(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Dense per-group ``(offsets, num_elems, ops)`` lookup arrays."""
        info = self._layout_info()
        return info.offsets, info.nelems, info.ops

    def batch_cells(
        self,
        groups: "np.ndarray | int",
        elems: "np.ndarray | int",
        values: "np.ndarray | float",
        op: AccumulateOp,
        mask: np.ndarray | None = None,
        lanes: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate and flatten a batch update into ``(flat_indices, values)``.

        ``groups``/``elems``/``values`` broadcast against each other (and to
        ``lanes`` entries when all are scalar); ``mask`` drops inactive lanes
        before validation, so a lane a scalar kernel would never execute can
        hold any garbage.  Every surviving lane must address an allocated
        cell of a group whose accumulate op is ``op``.
        """
        if op not in ACCUMULATE_OPS:
            raise ReductionObjectError(f"unknown accumulate op {op!r}")
        g = np.asarray(groups, dtype=np.int64)
        e = np.asarray(elems, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        shapes = [g.shape, e.shape, v.shape]
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            shapes.append(mask.shape)
        target = np.broadcast_shapes(*shapes)
        if target == ():
            target = (1 if lanes is None else lanes,)
        g = np.broadcast_to(g, target).ravel()
        e = np.broadcast_to(e, target).ravel()
        v = np.broadcast_to(v, target).ravel()
        if mask is not None:
            m = np.broadcast_to(mask, target).ravel()
            g, e, v = g[m], e[m], v[m]
        if g.size == 0:
            return g, v
        offsets, nelems, ops = self._group_tables()
        if g.min() < 0 or g.max() >= len(offsets):
            raise ReductionObjectError(
                f"batch update addresses group outside [0, {len(offsets)})"
            )
        if np.any(e < 0) or np.any(e >= nelems[g]):
            raise ReductionObjectError(
                "batch update addresses an element outside its group"
            )
        bad = {ops[int(gi)] for gi in np.unique(g)} - {op}
        if bad:
            raise ReductionObjectError(
                f"batch {op!r} update hits groups declared with op {sorted(bad)}"
            )
        return offsets[g] + e, v

    def apply_batch(self, indices: np.ndarray, values: np.ndarray, op: AccumulateOp) -> None:
        """Apply pre-validated flat-cell updates (see :meth:`batch_cells`).

        ``ufunc.at`` folds duplicate indices in lane order, so an additive
        cell touched by many lanes matches the scalar element-order result.
        """
        if indices.size == 0:
            return
        _MERGE_UFUNC[op].at(self._buffer, indices, values)
        offsets, _, _ = self._group_tables()
        hit = np.searchsorted(offsets, indices, side="right") - 1
        self._touched[np.unique(hit)] = True
        self.update_count += int(indices.size)

    def accumulate_batch(
        self,
        groups: "np.ndarray | int",
        elems: "np.ndarray | int",
        values: "np.ndarray | float",
        op: AccumulateOp = "add",
        mask: np.ndarray | None = None,
        lanes: int | None = None,
        exclusive: bool = False,
    ) -> None:
        """Vectorized accumulate over per-lane ``(group, elem, value)`` triples.

        Semantically ``accumulate(groups[i], elems[i], values[i])`` for every
        active lane ``i`` (in lane order); counts one update per active lane.
        This is the reduction-object half of the batch kernel backend.
        ``exclusive`` (a COLORED-kernel hint, see
        :meth:`repro.freeride.sharedmem.ROAccessor.accumulate_batch`) is
        accepted for signature compatibility and ignored — a bare reduction
        object always has a single owner.
        """
        idx, v = self.batch_cells(groups, elems, values, op, mask, lanes)
        self.apply_batch(idx, v, op)

    def get(self, group: int, elem: int) -> float:
        """Read one element — Table I's ``get_intermediate_result``."""
        _, idx = self._cell(group, elem)
        return float(self._buffer[idx])

    def get_group(self, group: int) -> np.ndarray:
        """Read a whole group as a copy."""
        meta = self._meta(group)
        return self._buffer[meta.offset : meta.offset + meta.num_elems].copy()

    def group_view(self, group: int) -> np.ndarray:
        """A writable view of a group (for vectorized manual-FR kernels)."""
        meta = self._meta(group)
        return self._buffer[meta.offset : meta.offset + meta.num_elems]

    def set(self, group: int, elem: int, value: float) -> None:
        """Overwrite one element (used by finalize steps, not reductions)."""
        meta, idx = self._cell(group, elem)
        self._buffer[idx] = value
        self._touched[meta.group_id] = True

    def groups(self) -> Iterator[tuple[int, np.ndarray]]:
        """Iterate ``(group_id, values_copy)`` pairs."""
        for meta in self._groups:
            yield meta.group_id, self.get_group(meta.group_id)

    def layout(self) -> list[tuple[int, AccumulateOp]]:
        """The ``(num_elems, op)`` sequence that rebuilds this layout."""
        return [(m.num_elems, m.op) for m in self._groups]

    @classmethod
    def from_layout(
        cls,
        layout: "Sequence[tuple[int, AccumulateOp]]",
        buffer: np.ndarray | None = None,
        initialize: bool = True,
    ) -> "ReductionObject":
        """Build a frozen-layout reduction object directly from a layout.

        Unlike repeated :meth:`alloc` calls this never reallocates the
        element buffer, so ``buffer`` may be an *external* float64 array —
        e.g. a slice of a ``multiprocessing.shared_memory`` segment — and
        all accumulations land in that storage.  With ``initialize=False``
        the buffer's existing contents are kept (the parent process wraps a
        worker-filled shared segment without clobbering it); a freshly
        allocated object is always initialized to the ops' identities.
        """
        ro = cls()
        offset = 0
        for num_elems, op in layout:
            check_positive_int(num_elems, "num_elems")
            if op not in ACCUMULATE_OPS:
                raise ReductionObjectError(f"unknown accumulate op {op!r}")
            ro._groups.append(_GroupMeta(len(ro._groups), num_elems, op, offset))
            offset += num_elems
        if not ro._groups:
            raise ReductionObjectError("layout must allocate at least one group")
        if buffer is None:
            ro._buffer = np.empty(offset, dtype=np.float64)
            initialize = True
        else:
            buf = np.asarray(buffer)
            if buf.dtype != np.float64 or buf.ndim != 1 or buf.size != offset:
                raise ReductionObjectError(
                    f"external buffer must be a flat float64 array of "
                    f"{offset} elements, got dtype={buf.dtype} shape={buf.shape}"
                )
            ro._buffer = buf
        if initialize:
            ro._buffer[:] = ro._layout_info().identity
        ro._touched = np.zeros(len(ro._groups), dtype=bool)
        ro.freeze_layout()
        return ro

    # -- replication and merging ----------------------------------------------

    def copy(self) -> "ReductionObject":
        """A deep copy: same layout, same element values, same update count.

        The combination phase merges into a copy so its inputs (per-thread
        or per-node reduction objects) are never mutated.
        """
        clone = self.clone_empty()
        clone._buffer[:] = self._buffer
        clone._touched[:] = self._touched
        clone.update_count = self.update_count
        return clone

    def clone_empty(self) -> "ReductionObject":
        """A fresh copy with identical layout and identity-valued elements.

        This is what the *full replication* shared-memory technique hands to
        each thread.  Built directly (metas copied, one buffer allocation)
        rather than through per-group :meth:`alloc` calls, whose repeated
        buffer reallocation is quadratic in the group count.
        """
        clone = ReductionObject()
        clone._groups = [
            _GroupMeta(m.group_id, m.num_elems, m.op, m.offset)
            for m in self._groups
        ]
        clone._buffer = np.empty(self._buffer.size, dtype=np.float64)
        for meta in clone._groups:
            clone._buffer[meta.offset : meta.offset + meta.num_elems] = _IDENTITY[
                meta.op
            ]
        clone._touched = np.zeros(len(clone._groups), dtype=bool)
        clone.freeze_layout()
        return clone

    def same_layout(self, other: "ReductionObject") -> bool:
        mine, theirs = self._layout_info(), other._layout_info()
        return mine is theirs or mine.signature == theirs.signature

    def check_same_layout(self, other: "ReductionObject") -> None:
        """Raise unless ``other`` can be merged into this object."""
        if not self.same_layout(other):
            raise ReductionObjectError(
                "cannot merge reduction objects with different layouts"
            )

    def merge_from(self, other: "ReductionObject") -> None:
        """Combine another copy into this one (the *combine* of Figure 1).

        One ufunc per op kind over the whole buffer (see
        :class:`_LayoutInfo`), so a merge costs a handful of vectorized
        operations regardless of the group count; the ops are elementwise,
        so the result is bit-identical to a group-by-group merge.
        """
        self.check_same_layout(other)
        mine, theirs = self._buffer, other._buffer
        for ufunc, sel in self._layout_info().merge_plan:
            if isinstance(sel, slice):
                ufunc(mine[sel], theirs[sel], out=mine[sel])
            else:
                mine[sel] = ufunc(mine[sel], theirs[sel])
        self._touched |= other._touched
        self.update_count += other.update_count

    def merge_group_from(self, group: int, other: "ReductionObject") -> None:
        """Merge a single group's elements from another same-layout copy.

        Unlike :meth:`merge_from` this touches one group only and does *not*
        fold in ``other.update_count`` — the caller accounts for updates
        once per whole-object commit.  The fault-tolerant locking commit
        uses this to apply a scratch object group-by-group while holding
        exactly that group's covering locks.
        """
        self.check_same_layout(other)
        self._merge_group(group, other)

    def _merge_group(self, group: int, other: "ReductionObject") -> None:
        """:meth:`merge_group_from` for a caller that already ran
        :meth:`check_same_layout` once for a whole multi-group commit."""
        meta = self._meta(group)
        sl = slice(meta.offset, meta.offset + meta.num_elems)
        ufunc = _MERGE_UFUNC[meta.op]
        ufunc(self._buffer[sl], other._buffer[sl], out=self._buffer[sl])
        if other._touched[meta.group_id] or bool(
            np.any(other._buffer[sl] != _IDENTITY[meta.op])
        ):
            self._touched[meta.group_id] = True

    def touched_groups(self) -> frozenset[int]:
        """Groups that received at least one update.

        Every update API (accumulate, accumulate_group, batch updates, set,
        merges) marks the target group in an explicit bitmap, so a group is
        reported even when its accumulated value equals the op identity —
        the historic value-scan alone missed those (e.g. accumulating an
        exact 0.0 into an add group), which was safe for merge *values* but
        silently dropped the group from profile footprints and would drop
        it from delta checkpoints.  The value scan is kept as a union term
        for objects whose buffer was filled out-of-band: writable
        :meth:`group_view` slices and ``from_layout(initialize=False)``
        wraps of worker-filled shared segments bypass the bitmap.
        """
        return frozenset(np.flatnonzero(self.touched_mask()).tolist())

    def touched_mask(self) -> np.ndarray:
        """:meth:`touched_groups` as a per-group bool array."""
        if not self._groups:
            return np.zeros(0, dtype=bool)
        info = self._layout_info()
        differs = self._buffer != info.identity
        return self._touched | np.logical_or.reduceat(differs, info.offsets)

    # -- delta execution ------------------------------------------------------

    def group_op(self, group: int) -> AccumulateOp:
        """The accumulate op a group was allocated with."""
        return self._meta(group).op

    def reset_group(self, group: int) -> None:
        """Reset one group's elements to the op identity (replay prologue)."""
        meta = self._meta(group)
        self._buffer[meta.offset : meta.offset + meta.num_elems] = _IDENTITY[
            meta.op
        ]
        self._touched[meta.group_id] = False

    def set_group(self, group: int, values: np.ndarray, touched: bool) -> None:
        """Overwrite a whole group (checkpoint restore / snapshot apply)."""
        meta = self._meta(group)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (meta.num_elems,):
            raise ReductionObjectError(
                f"group {group} expects {meta.num_elems} values, got {values.shape}"
            )
        self._buffer[meta.offset : meta.offset + meta.num_elems] = values
        self._touched[meta.group_id] = bool(touched)

    def is_touched(self, group: int) -> bool:
        """Read one bit of the explicit touched bitmap."""
        return bool(self._touched[self._meta(group).group_id])

    def retract_from(self, other: "ReductionObject") -> None:
        """Undo another copy's contributions (inverse of :meth:`merge_from`).

        Only groups with an invertible op (see
        :data:`INVERTIBLE_ACCUMULATE_OPS`) can be retracted; a min/max
        group that ``other`` touched raises, because the information needed
        to undo the update is gone — the delta executor re-reduces those
        groups from the surviving elements instead.  ``other.update_count``
        is subtracted, mirroring the merge.
        """
        if not self.same_layout(other):
            raise ReductionObjectError(
                "cannot retract reduction objects with different layouts"
            )
        for meta in self._groups:
            sl = slice(meta.offset, meta.offset + meta.num_elems)
            if meta.op in INVERTIBLE_ACCUMULATE_OPS:
                self._buffer[sl] = _RETRACT_UFUNC[meta.op](
                    self._buffer[sl], other._buffer[sl]
                )
            elif other._touched[meta.group_id] or bool(
                np.any(other._buffer[sl] != _IDENTITY[meta.op])
            ):
                raise ReductionObjectError(
                    f"group {meta.group_id} uses non-invertible op "
                    f"{meta.op!r}: cannot retract, re-reduce the group instead"
                )
        self.update_count -= other.update_count

    def retract_group(self, group: int, other: "ReductionObject") -> None:
        """Undo one group's contributions (inverse of :meth:`merge_group_from`).

        Like :meth:`merge_group_from` this does *not* fold
        ``other.update_count`` — the delta commit accounts for updates once
        per epoch.  Raises for non-invertible groups; the delta executor
        routes those through per-group replay instead.
        """
        if not self.same_layout(other):
            raise ReductionObjectError(
                "cannot retract reduction objects with different layouts"
            )
        meta = self._meta(group)
        sl = slice(meta.offset, meta.offset + meta.num_elems)
        if meta.op not in INVERTIBLE_ACCUMULATE_OPS:
            raise ReductionObjectError(
                f"group {meta.group_id} uses non-invertible op "
                f"{meta.op!r}: cannot retract, re-reduce the group instead"
            )
        self._buffer[sl] = _RETRACT_UFUNC[meta.op](
            self._buffer[sl], other._buffer[sl]
        )

    def snapshot(self) -> np.ndarray:
        """Copy of the whole dense buffer (for tests and checkpoints)."""
        return self._buffer.copy()

    def __repr__(self) -> str:
        return (
            f"ReductionObject(groups={self.num_groups}, elements={self.size}, "
            f"updates={self.update_count})"
        )
