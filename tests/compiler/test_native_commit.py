"""How a native kernel commits into its target reduction object.

A target the call owns exclusively — a bare reduction object, a
``ReplicatedAccessor`` replica, a ``ScratchAccessor`` scratch — is
updated in place, with a rollback when the kernel fails; shared targets
(colored, locking) and buffers the C kernel cannot address directly go
through a scratch object and the accessor's commit.  The two paths are
told apart by float rounding: adding 1.0 twice into a cell holding 2**53
leaves 2**53 when each add lands in the cell (each sum is a tie rounded
to even) but 2**53 + 2 when the two adds are first summed in a scratch.

Also covered: the wrapper's cached data pointers follow
``BoundReduction.update_extras``, which rebinds buffers inside the same
env dict.
"""

import numpy as np
import pytest

from repro.apps.kmeans import (
    KMEANS_CHAPEL_SOURCE,
    KmeansRunner,
    centroids_to_chapel,
    kmeans_numpy_reference,
    kmeans_ro_layout,
)
from repro.compiler.cache import clear_kernel_cache, compile_cached
from repro.compiler.native import probe_toolchain
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.sharedmem import (
    ReplicatedAccessor,
    ScratchAccessor,
    SharedMemManager,
    SharedMemTechnique,
)
from repro.machine.counters import OpCounters
from repro.util.errors import ReductionObjectError

pytestmark = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

BIN_SOURCE = """
class binOf : ReduceScanOp {
  def accumulate(x: real) {
    roAdd(0, toInt(x), 1.0);
  }
}
"""
BIG = 2.0**53
#: [0, 2): two adds into cell 1; [2, 5): adds into cells 2 and 3, then a
#: value out of the group's range fails the split
DATA = np.array([1.0, 1.0, 2.0, 3.0, 9.0])
LAYOUT = [(4, "add")]


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    clear_kernel_cache()
    yield
    clear_kernel_cache()


@pytest.fixture
def native():
    compiled = compile_cached(BIN_SOURCE, {}, opt_level=2, backend="native")
    assert compiled.native_kernel is not None, compiled.native_fallback_reason
    bound = compiled.bind(DATA)
    return compiled.native_kernel, bound


def _target(buffer=None):
    ro = ReductionObject.from_layout(LAYOUT, buffer=buffer)
    ro._buffer[1] = BIG
    return ro


def _owned(kind, ro):
    if kind == "bare":
        return ro
    if kind == "replicated":
        return ReplicatedAccessor(ro, SharedMemTechnique.FULL_REPLICATION)
    return ScratchAccessor(ro)


def _state(ro, counters):
    return (
        ro.snapshot().tolist(),
        ro._touched.tolist(),
        ro.update_count,
        counters.as_dict(),
    )


@pytest.mark.parametrize("kind", ["bare", "replicated", "scratch"])
class TestInPlaceOwnedTargets:
    def test_updates_land_in_the_target(self, native, kind):
        kernel, bound = native
        ro = _target()
        kernel(0, 2, _owned(kind, ro), bound.env, bound.counters)
        assert ro.snapshot().tolist() == [0.0, BIG, 0.0, 0.0]  # in place
        assert ro._touched.tolist() == [True]
        assert ro.update_count == 2

    def test_failing_split_leaves_everything_then_good_split_folds(
        self, native, kind
    ):
        kernel, bound = native
        ro = _target()
        acc = _owned(kind, ro)
        before = _state(ro, bound.counters)
        assert before[1] == [False]
        with pytest.raises(ReductionObjectError, match="out of range"):
            kernel(2, 5, acc, bound.env, bound.counters)
        # the split wrote cells 2 and 3 before failing: all rolled back
        assert _state(ro, bound.counters) == before
        kernel(0, 4, acc, bound.env, bound.counters)
        assert ro.snapshot().tolist() == [0.0, BIG, 1.0, 1.0]
        assert ro._touched.tolist() == [True]
        assert ro.update_count == 4
        assert bound.counters.ro_updates == 4
        assert bound.counters.elements_processed == 4

    def test_repeated_failures_keep_rolling_back(self, native, kind):
        kernel, bound = native
        ro = _target()
        acc = _owned(kind, ro)
        kernel(0, 2, acc, bound.env, bound.counters)
        good = _state(ro, bound.counters)
        for _ in range(3):
            with pytest.raises(ReductionObjectError):
                kernel(2, 5, acc, bound.env, bound.counters)
            assert _state(ro, bound.counters) == good


class TestScratchPathTargets:
    """Buffers the C kernel cannot write directly, and shared targets."""

    @staticmethod
    def _strided():
        backing = np.zeros(8)
        return backing, backing[::2]

    @staticmethod
    def _misaligned():
        raw = np.zeros(4 * 8 + 1, dtype=np.uint8)
        view = np.frombuffer(raw, dtype=np.float64, count=4, offset=1)
        assert not view.flags.aligned
        return raw, view

    @pytest.mark.parametrize("make", ["_strided", "_misaligned"])
    def test_unaddressable_buffer_takes_scratch_path(self, native, make):
        kernel, bound = native
        keep, buf = getattr(self, make)()
        ro = _target(buf)
        with pytest.raises(ReductionObjectError):
            kernel(2, 5, ro, bound.env, bound.counters)
        assert ro.snapshot().tolist() == [0.0, BIG, 0.0, 0.0]
        assert ro.update_count == 0
        kernel(0, 4, ro, bound.env, bound.counters)
        assert ro.snapshot().tolist() == [0.0, BIG + 2.0, 1.0, 1.0]
        assert ro.update_count == 4
        if make == "_strided":
            assert keep[::2].tolist() == [0.0, BIG + 2.0, 1.0, 1.0]
            assert keep[1::2].tolist() == [0.0] * 4

    @pytest.mark.parametrize(
        "technique", ["colored", "full_locking", "cache_sensitive_locking"]
    )
    def test_shared_techniques_commit_through_scratch(self, native, technique):
        kernel, bound = native
        base = _target()
        (acc,) = SharedMemManager(technique).setup(base, 1)
        with pytest.raises(ReductionObjectError):
            kernel(2, 5, acc, bound.env, bound.counters)
        assert base.snapshot().tolist() == [0.0, BIG, 0.0, 0.0]
        kernel(0, 4, acc, bound.env, bound.counters)
        assert base.snapshot().tolist() == [0.0, BIG + 2.0, 1.0, 1.0]

    def test_target_switch_within_a_thread(self, native):
        # the cached target pointers must follow a new target object
        kernel, bound = native
        first, second = _target(), _target()
        kernel(0, 2, first, bound.env, bound.counters)
        kernel(2, 4, second, bound.env, bound.counters)
        assert first.snapshot().tolist() == [0.0, BIG, 0.0, 0.0]
        assert second.snapshot().tolist() == [0.0, BIG, 1.0, 1.0]


class TestDataPointersFollowUpdateExtras:
    K, DIM = 4, 3
    rng = np.random.default_rng(11)
    POINTS = rng.normal(size=(600, DIM)) * 5.0
    INIT = POINTS[:K].copy()

    def _bound(self, backend, cents):
        compiled = compile_cached(
            KMEANS_CHAPEL_SOURCE, {"k": self.K, "dim": self.DIM},
            opt_level=2, backend=backend,
        )
        if backend == "native":
            assert compiled.native_kernel is not None
        return compiled.bind(
            self.POINTS, {"centroids": centroids_to_chapel(cents)}
        )

    def test_direct_rebind_matches_scalar(self):
        layout = kmeans_ro_layout(self.K, self.DIM)
        second = self.INIT[::-1] + 1.5
        results = {}
        for backend in ("scalar", "native"):
            bound = self._bound(backend, self.INIT)
            runs = []
            for cents in (None, second):
                if cents is not None:
                    bound.update_extras({"centroids": centroids_to_chapel(cents)})
                ro = ReductionObject.from_layout(layout)
                bound.run_serial(ro)
                runs.append(ro.snapshot())
            results[backend] = runs
        first_s, second_s = results["scalar"]
        first_n, second_n = results["native"]
        assert not np.array_equal(first_s, second_s)  # the rebind matters
        np.testing.assert_allclose(first_n, first_s, rtol=0, atol=1e-9)
        np.testing.assert_allclose(second_n, second_s, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_kmeans_iterations_match_reference(self, executor):
        iterations = 4
        expected, counts = kmeans_numpy_reference(
            self.POINTS, self.INIT, iterations
        )
        with KmeansRunner(
            k=self.K, dim=self.DIM, version="opt-2", num_threads=2,
            executor=executor, chunk_size=64, backend="native",
        ) as runner:
            assert runner.compiled.native_kernel is not None
            res = runner.run(self.POINTS, self.INIT, iterations=iterations)
        np.testing.assert_allclose(res.centroids, expected, rtol=0, atol=1e-9)
        assert np.array_equal(res.counts, counts)


def test_counters_start_clean_for_each_bound():
    """The wrapper's reused counter array never leaks between ledgers."""
    compiled = compile_cached(BIN_SOURCE, {}, opt_level=2, backend="native")
    kernel = compiled.native_kernel
    bound = compiled.bind(DATA)
    ledgers = []
    for _ in range(2):
        counters = OpCounters()
        kernel(0, 4, ReductionObject.from_layout(LAYOUT), bound.env, counters)
        ledgers.append(counters.as_dict())
    assert ledgers[0] == ledgers[1]
    assert ledgers[0]["ro_updates"] == 4
