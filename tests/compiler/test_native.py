"""Native backend unit tests: codegen output, fallbacks, the disk cache.

Covers the pieces the app-level equivalence matrix can't see directly:
the generated C source, the recorded downgrade when a kernel (or the
whole toolchain) can't go native, warm-start attach from the on-disk
cache with zero compiler invocations, stale-cache invalidation on a
format-version bump, and the in-memory kernel cache's LRU eviction
accounting.
"""

from dataclasses import fields as dc_fields

import numpy as np
import pytest

import repro.compiler.native as native_mod
from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE, HistogramRunner
from repro.apps.kmeans import KMEANS_CHAPEL_SOURCE, KmeansRunner
from repro.apps.pca import PcaRunner
from repro.compiler.cache import (
    clear_kernel_cache,
    compile_cached,
    kernel_cache_capacity,
    kernel_cache_stats,
    set_kernel_cache_capacity,
)
from repro.compiler.native import (
    CACHE_ENV,
    CC_ENV,
    probe_toolchain,
    reset_toolchain_probe,
)
from repro.freeride.reduction_object import ReductionObject
from repro.machine.counters import OpCounters
from repro.obs.tracer import Tracer, tracing
from repro.util.errors import ReductionObjectError

needs_cc = pytest.mark.skipif(
    not probe_toolchain()["ok"],
    reason=f"no usable C toolchain: {probe_toolchain()['reason']}",
)

HIST_CONSTS = {"bins": 8, "lo": 0.0, "width": 2.0}


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    """Each test compiles from scratch and leaves global state clean."""
    clear_kernel_cache()
    yield
    clear_kernel_cache()  # also restores the default capacity


def _compile_hist(backend="native", opt_level=2):
    return compile_cached(
        HISTOGRAM_CHAPEL_SOURCE, dict(HIST_CONSTS), opt_level=opt_level,
        backend=backend,
    )


def _assert_counters_in_epilogue(src: str) -> None:
    """Cost bumps hit the local ``_K`` array; ``_C`` is written only by
    the one epilogue line just before the kernel's ``return 0``."""
    lines = src.splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if "for (long long _e = _start; _e < _end; _e++) {" in line
    )
    depth, end = 0, None
    for i in range(start, len(lines)):
        depth += lines[i].count("{") - lines[i].count("}")
        if depth == 0:
            end = i
            break
    assert end is not None
    loop = lines[start : end + 1]
    # counter bumps mirror the scalar kernel's static cost model
    assert any("_K[" in line for line in loop)
    assert not any("_C[" in line for line in loop)
    writes = [i for i, line in enumerate(lines) if "_C[" in line]
    (epilogue,) = writes
    assert epilogue > end
    assert lines[epilogue + 1].strip() == "return 0;"
    slots = len(dc_fields(OpCounters))
    assert lines[epilogue].split() == [
        tok for i in range(slots) for tok in (f"_C[{i}]", "+=", f"(double)_K[{i}];")
    ]


@needs_cc
class TestNativeCodegen:
    def test_source_shape(self):
        compiled = _compile_hist()
        assert compiled.native_kernel is not None, compiled.native_fallback_reason
        nk = compiled.native_kernel.native
        src = compiled.native_source
        # self-contained C translation unit with the hashed entry point
        assert f"long long {nk.symbol}(" in src
        assert nk.symbol.startswith("repro_native_")
        assert "#include <math.h>" in src
        # the element loop and its processed-elements accounting
        assert "for (long long _e = _start; _e < _end; _e++)" in src
        _assert_counters_in_epilogue(src)

    def test_kmeans_counters_stay_local(self):
        # nested constant-trip loops: every bump inside them is to _K too
        compiled = compile_cached(
            KMEANS_CHAPEL_SOURCE, {"k": 4, "dim": 3}, opt_level=2,
            backend="native",
        )
        assert compiled.native_kernel is not None, compiled.native_fallback_reason
        _assert_counters_in_epilogue(compiled.native_source)

    def test_effective_backend_and_event(self):
        tracer = Tracer()
        with tracing(tracer):
            compiled = _compile_hist()
        assert compiled.effective_backend == "native"
        (decision,) = [e for e in tracer.events() if e.name == "kernel_backend"]
        assert decision.args["requested"] == "native"
        assert decision.args["effective"] == "native"
        assert not decision.args.get("reason")

    def test_nested_extras_fall_back_with_reason(self):
        # kmeans at opt 0 keeps nested extras (centroids[c].coord[d]) that
        # the C emitter refuses; the batch tier must be compiled instead
        tracer = Tracer()
        with tracing(tracer):
            compiled = compile_cached(
                KMEANS_CHAPEL_SOURCE, {"k": 4, "dim": 3},
                opt_level=0, backend="native",
            )
        assert compiled.native_kernel is None
        assert "nested" in compiled.native_fallback_reason
        assert compiled.effective_backend in ("batch", "scalar")
        (decision,) = [e for e in tracer.events() if e.name == "kernel_backend"]
        assert decision.args["requested"] == "native"
        assert decision.args["effective"] != "native"
        assert decision.args["reason"]


@needs_cc
class TestNativeCounters:
    """The local-array counters reach the ledger exactly as the scalar
    kernel's per-statement bumps do, and never on a failed split."""

    rng = np.random.default_rng(7)
    KM_POINTS = rng.integers(-40, 40, size=(240, 3)).astype(np.float64)
    PCA_MATRIX = rng.integers(-9, 9, size=(5, 64)).astype(np.float64)
    HIST_DATA = (np.arange(500, dtype=np.float64) * 7) % 64
    APPS = {
        "kmeans": (
            lambda b: KmeansRunner(k=4, dim=3, version="opt-2", backend=b),
            lambda r, c: r.run(c.KM_POINTS, c.KM_POINTS[:4], iterations=2),
        ),
        "histogram": (
            lambda b: HistogramRunner(16, 0.0, 64.0, version="opt-2", backend=b),
            lambda r, c: r.run(c.HIST_DATA),
        ),
        "pca": (
            lambda b: PcaRunner(m=5, version="opt-2", backend=b),
            lambda r, c: r.run(c.PCA_MATRIX),
        ),
    }

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_opcounters_parity_across_backends(self, app):
        make, run = self.APPS[app]
        ledgers = {}
        for backend in ("scalar", "batch", "native"):
            with make(backend) as runner:
                if backend == "native":
                    for attr in ("compiled", "mean_compiled", "cov_compiled"):
                        compiled = getattr(runner, attr, None)
                        assert compiled is None or compiled.native_kernel is not None
                ledgers[backend] = run(runner, self).counters.as_dict()
        assert ledgers["batch"] == ledgers["scalar"]
        assert ledgers["native"] == ledgers["scalar"]

    def test_failing_split_raises_and_leaves_ledger(self):
        source = """
class binOf : ReduceScanOp {
  def accumulate(x: real) {
    roAdd(0, toInt(x), 1.0);
  }
}
"""
        compiled = compile_cached(source, {}, opt_level=2, backend="native")
        assert compiled.native_kernel is not None, compiled.native_fallback_reason
        data = np.array([0.0, 1.0, 2.0, 3.0, 9.0, 1.0])  # 9 is out of range
        bound = compiled.bind(data)
        spec, _ = bound.make_spec([(4, "add")])
        ro = ReductionObject()
        spec.setup_reduction_object(ro)
        kernel = compiled.native_kernel
        kernel(0, 4, ro, bound.env, bound.counters)  # a good split folds
        good = bound.counters.as_dict()
        assert good["elements_processed"] == 4
        assert ro.snapshot().tolist() == [1.0, 1.0, 1.0, 1.0]
        with pytest.raises(ReductionObjectError, match="out of range"):
            kernel(2, 6, ro, bound.env, bound.counters)
        # the failed split's partial counts never reach the ledger or RO
        assert bound.counters.as_dict() == good
        assert ro.snapshot().tolist() == [1.0, 1.0, 1.0, 1.0]


@needs_cc
class TestBranchFreeSelects:
    """An ``if`` whose body only copies locals or literals into locals
    compiles to selects, so the kernel's time does not depend on how
    predictable the data makes the condition."""

    SOURCE = """
class pick : ReduceScanOp {
  def accumulate(x: real) {
    var best: real = 5.0;
    var idx: int = 0;
    var seen: real = -1.0;
    var c: int = 2;
    var v: real = x;
    if (v < best) {
      best = v;
      idx = c;
      seen = best;
    }
    if (v > 7.0) {
      idx = 1;
      best = 2.5;
    }
    if (x > 8.0) {
      idx = 3;
    } else {
      seen = seen + 1.0;
    }
    roAdd(idx, 0, best);
    roAdd(idx, 1, seen);
  }
}
"""

    def test_kmeans_argmin_is_branch_free(self):
        compiled = compile_cached(
            KMEANS_CHAPEL_SOURCE, {"k": 4, "dim": 3}, opt_level=2,
            backend="native",
        )
        assert compiled.native_kernel is not None, compiled.native_fallback_reason
        src = compiled.native_source
        assert "if ((u_dist < u_minDist))" not in src
        assert "u_minDist = _s" in src
        assert "u_minIdx = _selll(_m" in src

    def test_selects_match_scalar_results_and_counters(self):
        data = np.array([9.5, 1.0, 7.5, 6.0, 3.0, 8.5, 4.0, 0.5, 5.0, 7.0])
        got = {}
        for backend in ("scalar", "native"):
            compiled = compile_cached(self.SOURCE, {}, opt_level=2, backend=backend)
            assert compiled.effective_backend == backend
            bound = compiled.bind(data)
            spec, _ = bound.make_spec([(2, "add")] * 4)
            ro = ReductionObject()
            spec.setup_reduction_object(ro)
            compiled.effective_kernel(0, len(data), ro, bound.env, bound.counters)
            got[backend] = (ro.snapshot().tolist(), bound.counters.as_dict())
            if backend == "native":
                src = compiled.native_source
                # the two copy-only ifs became selects; the if/else did not
                assert src.count("_OPAQUE(_m") == 2
                assert "u_best = _s" in src and "u_seen = _s" in src
                assert src.count(" else {") == 1
        assert got["native"] == got["scalar"]


class TestToolchainFallback:
    def test_broken_cc_degrades_every_kernel(self, monkeypatch):
        monkeypatch.setenv(CC_ENV, "/nonexistent/definitely-not-a-compiler")
        reset_toolchain_probe()
        try:
            compiled = _compile_hist()
            assert compiled.native_kernel is None
            assert "unusable" in compiled.native_fallback_reason
            assert compiled.effective_backend in ("batch", "scalar")
            # results still correct through the fallback tier
            bound = compiled.bind(np.arange(16, dtype=np.float64))
            spec, idx = bound.make_spec([(2, "add")] * 8)
            from repro.freeride.runtime import FreerideEngine

            engine = FreerideEngine(num_threads=1, executor="serial")
            try:
                result = engine.run(spec, idx)
            finally:
                engine.close()
            assert result.ro.get(0, 0) + 0 >= 0  # ran to completion
        finally:
            monkeypatch.undo()
            reset_toolchain_probe()

    def test_probe_event_fires_once_per_process(self, monkeypatch):
        monkeypatch.setenv(CC_ENV, "/nonexistent/definitely-not-a-compiler")
        reset_toolchain_probe()
        try:
            tracer = Tracer()
            with tracing(tracer):
                _compile_hist()
                clear_kernel_cache()
                _compile_hist()  # second kernel: no second toolchain event
            fallbacks = [
                e for e in tracer.events() if e.name == "native_fallback"
            ]
            assert len(fallbacks) == 1
            decisions = [
                e for e in tracer.events() if e.name == "kernel_backend"
            ]
            assert len(decisions) == 2  # the per-kernel record still appears
        finally:
            monkeypatch.undo()
            reset_toolchain_probe()


@needs_cc
class TestDiskCache:
    def test_warm_start_zero_compiles(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        cold = Tracer()
        with tracing(cold):
            first = _compile_hist()
        assert first.native_kernel.native.compiled is True
        assert [s for s in cold.spans() if s.name == "native_compile"]
        assert [e for e in cold.events() if e.name == "native_cache.miss"]

        clear_kernel_cache()  # simulate a fresh engine/process
        warm = Tracer()
        with tracing(warm):
            second = _compile_hist()
        assert second.native_kernel.native.compiled is False  # attached, not built
        assert second.native_kernel.native.symbol == first.native_kernel.native.symbol
        assert not [s for s in warm.spans() if s.name == "native_compile"]
        hits = [e for e in warm.events() if e.name == "native_cache.hit"]
        assert hits and hits[0].args["path"].startswith(str(tmp_path))

    def test_format_version_bump_invalidates(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        first = _compile_hist()
        clear_kernel_cache()
        monkeypatch.setattr(
            native_mod, "NATIVE_FORMAT_VERSION",
            native_mod.NATIVE_FORMAT_VERSION + 1,
        )
        stale = Tracer()
        with tracing(stale):
            second = _compile_hist()
        # a new format version must never attach the stale artifact
        assert second.native_kernel.native.symbol != first.native_kernel.native.symbol
        assert second.native_kernel.native.compiled is True
        assert [e for e in stale.events() if e.name == "native_cache.miss"]
        assert [s for s in stale.spans() if s.name == "native_compile"]

    def test_artifacts_live_in_override_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        compiled = _compile_hist()
        nk = compiled.native_kernel.native
        assert nk.so_path.parent == tmp_path
        assert nk.so_path.exists()
        assert (tmp_path / f"{nk.symbol}.c").read_text() == nk.source


class TestMemoryCacheLRU:
    def test_eviction_counts_and_capacity(self):
        previous = set_kernel_cache_capacity(2)
        try:
            for bins in (4, 5, 6):
                compile_cached(
                    HISTOGRAM_CHAPEL_SOURCE,
                    {"bins": bins, "lo": 0.0, "width": 2.0},
                    opt_level=2, backend="scalar",
                )
            stats = kernel_cache_stats()
            assert stats["capacity"] == 2
            assert stats["entries"] == 2
            assert stats["evictions"] == 1
            assert stats["misses"] == 3
        finally:
            set_kernel_cache_capacity(previous)

    def test_hit_refreshes_recency(self):
        previous = set_kernel_cache_capacity(2)
        try:
            consts = [
                {"bins": b, "lo": 0.0, "width": 2.0} for b in (4, 5, 6)
            ]
            a = compile_cached(
                HISTOGRAM_CHAPEL_SOURCE, consts[0], opt_level=2
            )
            compile_cached(HISTOGRAM_CHAPEL_SOURCE, consts[1], opt_level=2)
            # touch A so B is the least recently used entry
            assert compile_cached(
                HISTOGRAM_CHAPEL_SOURCE, consts[0], opt_level=2
            ) is a
            compile_cached(HISTOGRAM_CHAPEL_SOURCE, consts[2], opt_level=2)
            # A survived the eviction that removed B
            assert compile_cached(
                HISTOGRAM_CHAPEL_SOURCE, consts[0], opt_level=2
            ) is a
            assert kernel_cache_stats()["evictions"] >= 1
        finally:
            set_kernel_cache_capacity(previous)

    def test_capacity_roundtrip(self):
        assert kernel_cache_capacity() == 128  # default restored by fixture
        old = set_kernel_cache_capacity(16)
        assert old == 128
        assert kernel_cache_capacity() == 16
        with pytest.raises(ValueError):
            set_kernel_cache_capacity(0)
        set_kernel_cache_capacity(old)
