"""Content addressing of published dataset segments.

``SharedBufferCache.publish`` finds candidate segments by size and a
strided byte sample, then confirms a match by exact comparison.  These
tests pin the semantics that replaced the full-buffer digest: equal bytes
share one segment wherever they live, bytes that differ — even only where
the sample does not look — never do, and a dataset mutated in place
between process-executor runs is republished, not served stale.
"""

import numpy as np
import pytest

from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE
from repro.compiler.cache import compile_cached
from repro.freeride.runtime import FreerideEngine
from repro.freeride.sharedmem import (
    _SAMPLE_BYTES,
    SharedBufferCache,
    _strided_sample,
    attach_shm_segment,
    close_shm_segment,
)

BINS = 8
LAYOUT = [(2, "add")] * BINS


@pytest.fixture
def cache():
    c = SharedBufferCache()
    yield c
    c.close()


def _segment_bytes(name: str, nbytes: int) -> bytes:
    shm = attach_shm_segment(name)
    try:
        return bytes(shm.buf[:nbytes])
    finally:
        close_shm_segment(shm)


def _unsampled_offset(flat: np.ndarray, start: int = 0) -> int:
    """A byte offset at or after ``start`` the strided sample does not read."""
    before = _strided_sample(flat)
    for off in range(start, flat.size):
        probe = flat.copy()
        probe[off] ^= 0xFF
        if _strided_sample(probe) == before:
            return off
    raise AssertionError("every byte is sampled; use a larger buffer")


class TestPublishContentAddressing:
    def test_equal_bytes_at_different_addresses_share_one_segment(self, cache):
        a = np.arange(5000, dtype=np.float64)
        b = a.copy()
        assert a.ctypes.data != b.ctypes.data
        assert cache.publish(a) == cache.publish(b)
        assert len(cache) == 1

    def test_same_size_same_sample_different_bytes_never_share(self, cache):
        a = np.zeros(64 * _SAMPLE_BYTES, dtype=np.uint8)
        b = a.copy()
        b[_unsampled_offset(a)] = 1
        assert _strided_sample(a) == _strided_sample(b)
        name_a, n_a = cache.publish(a)
        name_b, n_b = cache.publish(b)
        assert name_a != name_b
        assert len(cache) == 2
        assert _segment_bytes(name_a, n_a) == a.tobytes()
        assert _segment_bytes(name_b, n_b) == b.tobytes()
        # both stay addressable: republishing either finds its own segment
        assert cache.publish(a.copy())[0] == name_a
        assert cache.publish(b.copy())[0] == name_b
        assert len(cache) == 2

    def test_in_place_mutation_gets_a_fresh_segment(self, cache):
        arr = np.arange(4096, dtype=np.float64)
        flat = arr.view(np.uint8)
        first, nbytes = cache.publish(arr)
        flat[_unsampled_offset(flat)] ^= 0x01
        second, _ = cache.publish(arr)
        assert second != first
        assert _segment_bytes(second, nbytes) == arr.tobytes()

    def test_word_tail_is_compared(self, cache):
        a = np.zeros(8 * 100 + 5, dtype=np.uint8)  # 5-byte tail past the words
        b = a.copy()
        b[_unsampled_offset(a, start=800)] = 7
        assert cache.publish(a)[0] != cache.publish(b)[0]

    def test_empty_buffer(self, cache):
        empty = np.empty(0, dtype=np.float64)
        name, nbytes = cache.publish(empty)
        assert nbytes == 0
        assert cache.publish(empty.copy()) == (name, 0)
        assert len(cache) == 1


def _bound(data: np.ndarray):
    compiled = compile_cached(
        HISTOGRAM_CHAPEL_SOURCE,
        {"bins": BINS, "lo": 0.0, "width": 97.0 / BINS},
        opt_level=2,
    )
    return compiled.bind(data)


def _serial(data: np.ndarray) -> np.ndarray:
    spec, idx = _bound(data).make_spec(LAYOUT)
    with FreerideEngine(num_threads=2) as engine:
        return engine.run(spec, idx).ro.snapshot()


class TestProcessExecutorRepublish:
    def test_mutated_dataset_matches_serial_on_new_data(self):
        data = np.arange(331, dtype=np.float64) % 97  # integer-valued: exact
        bound = _bound(data)
        raw = bound.data_buf.raw
        # move one low point to the last bin, choosing a point whose bytes
        # the strided sample does not read: only exact comparison sees it
        for i in np.flatnonzero(data < 80.0):
            probe = raw.copy()
            probe[: data.nbytes].view(np.float64)[i] = 96.0
            if _strided_sample(probe) == _strided_sample(raw):
                break
        else:
            raise AssertionError("no element outside the sample")
        changed = data.copy()
        changed[i] = 96.0
        with FreerideEngine(num_threads=2, executor="process") as engine:
            spec, idx = bound.make_spec(LAYOUT)
            before = engine.run(spec, idx).ro.snapshot()
            assert np.array_equal(before, _serial(data))

            raw[: data.nbytes].view(np.float64)[:] = changed
            spec, idx = bound.make_spec(LAYOUT)
            after = engine.run(spec, idx).ro.snapshot()
            assert len(engine._res.segments) == 2
        assert np.array_equal(after, _serial(changed))
        assert not np.array_equal(after, before)

    def test_distinct_same_size_datasets_get_distinct_segments(self):
        a = np.arange(331, dtype=np.float64) % 97
        b = a[::-1].copy()
        assert a.nbytes == b.nbytes
        with FreerideEngine(num_threads=2, executor="process") as engine:
            bound_a, bound_b = _bound(a), _bound(b)
            name_a = engine._res.segments.publish(bound_a.data_buf.raw)[0]
            name_b = engine._res.segments.publish(bound_b.data_buf.raw)[0]
            assert name_a != name_b
            for bound, data in ((bound_a, a), (bound_b, b)):
                spec, idx = bound.make_spec(LAYOUT)
                got = engine.run(spec, idx).ro.snapshot()
                assert np.array_equal(got, _serial(data))
            assert len(engine._res.segments) == 2

    def test_rebinding_equal_data_reuses_the_segment(self):
        data = np.arange(331, dtype=np.float64) % 97
        with FreerideEngine(num_threads=2, executor="process") as engine:
            for _ in range(2):  # a fresh bind: new buffer, same bytes
                spec, idx = _bound(data.copy()).make_spec(LAYOUT)
                engine.run(spec, idx)
            assert len(engine._res.segments) == 1
