"""The benchmark's three workloads, driven only through the program's public calls.

Every workload builds its inputs from a seed, opens the system under test
(``open``, part of set-up), runs operations (``op``), and judges the
outputs off the clock (``verdicts``).  In a traced operation the benchmark
wraps the public calls the operation makes (``instrument``) and removes the
wrappers afterwards, so untraced operations run the program unmodified.

Why these three (each layer an optimisation is likely to touch does most
of the work in one workload and little in another):

* ``kmeans-native`` is kernel-bound plus runner post-processing
  (``KmeansRunner``'s final ``_inertia`` recompute), over the process
  transport with few large splits.
* ``histogram-finegrain`` is dispatch-bound: 512-element splits make the
  engine's per-split loop and run record dominate a tiny native kernel,
  and the runner does no post-processing.
* ``delta-churn`` writes (append/retract/commit/checkpoint) through
  ``run_delta`` on the batch backend, bypassing native compilation and the
  app runners.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from unittest import mock

import numpy as np

import repro.apps.histogram as histogram_app
import repro.apps.kmeans as kmeans_app
from repro.apps.histogram import HISTOGRAM_CHAPEL_SOURCE, HistogramRunner
from repro.apps.kmeans import KmeansRunner, kmeans_numpy_reference
from repro.compiler.cache import compile_cached
from repro.freeride.runtime import FreerideEngine

#: per-window minimum: the group is affine in the element position, so the
#: effect summary bounds which windows a retraction must replay
WINDOW_MIN_SOURCE = """
class windowMin : ReduceScanOp {
  def accumulate(x: real) {
    var w: int = toInt(elemIdx() / win);
    if (w > numWin - 1) { w = numWin - 1; }
    roMin(w, 0, x);
  }
}
"""

#: k-means centroids may differ from the numpy reference only by the
#: rounding of a different summation order (observed max error ~1e-14 on
#: coordinates of magnitude ~10)
KMEANS_ATOL = 1e-9

#: ``full`` is what the benchmark measures; ``tiny`` is for the self-test
SIZES = {
    "kmeans-native": {
        "full": {"n": 400_000, "k": 8, "dim": 4, "iterations": 5},
        "tiny": {"n": 2_000, "k": 4, "dim": 2, "iterations": 2},
    },
    "histogram-finegrain": {
        "full": {"n": 2_000_000, "bins": 64, "chunk": 512},
        "tiny": {"n": 20_000, "bins": 16, "chunk": 512},
    },
    "delta-churn": {
        "full": {"n": 400_000, "window": 256, "ticks_per_session": 40},
        "tiny": {"n": 8_192, "window": 256, "ticks_per_session": 6},
    },
}


@dataclass
class Span:
    """One timed public call made inside operation ``op``."""

    op: int | str
    name: str
    start: float
    end: float
    info: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """Spans kept in memory, written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: the operation new spans belong to: "setup", "prepare-<i>" (off
        #: the clock, before operation i) or the operation index i
        self.op: int | str = "setup"

    def record(self, name: str, start: float, end: float, info=None) -> None:
        self.spans.append(Span(self.op, name, start, end, info))

    def timed(self, name: str, fn, info=None, result=None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``info(value, args)`` extracts what the span keeps from the call;
        ``result(value)`` may post-process the returned value.
        """

        def call(*args, **kwargs):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            self.record(name, start, time.perf_counter(), info(value, args) if info else None)
            return result(value) if result else value

        return call

    def wrap(self, obj, attr: str, name: str, **kwargs) -> None:
        """Shadow the method ``obj.attr`` with a timed one (``delattr`` undoes it)."""
        setattr(obj, attr, self.timed(name, getattr(obj, attr), **kwargs))

    def of_op(self, op: int | str) -> list[Span]:
        return [s for s in self.spans if s.op == op]


class _RunnerWorkload:
    """Shared driving code for the two ``Runner.run`` workloads."""

    app_module = None  # the module whose ``compile_cached`` set-up calls

    def open(self, spans: Spans | None = None) -> None:
        patch = nullcontext()
        if spans is not None:
            timed = spans.timed("compiler.compile", compile_cached)
            patch = mock.patch.object(self.app_module, "compile_cached", timed)
        with patch:
            self.runner = self._make_runner()

    def close(self) -> None:
        self.runner.close()

    def instrument(self, spans: Spans) -> None:
        def wrap_bound(bound):
            spans.wrap(bound, "make_spec", "compiler.make_spec")
            spans.wrap(bound, "update_extras", "compiler.update_extras")
            return bound

        spans.wrap(self.runner.compiled, "bind", "compiler.bind", result=wrap_bound)
        spans.wrap(
            self.runner.engine, "run", "freeride.run", info=lambda value, args: value.stats
        )

    def uninstrument(self) -> None:
        delattr(self.runner.compiled, "bind")
        delattr(self.runner.engine, "run")

    def session_complete(self) -> bool:
        return True

    def measured_walls(self, walls: list[float], outputs: list) -> list[float]:
        """The operation walls the end-to-end metrics are computed from."""
        return walls

    def prepare(self) -> None:
        pass

    def finish(self) -> None:
        pass

    def _timed_reference(self):
        start = time.perf_counter()
        want = self.reference()
        self.ref_s = [time.perf_counter() - start]
        return want


class KmeansNative(_RunnerWorkload):
    name = "kmeans-native"
    app_module = kmeans_app

    def __init__(self, seed: int, size: str = "full", corrupt: bool = False) -> None:
        p = SIZES[self.name][size]
        self.k, self.dim, self.iterations = p["k"], p["dim"], p["iterations"]
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-10.0, 10.0, (self.k, self.dim))
        labels = rng.integers(0, self.k, p["n"])
        self.points = centers[labels] + rng.standard_normal((p["n"], self.dim))
        self.initial = self.points[rng.choice(p["n"], self.k, replace=False)].copy()
        self.elements_per_op = p["n"] * self.iterations
        self.corrupt = corrupt

    def _make_runner(self):
        return KmeansRunner(
            self.k, self.dim, version="opt-2", num_threads=2,
            executor="process", backend="native",
        )

    def op(self):
        result = self.runner.run(self.points, self.initial, self.iterations)
        self.counters = result.counters  # of the most recent operation
        return result.centroids, result.counts

    def reference(self):
        return kmeans_numpy_reference(self.points, self.initial, self.iterations)

    def verdicts(self, outputs: list) -> list[bool]:
        want_cents, want_counts = self._timed_reference()
        if self.corrupt and outputs[0] is not None:
            outputs[0] = (outputs[0][0] + 1.0,) + outputs[0][1:]
        return [
            out is not None
            and np.allclose(out[0], want_cents, rtol=0.0, atol=KMEANS_ATOL)
            and np.array_equal(out[1], want_counts)
            for out in outputs
        ]


class HistogramFinegrain(_RunnerWorkload):
    name = "histogram-finegrain"
    app_module = histogram_app
    lo, hi = -4.0, 4.0

    def __init__(self, seed: int, size: str = "full", corrupt: bool = False) -> None:
        p = SIZES[self.name][size]
        self.bins, self.chunk = p["bins"], p["chunk"]
        self.data = np.random.default_rng(seed).standard_normal(p["n"])
        self.elements_per_op = p["n"]
        self.corrupt = corrupt

    def _make_runner(self):
        return HistogramRunner(
            self.bins, self.lo, self.hi, version="opt-2", num_threads=2,
            executor="threads", chunk_size=self.chunk, backend="native",
        )

    def op(self):
        result = self.runner.run(self.data)
        self.counters = result.counters  # of the most recent operation
        return (result.counts,)

    def reference(self):
        """numpy clamp-and-bincount of the same data."""
        width = (self.hi - self.lo) / self.bins
        b = np.clip(((self.data - self.lo) / width).astype(np.int64), 0, self.bins - 1)
        return np.bincount(b, minlength=self.bins).astype(np.float64)

    def verdicts(self, outputs: list) -> list[bool]:
        want = self._timed_reference()
        if self.corrupt and outputs[0] is not None:
            outputs[0] = (outputs[0][0] + 1.0,) + outputs[0][1:]
        return [out is not None and np.array_equal(out[0], want) for out in outputs]


@dataclass
class _Session:
    """One add-histogram / windowed-min session pair over one stream."""

    add: object
    min: object
    add_bound: object
    min_bound: object
    limit: int
    ticks: int = 0


class DeltaChurn:
    """Two delta sessions over one dyadic stream, fed the same churn.

    A tick appends 0.375% of n and retracts 0.125% of n clustered in three
    windows.  A session runs a fixed number of ticks and is then checked
    and replaced by a fresh baseline, off the clock: per-tick latency
    drifts upward within a session, so one session growing for as long as
    a run lasts would make ``op_s_p50`` depend on the speed it measures.
    Every session replays the same churn, drawn from the seed, so the tick
    at a given position repeats the same work in each session.
    """

    name = "delta-churn"
    add_bins = 16

    def __init__(self, seed: int, size: str = "full", corrupt: bool = False) -> None:
        p = SIZES[self.name][size]
        self.n, self.win = p["n"], p["window"]
        self.ticks_per_session = p["ticks_per_session"]
        self.num_win = self.n // self.win
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.base = self._dyadic(self.n)
        churn = self.n // 200  # 0.5% of n per tick
        self.append_n, self.retract_n = churn * 3 // 4, churn // 4
        self.elements_per_op = 2 * (self.append_n + self.retract_n)  # both sessions
        self.corrupt = corrupt
        self.session: _Session | None = None
        #: verdict of every finished session, in order
        self.session_ok: list[bool] = []
        #: per checked session: cold recompute and numpy reference seconds
        self.cold_s: list[float] = []
        self.ref_s: list[float] = []
        #: both binds' OpCounters over the set-up session (baseline + 1 tick)
        self.counters = None
        self.spans: Spans | None = None

    def _dyadic(self, n: int) -> np.ndarray:
        """Values on a 1/8 grid in [0, 2]: every float sum stays exact."""
        return np.round(self.rng.uniform(0.0, 2.0, n) * 8) / 8

    # -- set-up ---------------------------------------------------------------

    def open(self, spans: Spans | None = None) -> None:
        self.spans = spans
        self.engine = FreerideEngine(num_threads=2, executor="threads")
        compile_ = compile_cached
        if spans is not None:
            compile_ = spans.timed("compiler.compile", compile_cached)
        self.add_compiled = compile_(
            HISTOGRAM_CHAPEL_SOURCE,
            {"bins": self.add_bins, "lo": 0.0, "width": 0.125},
            opt_level=2, backend="batch",
        )
        self.min_compiled = compile_(
            WINDOW_MIN_SOURCE, {"win": self.win, "numWin": self.num_win},
            opt_level=2, backend="batch",
        )
        self.add_layout = [(2, "add")] * self.add_bins
        self.min_layout = [(1, "min")] * self.num_win
        # the set-up session ends after its one untimed tick
        self._new_session(limit=1)

    def _new_session(self, limit: int) -> None:
        self.appended: list[np.ndarray] = []
        self.rng = np.random.default_rng([self.seed, 1])  # the churn restarts
        if self.spans is not None:
            self.spans.wrap(self.engine, "run_baseline", "delta.baseline")
        try:
            add_bound = self.add_compiled.bind(self.base.copy())
            _, add = self.engine.run_baseline(bound=add_bound, ro_layout=self.add_layout)
            min_bound = self.min_compiled.bind(self.base.copy())
            _, min_ = self.engine.run_baseline(bound=min_bound, ro_layout=self.min_layout)
        finally:
            if self.spans is not None:
                delattr(self.engine, "run_baseline")
        self.session = _Session(add, min_, add_bound, min_bound, limit)

    def close(self) -> None:
        self.engine.close()

    # -- operations -------------------------------------------------------------

    def session_complete(self) -> bool:
        return self.session.ticks == self.session.limit

    def measured_walls(self, walls: list[float], outputs: list) -> list[float]:
        """The fastest repeat of each tick position, in position order.

        A tick's cost grows about threefold across a session, and on a
        shared host slow phases lasting seconds take a share of the ticks
        that changes from run to run; quantiles over every tick would follow
        that share.  Each position repeats the same work once per session,
        so its fastest repeat is the tick's cost with the least
        interference.  Ticks that raised have no position and are left out
        (they are counted as failed).
        """
        best: dict[int, float] = {}
        for wall, out in zip(walls, outputs):
            if out is not None:
                best[out[1]] = min(wall, best.get(out[1], wall))
        return [best[tick] for tick in sorted(best)]

    def prepare(self) -> None:
        """Replace a finished session, then draw the next tick's churn."""
        if self.session_complete():
            self.finish()
            self._new_session(limit=self.ticks_per_session)
        live = self.session.min.live[: self.num_win * self.win]
        live = live.reshape(self.num_win, self.win)
        # the last window also owns every appended element; retracting there
        # would replay the whole tail, so churn stays clear of it
        enough = np.flatnonzero(live[:-1].sum(axis=1) * 3 >= self.retract_n)
        wins = self.rng.choice(enough, 3, replace=False)
        pool = (wins[:, None] * self.win + np.arange(self.win))[live[wins]]
        self.retract = np.sort(self.rng.choice(pool, self.retract_n, replace=False))
        self.append = self._dyadic(self.append_n)

    def op(self) -> tuple[int, int]:
        """One tick; returns (session number, tick number within it)."""
        session = self.session
        session.ticks += 1
        self.appended.append(self.append)
        self.engine.run_delta(session.add, append=self.append, retract=self.retract)
        self.engine.run_delta(session.min, append=self.append, retract=self.retract)
        return len(self.session_ok), session.ticks

    def instrument(self, spans: Spans) -> None:
        add = self.session.add

        def info(value, args):
            return ("add" if args[0] is add else "min", value.stats)

        spans.wrap(self.engine, "run_delta", "delta.run_delta", info=info)

    def uninstrument(self) -> None:
        delattr(self.engine, "run_delta")

    # -- correctness ----------------------------------------------------------------

    def finish(self) -> None:
        """Compare both sessions with a cold recompute of the live elements
        at their original positions (off the clock)."""
        session = self.session
        stream = np.concatenate([self.base] + self.appended)
        live = session.add.live
        start = time.perf_counter()
        add_cold = self._cold(self.add_compiled, stream[live], self.add_layout)
        # +inf is min's identity: it holds a retracted position without
        # contributing, so every live element keeps its window
        held = np.where(session.min.live, stream, np.inf)
        min_cold = self._cold(self.min_compiled, held, self.min_layout)
        self.cold_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        self._numpy_reference(stream, live)
        self.ref_s.append(time.perf_counter() - start)
        if self.counters is None:
            self.counters = session.add_bound.counters.copy()
            self.counters.add(session.min_bound.counters)
        got_add = session.add.ro.snapshot()
        if self.corrupt and not self.session_ok:
            got_add[0] += 1.0
        self.session_ok.append(
            np.array_equal(got_add, add_cold)
            and np.array_equal(session.min.ro.snapshot(), min_cold)
            and np.array_equal(session.add.live, session.min.live)
        )
        self.session = None  # a finished session's memory is not the next one's

    def _cold(self, compiled, data, layout) -> np.ndarray:
        spec, idx = compiled.bind(data).make_spec(layout)
        return self.engine.run(spec, idx).ro.snapshot()

    def _numpy_reference(self, stream, live) -> None:
        """What a non-incremental numpy user recomputes per tick."""
        vals = stream[live]
        b = np.clip((vals / 0.125).astype(np.int64), 0, self.add_bins - 1)
        np.bincount(b, minlength=self.add_bins)
        np.bincount(b, weights=vals, minlength=self.add_bins)
        held = np.where(live, stream, np.inf)
        np.minimum.reduceat(held, np.arange(self.num_win) * self.win)

    def verdicts(self, outputs: list) -> list[bool]:
        return [out is not None and self.session_ok[out[0]] for out in outputs]


WORKLOADS = {w.name: w for w in (KmeansNative, HistogramFinegrain, DeltaChurn)}
