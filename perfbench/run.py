"""One-command benchmark of the FREERIDE stack: three workloads, end-to-end
and per-layer metrics.

    python3 perfbench/run.py --workload kmeans-native --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/workloads.py`` says why each was chosen):
``kmeans-native``, ``histogram-finegrain`` and ``delta-churn``.  Inputs
come from ``--seed``; the program only sees the generated data.  An
operation is one ``Runner.run`` call, or one delta tick.  Operations run
back to back (a closed loop, one client) for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics.  On ``delta-churn`` the
operation quantiles and ``elements_per_s`` are taken over the fastest
repeat of each tick position (``DeltaChurn.measured_walls`` says why).
``--trace 1`` alternates untraced and traced operations and reports
per-layer metrics from spans this benchmark records around the program's
public calls; the program's own tracer stays off in both.  Traced spans are written to
``.perfbench/spans/<workload>-seed<seed>.jsonl``.

Every run gets private, empty kernel-cache and profile-store directories
under ``.perfbench/`` and removes them at exit.  The last line of standard
output is the JSON result; outputs are checked against references off the
clock, and a failed check counts the operation as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

WORKLOADS = ("kmeans-native", "histogram-finegrain", "delta-churn")

#: set-up is measured this many times per run (this process plus fresh
#: child processes) and reported as the median
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "elements_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "compiler.compile_s": "s",
    "compiler.bind_s": "s",
    "compiler.make_spec_s": "s",
    "compiler.update_extras_s": "s",
    "freeride.run_s": "s",
    "freeride.local_s": "s",
    "freeride.finalize_s": "s",
    "freeride.global_combination_s": "s",
    "freeride.splits": "count",
    "freeride.us_per_split": "us",
    "freeride.local_merges": "count",
    "freeride.ns_per_elem": "ns",
    "freeride.retries": "count",
    "freeride.failed_splits": "count",
    "machine.ops_per_elem": "count",
    "machine.bytes_per_elem": "B-computed",
    "apps.post_s": "s",
    "apps.post_frac": "frac",
    "delta.baseline_s": "s",
    "delta.add_tick_s": "s",
    "delta.min_tick_s": "s",
    "delta.groups_replayed": "count",
    "delta.replay_elements_per_retract": "ratio",
    "delta.checkpoint_saves": "count",
    "delta.epoch_drift": "ratio",
    "delta.speedup_vs_cold": "x",
    "obs.trace_overhead_frac": "frac",
    "host.nproc": "count",
    "host.effective_parallelism": "x",
    "ref.floor_s": "s",
    "ref.overhead_x": "x",
}


@dataclass
class Op:
    index: int
    wall: float
    traced: bool
    output: object  # None when the operation raised
    warm: bool = False


def _import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
        import workloads
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")
    return workloads


def _setup(workload, work: Path, spans=None) -> tuple[float, object]:
    """Open the system under an empty kernel cache and run the first,
    untimed operation; returns (set-up seconds, that operation's output)."""
    cache = work / "kernels"
    cache.mkdir()
    os.environ["REPRO_KERNEL_CACHE"] = str(cache)
    start = time.perf_counter()
    workload.open(spans)
    opened = time.perf_counter() - start
    workload.prepare()
    start = time.perf_counter()
    output = workload.op()
    return opened + time.perf_counter() - start, output


def _measure(workload, seconds: float, spans) -> list[Op]:
    """Run operations for ``seconds``, then to the end of the current
    session.  With ``spans``, every second operation is traced."""
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or not workload.session_complete():
        index += 1
        traced = spans is not None and index % 2 == 0
        if spans is not None:
            spans.op = f"prepare-{index}"
        workload.prepare()
        if spans is not None:
            spans.op = index
        if traced:
            workload.instrument(spans)
        start = time.perf_counter()
        try:
            output = workload.op()
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"perfbench: operation {index} raised {exc!r}", file=sys.stderr)
            output = None
        wall = time.perf_counter() - start
        if traced:
            workload.uninstrument()
            spans.record("op", start, start + wall)
        ops.append(Op(index, wall, traced, output))
    return ops


def _child_setup_seconds(args) -> float:
    """Set-up time measured in a fresh interpreter (cold imports, caches)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-probe",
    ]
    # its own process group, so a probe that hangs is killed with the
    # workers it started
    with subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as probe:
        try:
            out, err = probe.communicate(timeout=60)
        except BaseException:
            os.killpg(probe.pid, signal.SIGKILL)
            probe.communicate()
            raise
    if probe.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{err}")
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def effective_parallelism(nproc: int, rounds: int = 8) -> float:
    """Best k * t(1) / t(k) over k = 2..nproc threads hashing in parallel.

    ``hashlib`` releases the GIL on large buffers, so this measures how
    many cores the host really gives this process, not Python's limits.
    """
    buf = bytes(4 << 20)

    def work() -> None:
        for _ in range(rounds):
            hashlib.sha256(buf).digest()

    def timed(k: int) -> float:
        best = float("inf")
        for _ in range(3):
            threads = [threading.Thread(target=work) for _ in range(k)]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            best = min(best, time.perf_counter() - start)
        return best

    one = timed(1)
    return max([1.0] + [k * one / timed(k) for k in range(2, nproc + 1)])


def _per_op(traced: list[Op], spans, fn) -> float:
    """Median over traced operations of ``fn(spans of the op, op)``."""
    return statistics.median(fn(spans.of_op(op.index), op) for op in traced)


def _seconds(ss, name: str) -> float:
    return sum(s.seconds for s in ss if s.name == name)


def _engine_stats(ss) -> list:
    """RunStats of every engine entry call in ``ss``."""
    out = []
    for s in ss:
        if s.name == "freeride.run":
            out.append(s.info)
        elif s.name == "delta.run_delta":
            out.append(s.info[1])
    return out


def _engine_seconds(ss) -> float:
    return _seconds(ss, "freeride.run") + _seconds(ss, "delta.run_delta")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(workload, ops: list[Op], spans) -> dict[str, float]:
    timed = [op for op in ops if not op.warm]
    traced = [op for op in timed if op.traced and op.output is not None]
    untraced_p50 = statistics.median(op.wall for op in timed if not op.traced)
    m: dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}

    m["compiler.compile_s"] = _seconds(spans.of_op("setup"), "compiler.compile")
    for layer in ("bind", "make_spec", "update_extras"):
        m[f"compiler.{layer}_s"] = _per_op(
            traced, spans, lambda ss, op, n=f"compiler.{layer}": _seconds(ss, n)
        )

    def phase(name):
        return lambda ss, op: sum(
            st.phase_seconds.get(name, 0.0) for st in _engine_stats(ss)
        )

    def splits(ss):
        return sum(sum(st.splits_per_thread) for st in _engine_stats(ss))

    m["freeride.run_s"] = _per_op(traced, spans, lambda ss, op: _engine_seconds(ss))
    m["freeride.local_s"] = _per_op(traced, spans, phase("local"))
    m["freeride.finalize_s"] = _per_op(traced, spans, phase("finalize"))
    m["freeride.global_combination_s"] = _per_op(
        traced, spans, phase("global_combination")
    )
    m["freeride.splits"] = _per_op(traced, spans, lambda ss, op: splits(ss))
    m["freeride.us_per_split"] = _per_op(
        traced, spans, lambda ss, op: 1e6 * _ratio(_engine_seconds(ss), splits(ss))
    )
    m["freeride.local_merges"] = _per_op(
        traced, spans,
        lambda ss, op: sum(st.local_combination.merges for st in _engine_stats(ss)),
    )
    m["freeride.ns_per_elem"] = _per_op(
        traced, spans,
        lambda ss, op: 1e9 * _ratio(
            _engine_seconds(ss), sum(st.total_elements for st in _engine_stats(ss))
        ),
    )
    all_stats = [st for op in traced for st in _engine_stats(spans.of_op(op.index))]
    m["freeride.retries"] = sum(st.retries for st in all_stats)
    m["freeride.failed_splits"] = sum(st.failed_splits for st in all_stats)

    counters = workload.counters
    m["machine.ops_per_elem"] = counters.total_ops() / counters.elements_processed
    moved = (
        counters.linear_reads + counters.linear_writes + counters.nested_reads
        + counters.nested_writes + counters.ro_updates
    )
    m["machine.bytes_per_elem"] = 8.0 * moved / counters.elements_processed

    def post(ss, op):
        return op.wall - sum(s.seconds for s in ss if s.name != "op")

    m["apps.post_s"] = _per_op(traced, spans, post)
    m["apps.post_frac"] = _per_op(traced, spans, lambda ss, op: post(ss, op) / op.wall)

    if workload.name == "delta-churn":
        baselines = {}
        for s in spans.spans:
            if s.name == "delta.baseline":
                baselines[s.op] = baselines.get(s.op, 0.0) + s.seconds
        m["delta.baseline_s"] = statistics.median(baselines.values())

        def kind(ss, which):
            return [s for s in ss if s.name == "delta.run_delta" and s.info[0] == which]

        def min_stats(ss):
            return kind(ss, "min")[0].info[1]

        m["delta.add_tick_s"] = _per_op(
            traced, spans, lambda ss, op: sum(s.seconds for s in kind(ss, "add"))
        )
        m["delta.min_tick_s"] = _per_op(
            traced, spans, lambda ss, op: sum(s.seconds for s in kind(ss, "min"))
        )
        m["delta.groups_replayed"] = _per_op(
            traced, spans, lambda ss, op: min_stats(ss).delta_groups_replayed
        )
        m["delta.replay_elements_per_retract"] = _per_op(
            traced, spans,
            lambda ss, op: _ratio(
                min_stats(ss).delta_replay_elements, min_stats(ss).delta_retracted
            ),
        )
        m["delta.checkpoint_saves"] = _per_op(
            traced, spans,
            lambda ss, op: sum(st.delta_checkpoint_saves for st in _engine_stats(ss)),
        )
        ticks = workload.ticks_per_session
        by_tick = [(op.output[1], op.wall) for op in timed if op.output is not None]
        first = [w for t, w in by_tick if t <= ticks // 4]
        last = [w for t, w in by_tick if t > ticks - ticks // 4]
        m["delta.epoch_drift"] = statistics.median(last) / statistics.median(first)
        m["delta.speedup_vs_cold"] = statistics.median(workload.cold_s) / untraced_p50

    m["obs.trace_overhead_frac"] = (
        statistics.median(op.wall for op in traced) / untraced_p50 - 1.0
    )
    m["host.nproc"] = float(os.cpu_count() or 1)
    m["host.effective_parallelism"] = effective_parallelism(int(m["host.nproc"]))
    m["ref.floor_s"] = statistics.median(workload.ref_s)
    m["ref.overhead_x"] = untraced_p50 / m["ref.floor_s"]
    return m


def run(args, wl, work: Path) -> dict:
    workload = wl.WORKLOADS[args.workload](args.seed, args.size, corrupt=args.corrupt)
    spans = None
    if args.trace:
        spans = wl.Spans()
    setups = []
    try:
        setup_s, output = _setup(workload, work, spans)
        setups.append(setup_s)
        ops = [Op(0, setup_s, False, output, warm=True)]
        ops += _measure(workload, args.seconds, spans)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.finish()
    finally:
        workload.close()
    verdicts = workload.verdicts([op.output for op in ops])
    attempted, failed = len(ops), verdicts.count(False)

    if args.trace:
        values = layer_metrics(workload, ops, spans)
        _write_spans(args, spans)
        units = PER_LAYER_UNITS
    else:
        for _ in range(1, SETUP_SAMPLES):
            setups.append(_child_setup_seconds(args))
        timed = [op for op in ops if not op.warm]
        walls = workload.measured_walls(
            [op.wall for op in timed], [op.output for op in timed]
        )
        values = {
            "setup_s": statistics.median(setups),
            "op_s_p50": statistics.median(walls),
            "op_s_p90": _p90(walls),
            "elements_per_s": workload.elements_per_op * len(walls) / sum(walls),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def _write_spans(args, spans) -> None:
    """One JSON line per span; ``op`` is the operation index (the span
    named ``op`` is the operation itself), ``"setup"`` or ``"prepare-<i>"``."""
    out = WORKDIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        for s in spans.spans:
            record = {"op": s.op, "name": s.name, "start": s.start, "end": s.end}
            f.write(json.dumps(record) + "\n")


def _stop_children() -> None:
    """Stop every process this one started and wait for each to end.

    The program's pools are joined by ``close()``, but ``multiprocessing``
    starts a shared-memory resource tracker that would outlive this process;
    closing its pipe makes it exit.  Any other child still running is then
    terminated (killed after a grace period) and reaped.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    me = str(os.getpid())
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            pids.append(int(stat.parent.name))
    for pid in pids:
        try:
            for sig in (None, signal.SIGTERM, signal.SIGKILL):
                if sig is not None:
                    os.kill(pid, sig)
                deadline = time.perf_counter() + 2.0
                while os.waitpid(pid, os.WNOHANG) == (0, 0):
                    if time.perf_counter() > deadline:
                        break
                    time.sleep(0.02)
                else:
                    break
        except (ChildProcessError, ProcessLookupError):
            pass  # already reaped


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the benchmark's self-test",
    )
    ap.add_argument(
        "--corrupt", action="store_true",
        help="corrupt one output before checking (self-test of the checks)",
    )
    ap.add_argument(
        "--setup-probe", action="store_true",
        help="measure set-up once in this process and print it (internal)",
    )
    args = ap.parse_args(argv)
    # a terminated run still closes the program and stops its children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = WORKDIR / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # profiling stays disabled (no runner is given a store); the private
        # directory guards against any code path that opens the default one
        os.environ["REPRO_PROFILE_STORE"] = str(work / "profiles")
        wl = _import_program()
        if args.setup_probe:
            workload = wl.WORKLOADS[args.workload](args.seed, args.size)
            try:
                setup_s, _ = _setup(workload, work)
            finally:
                workload.close()
            result = {"setup_s": setup_s}
        else:
            result = run(args, wl, work)
    finally:
        _stop_children()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
