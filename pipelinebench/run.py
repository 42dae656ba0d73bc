#!/usr/bin/env python3
"""Figure-pipeline benchmark: time one workload, check its outputs.

Run from the repository root:

    python3 pipelinebench/run.py --workload figure-cold --seed 0 \\
        --seconds 20 --trace 0

Workloads: ``figure-cold``, ``figure-warm``, ``online-inloop`` (see
``workloads.py`` and README.md).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of
``layers.py``.  Human-readable lines come first; the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every correctness check passed, 1 when one
failed (the JSON line is still printed) and non-zero without a JSON line
when the package under ``src/`` is missing.

Run isolation: every invocation is a fresh interpreter, and before each
op the persistent sweep pool is shut down (its workers joined) and the
in-process trace cache's memory tier cleared, so no op is served by
state an earlier op left behind.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# The script's directory is on sys.path; these import only the stdlib.
import checks
import layers
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (ignored by git).
WORK_ROOT = ROOT / ".pipelinebench"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Ops per run at least, however long they take.
MIN_OPS = 2

E2E_UNITS = {
    "wall_s": "s",
    "events_per_s": "events/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_paths() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"pipelinebench: no repro package under {SRC}; run from a "
                 "repository checkout")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# isolation and memory
# ---------------------------------------------------------------------------

def isolate(cache_dir=None) -> None:
    """Shut the sweep pool down, join its workers and empty the
    in-process memory tier of *cache_dir*'s trace cache."""
    from repro.experiments.runner import shutdown_pool
    from repro.workload.cache import shared_cache

    shutdown_pool()
    for child in multiprocessing.active_children():
        child.join(timeout=60)
    # shutdown_pool() does not wait for the pool's manager thread, which
    # holds the pool's queues (and their semaphores) until it ends.
    for thread in threading.enumerate():
        if thread is not threading.current_thread() and not thread.daemon:
            thread.join(timeout=60)
    if cache_dir is not None:
        shared_cache(cache_dir).clear()
    gc.collect()


def shutdown() -> None:
    """Shut the pool down and stop multiprocessing's resource tracker
    (started with the first spawned pool), so no child outlives the
    process."""
    from multiprocessing import resource_tracker

    isolate()
    resource_tracker._resource_tracker._stop()


def _hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process, in MB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _children_hwm_mb() -> float:
    return sum(_hwm_mb(p.pid) for p in multiprocessing.active_children())


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _cache_dir(workload: str, work: Path):
    return str(work / "cache") if workload == "figure-warm" else None


def setup(workload: str, seed: int, work: Path) -> None:
    """Import, plugin discovery and workload preparation: for
    ``figure-warm``, generating and writing its disk cache afresh, as a
    user's first pooled run of the figure with the cache on does."""
    import repro.experiments.figures  # noqa: F401 -- the op's import
    from repro.engine.plugins import ensure_discovered

    ensure_discovered()
    cache_dir = _cache_dir(workload, work)
    if cache_dir is not None:
        shutil.rmtree(cache_dir, ignore_errors=True)
        wl.run_figure_op(workload, wl.figure_seeds(seed), cache_dir=cache_dir,
                         workers=wl.WORKERS)


def timed_setups(workload: str, seed: int, work: Path) -> list[float]:
    """Seconds of :data:`SETUP_REPEATS` set-ups, each in a fresh
    interpreter (the last one's disk cache is what the ops read)."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed),
             "--work-dir", str(work)],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return times


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def run_op(workload: str, seed: int, cache_dir, traced: bool = False):
    """One isolated op: (OpResult, wall seconds, start on the monotonic
    clock, traced-only metrics)."""
    isolate(cache_dir)
    extra = {}
    started_mono = time.monotonic()
    started = time.perf_counter()
    try:
        if workload == "online-inloop":
            if traced:
                op, extra = layers.traced_online_op(wl.online_seeds(seed))
            else:
                op, _ = wl.run_online_op(wl.online_seeds(seed))
        else:
            workers = wl.WORKERS if workload == "figure-warm" else 0
            op = wl.figure_result(wl.run_figure_op(
                workload, wl.figure_seeds(seed), cache_dir=cache_dir,
                workers=workers, trace_spans=traced,
            ))
    except Exception as exc:
        # An op that raises fails all its units; the run goes on so the
        # failure is counted and reported.
        traceback.print_exc()
        op = wl.OpResult(errors=[f"op raised {exc!r}"])
    wall = time.perf_counter() - started
    return op, wall, started_mono, extra


def make_checker(workload: str, seed: int):
    return checks.Checker(
        wl.expected_units(workload, seed),
        expected=checks.load_pins(workload) if seed == 0 else None,
        required_source=wl.REQUIRED_SOURCE[workload],
    )


def run_claims(workload: str, op, checker) -> None:
    if workload == "online-inloop":
        checks.online_claims(op, checker)
    else:
        checks.figure_claims(op, checker)


def cross_check(workload: str, seed: int, cache_dir, checker) -> None:
    """Serial and ``workers=2`` dispatch must agree: figure-cold is
    re-run pooled, figure-warm serially (still from disk)."""
    if workload == "online-inloop":
        return
    isolate(cache_dir)
    workers = 0 if workload == "figure-warm" else wl.WORKERS
    op = wl.figure_result(wl.run_figure_op(
        workload, wl.figure_seeds(seed), cache_dir=cache_dir, workers=workers))
    checker.check(op, f"cross-check workers={workers}")
    isolate(cache_dir)


def measure(workload: str, seed: int, seconds: float, work: Path):
    """End-to-end metrics of ``--trace 0``."""
    setups = timed_setups(workload, seed, work)
    cache_dir = _cache_dir(workload, work)
    checker = make_checker(workload, seed)
    walls, children_mb, events = [], 0.0, 0
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_OPS or time.perf_counter() < deadline:
        op, wall, _, _ = run_op(workload, seed, cache_dir)
        children_mb = max(children_mb, _children_hwm_mb())
        checker.check(op, f"op {len(walls) + 1}")
        if not walls and not op.errors:
            run_claims(workload, op, checker)
        walls.append(wall)
        events = max(events, op.events)
    peak_mb = _hwm_mb() + children_mb
    cross_check(workload, seed, cache_dir, checker)
    wall = statistics.median(walls)
    print(f"ops: {len(walls)}, op wall s: {', '.join(f'{w:.3f}' for w in walls)}, "
          f"events per op: {events}")
    return {
        # Unscaled only when every op failed (the run is incorrect then).
        "wall_s": wl.scaled_wall(wall, events, workload) if events else wall,
        "events_per_s": events / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
    }, checker


def traced(workload: str, seed: int, work: Path, tracer):
    """Per-layer metrics of ``--trace 1``."""
    cache_dir = _cache_dir(workload, work)
    setup(workload, seed, work)
    checker = make_checker(workload, seed)
    # The kernel micro-benchmark runs first, before the ops fill the
    # heap that the cyclic GC would then traverse during it.
    m = {"host.calib_s": layers.host_calib(),
         "des.events_per_s": layers.des_events_per_s()}
    plain, spanned = [], []
    for i in range(layers.OPS_PER_SIDE):
        op, wall, _, _ = run_op(workload, seed, cache_dir)
        checker.check(op, f"untraced op {i + 1}")
        plain.append(wall)
        op, wall, started_mono, extra = run_op(workload, seed, cache_dir, traced=True)
        checker.check(op, f"traced op {i + 1}")
        spanned.append(wall)
    # The op-derived metrics need the last traced op whole; a failed op
    # is already counted, and the run goes on to report it.
    if not op.errors:
        run_claims(workload, op, checker)
    overhead = statistics.median(spanned) - statistics.median(plain)
    m["trace.overhead_s"] = overhead
    m["trace.overhead_pct"] = overhead / statistics.median(plain) * 100

    probe_dir = work / "probe-cache"
    m.update(layers.layer_probes(workload, seed, probe_dir, tracer))
    if workload == "figure-warm":
        if not op.errors:
            m.update(layers.pool_metrics(op.sweep, started_mono, wall, wl.WORKERS))
    else:
        m.update(layers.pool_probe(workload, seed, probe_dir, isolate))
    if workload == "online-inloop":
        m.update(extra)
    else:
        _, online = layers.traced_online_op(wl.online_seeds(seed)[:1])
        m.update(online)
    cross_check(workload, seed, cache_dir, checker)
    return m, checker


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed base (0 = the pinned default)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # A defined starting state: no inherited cache dir, chaos flags or
    # progress rendering.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    _import_paths()

    if args.setup_only:
        try:
            setup(args.workload, args.seed, Path(args.work_dir))
        finally:
            shutdown()
        return 0

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            from repro.obs.tracing import Tracer, write_chrome_trace

            tracer = Tracer()
            metrics, checker = traced(args.workload, args.seed, work, tracer)
            units = layers.LAYER_UNITS
            write_chrome_trace(
                WORK_ROOT / f"{args.workload}-seed{args.seed}.trace.json",
                tracer.spans,
            )
        else:
            print(f"host.calib_s: {layers.host_calib():.4f} s")
            metrics, checker = measure(args.workload, args.seed, args.seconds, work)
            units = E2E_UNITS
    finally:
        shutdown()
        shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"failed_ratio: {checker.failed_ratio:.6g} ratio "
          f"({checker.failed} of {checker.attempted} ops)")
    for failure in checker.failures:
        print(f"FAIL {failure}")
    print(json.dumps({
        "correct": checker.ok,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if checker.ok else 1


if __name__ == "__main__":
    sys.exit(main())
