"""The traced run: per-layer costs, timed from the benchmark's side.

Nothing here adds a span inside ``src/``.  Layer costs come from two
sources:

* the workload's own op, run with the spans the package already emits
  (``trace_spans=True`` on figures, a ``TimingObserver`` on online
  runs): cache tiers, pool spin-up / dispatch / busy ratio, online
  per-event costs, stable-storage writes;
* *probes*: the benchmark calls each layer's public functions on the
  op's own cells (the first seed of its seed set), each call inside a
  benchmark-side :class:`~repro.obs.tracing.Tracer` span.  The one
  call the package makes internally, ``generate_trace`` under a trace
  cache miss, is timed by wrapping the module attribute for the
  duration of the probe; ``load_trace`` is called directly.

Per-event costs are in microseconds per trace event of the probed
cells.  ``trace.overhead_*`` is the traced op's median wall time minus
the untraced op's, both run here, alternating.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import workloads as wl

#: Every per-layer metric and its unit (BENCHMARK.json's ``per_layer``).
LAYER_UNITS = {
    "des.events_per_s": "events/s",
    "workload.generate.us_per_event": "us/event",
    "workload.generate.events": "count",
    "workload.cache.disk_hit.us_per_event": "us/event",
    "workload.cache.hits": "count",
    "workload.cache.disk_hits": "count",
    "workload.cache.misses": "count",
    "core.trace_io.load.us_per_event": "us/event",
    "core.trace_io.verify.us_per_event": "us/event",
    "core.compiled.compile.us_per_event": "us/event",
    "core.compiled.array_columns.us_per_event": "us/event",
    "core.vectorized.lower.us_per_event": "us/event",
    "core.vectorized.closure.us_per_event": "us/event",
    "core.replay.fused.us_per_event": "us/event",
    "core.replay.vectorized_cold.us_per_event": "us/event",
    "core.replay.vectorized_warm.us_per_event": "us/event",
    "engine.plan.us": "us",
    "engine.execute.overhead_pct": "%",
    "experiments.sweep.overhead_ms_per_cell": "ms",
    "experiments.pool.spinup_s": "s",
    "experiments.pool.dispatch_ms_per_cell": "ms",
    "experiments.pool.busy_ratio": "ratio",
    "online.replayable.us_per_event": "us/event",
    "online.coordinated.us_per_event": "us/event",
    "storage.records_written": "count",
    "storage.gc_bytes_reclaimed": "bytes",
    "host.calib_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}

#: Untraced and traced ops per traced run, alternating.
OPS_PER_SIDE = 2

#: Events and concurrent ``call_later`` chains of the DES probe.
DES_EVENTS = 100_000
DES_CHAINS = 20


def host_calib() -> float:
    """Median seconds of a fixed pure-Python loop: moves with the host,
    never with the code under test."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def des_events_per_s() -> float:
    """Bare kernel throughput: ``call_later`` chains drained by ``run``."""
    from repro.des.core import Environment

    rng = random.Random(7)
    delays = [rng.expovariate(1.0) for _ in range(4096)]
    rates = []
    for _ in range(3):
        env = Environment()
        left = [DES_EVENTS]

        def tick():
            left[0] -= 1
            if left[0] > 0:
                env.call_later(delays[left[0] & 4095], tick)

        for i in range(DES_CHAINS):
            env.call_later(delays[i], tick)
        started = time.perf_counter()
        env.run()
        rates.append(env.event_count / (time.perf_counter() - started))
    return statistics.median(rates)


@contextmanager
def timed_attr(owner, name: str, tracer, span: str):
    """Record every call of ``owner.name`` as a *span* while active."""
    original = getattr(owner, name)

    def timed(*args, **kwargs):
        with tracer.span(span):
            return original(*args, **kwargs)

    setattr(owner, name, timed)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def counted_stores():
    """Count ``StableStorage.store`` calls (every record an MSS writes,
    handoff migrations included) while active."""
    from repro.storage.stable import StableStorage

    original = StableStorage.store
    count = [0]

    def store(self, record):
        count[0] += 1
        return original(self, record)

    StableStorage.store = store
    try:
        yield count
    finally:
        StableStorage.store = original


def _seconds(tracer, name: str) -> float:
    return sum(sp.duration_s for sp in tracer.spans if sp.name == name)


def _instances(n_hosts: int, n_mss: int) -> list:
    """Fresh counters-only TP/BCS/QBC, as the fused engine builds them."""
    from repro.engine import resolve_protocols

    out = []
    for entry in resolve_protocols(wl.PROTOCOLS):
        instance = entry.make(n_hosts, n_mss)
        instance.log_checkpoints = False
        out.append(instance)
    return out


def probe_configs(workload: str, seed: int) -> list:
    """The cells the probes run: the op's first seed."""
    if workload == "online-inloop":
        return [wl.figure_config(
            wl.ONLINE_T_SWITCH, wl.online_seeds(seed)[0], wl.ONLINE_SIM_TIME)]
    first = wl.figure_seeds(seed)[0]
    return [wl.figure_config(t, first, wl.SIM_TIME[workload]) for t in wl.T_SWITCH]


def pool_metrics(sweep, started_mono: float, wall_s: float, workers: int) -> dict:
    """Spin-up, unexplained per-cell time and busy ratio of one sweep
    run with ``trace_spans=True``.

    Spin-up is the time until the first cell starts in any worker (span
    timestamps are ``time.monotonic()``, comparable across processes on
    one host); dispatch is the pool capacity neither busy in cells nor
    spinning up, per cell."""
    cells = [rec.wall_time_s for rec in sweep.telemetry]
    first_start = min(
        sp["start_s"] for rec in sweep.telemetry for sp in rec.spans
    )
    spinup = first_start - started_mono
    idle = wall_s * workers - sum(cells) - spinup * workers
    return {
        "experiments.pool.spinup_s": spinup,
        "experiments.pool.dispatch_ms_per_cell": max(idle, 0.0) / len(cells) * 1e3,
        "experiments.pool.busy_ratio": sum(cells) / (wall_s * workers),
    }


def online_metrics(results, tracer, stores: int) -> dict:
    """Per-event online costs and storage counters from a traced online
    op.  Coordinated runs emit no trace; each is normalised by the
    events of its seed's TP run (same workload, without the control
    traffic)."""
    replayable_events = coordinated_events = 0
    gc_bytes = 0
    tp_events = {}
    for seed, run, result in results:
        for o in result.outcomes:
            if o.online is not None:
                replayable_events += len(o.online.trace.events)
                gc_bytes += o.online.gc_bytes_reclaimed
                if o.name == "TP":
                    tp_events[seed] = len(o.online.trace.events)
    for seed, run, result in results:
        coordinated_events += sum(
            tp_events[seed] for o in result.outcomes if o.coordinated is not None
        )
    return {
        "online.replayable.us_per_event":
            _seconds(tracer, "online-run") / replayable_events * 1e6,
        "online.coordinated.us_per_event":
            _seconds(tracer, "coordinated-run") / coordinated_events * 1e6,
        "storage.records_written": stores,
        "storage.gc_bytes_reclaimed": gc_bytes,
    }


def traced_online_op(seeds):
    """The online mix under a TimingObserver with store counting."""
    from repro.engine import TimingObserver

    timing = TimingObserver()
    with counted_stores() as stores:
        op, results = wl.run_online_op(seeds, observers=(timing,))
    return op, online_metrics(results, timing.tracer, stores[0])


def layer_probes(workload: str, seed: int, probe_dir: Path, tracer) -> dict:
    """Time each layer's public functions on the op's own cells."""
    from repro.core import trace_io
    from repro.core.compiled import array_columns
    from repro.core.replay import replay_fused, replay_vectorized
    from repro.core.trace import Trace
    from repro.core.vectorized import mask_closure, vectorized_trace
    from repro.engine import RunSpec, execute, plan
    from repro.experiments.figures import figure_sweep_config
    from repro.experiments.runner import run_sweep
    from repro.workload import driver
    from repro.workload.cache import TraceCache, config_key, shared_cache

    cfgs = probe_configs(workload, seed)
    cache_dir = str(probe_dir)
    m = {}

    # Generation, through a cache miss (which also writes the npz).
    missed = TraceCache(disk_dir=cache_dir)
    with timed_attr(driver, "generate_trace", tracer, "workload.generate"):
        traces = [missed.get_or_generate(cfg) for cfg in cfgs]
    events = sum(len(t.events) for t in traces)
    per_event = 1e6 / events
    m["workload.generate.events"] = events
    m["workload.generate.us_per_event"] = _seconds(tracer, "workload.generate") * per_event

    # Disk hits through a fresh cache, then bare loads with and without
    # the digest check (alternating, after one untimed load that pays
    # the npz reader's first-call costs).
    paths = [probe_dir / f"{config_key(cfg)}.npz" for cfg in cfgs]
    trace_io.load_trace(paths[0], validate=False)
    cache = TraceCache(disk_dir=cache_dir)
    for cfg in cfgs:
        with tracer.span("workload.cache.disk_hit"):
            cache.get_or_generate(cfg)
    # Each cell once more, now from the memory tier; the tier counts
    # are the two caches' own stats() (one miss, one disk hit and one
    # memory hit per cell when every tier works).
    for cfg in cfgs:
        cache.get_or_generate(cfg)
    for tier in ("hits", "disk_hits", "misses"):
        m[f"workload.cache.{tier}"] = missed.stats()[tier] + cache.stats()[tier]
    for _ in range(3):
        for path in paths:
            with tracer.span("core.trace_io.load"):
                trace_io.load_trace(path, validate=False, verify=False)
            with tracer.span("core.trace_io.load_verified"):
                trace_io.load_trace(path, validate=False, verify=True)
    m["workload.cache.disk_hit.us_per_event"] = _seconds(tracer, "workload.cache.disk_hit") * per_event
    m["core.trace_io.load.us_per_event"] = _seconds(tracer, "core.trace_io.load") / 3 * per_event
    m["core.trace_io.verify.us_per_event"] = (
        _seconds(tracer, "core.trace_io.load_verified")
        - _seconds(tracer, "core.trace_io.load")
    ) / 3 * per_event

    # Compile -> array columns -> vectorized lowering -> closure -> fused
    # replay, each on a copy with no cached views.
    fresh = [
        Trace(t.n_hosts, t.n_mss, list(t.events), t.sim_time, dict(t.meta))
        for t in traces
    ]
    for t in fresh:
        with tracer.span("core.compiled.compile"):
            t.compiled()
        with tracer.span("core.compiled.array_columns"):
            array_columns(t)
        with tracer.span("core.vectorized.lower"):
            vt = vectorized_trace(t)
        with tracer.span("core.vectorized.closure"):
            mask_closure(vt)
        with tracer.span("core.replay.fused"):
            replay_fused(t, _instances(t.n_hosts, t.n_mss))
    # Vectorized replay on a fresh disk load (columns seeded by the
    # loader, nothing lowered): first touch, then again.
    for path in paths:
        t = trace_io.load_trace(path, validate=False, verify=False)
        with tracer.span("core.replay.vectorized_cold"):
            replay_vectorized(t, _instances(t.n_hosts, t.n_mss))
        with tracer.span("core.replay.vectorized_warm"):
            replay_vectorized(t, _instances(t.n_hosts, t.n_mss))
    for name in (
        "core.compiled.compile",
        "core.compiled.array_columns",
        "core.vectorized.lower",
        "core.vectorized.closure",
        "core.replay.fused",
        "core.replay.vectorized_cold",
        "core.replay.vectorized_warm",
    ):
        m[name + ".us_per_event"] = _seconds(tracer, name) * per_event

    # Engine: planning cost, and execute() against the raw fused driver
    # on the same compiled traces.
    spec = RunSpec(
        protocols=wl.PROTOCOLS, workload=cfgs[0], engine="fused",
        counters_only=True, use_cache=True, cache_dir=cache_dir,
    )
    plan_us = []
    for _ in range(200):
        started = time.perf_counter()
        plan(spec)
        plan_us.append((time.perf_counter() - started) * 1e6)
    m["engine.plan.us"] = statistics.median(plan_us)
    raw, engine = [], []
    for t in fresh:
        r, e = [], []
        for _ in range(3):
            started = time.perf_counter()
            replay_fused(t, _instances(t.n_hosts, t.n_mss))
            r.append(time.perf_counter() - started)
            started = time.perf_counter()
            execute(RunSpec(
                protocols=wl.PROTOCOLS, trace=t, engine="fused",
                counters_only=True,
            ))
            e.append(time.perf_counter() - started)
        raw.append(statistics.median(r))
        engine.append(statistics.median(e))
    m["engine.execute.overhead_pct"] = (sum(engine) / sum(raw) - 1.0) * 100

    # Sweep layer: serial run_sweep over the cells minus the same cells
    # through execute(), both from the disk tier, alternating.
    sweep_cfg = figure_sweep_config(
        wl.FIGURE, sim_time=cfgs[0].sim_time, seeds=(cfgs[0].seed,),
        t_switch_values=[c.t_switch for c in cfgs], cache_dir=cache_dir,
        progress=False,
    )
    sweep_s, cells_s = [], []
    for _ in range(3):
        shared_cache(cache_dir).clear()
        started = time.perf_counter()
        run_sweep(sweep_cfg)
        sweep_s.append(time.perf_counter() - started)
        shared_cache(cache_dir).clear()
        started = time.perf_counter()
        for cfg in cfgs:
            execute(RunSpec(
                protocols=wl.PROTOCOLS, workload=cfg, engine="fused",
                counters_only=True, use_cache=True, cache_dir=cache_dir,
                seed=cfg.seed,
            ))
        cells_s.append(time.perf_counter() - started)
    shared_cache(cache_dir).clear()
    m["experiments.sweep.overhead_ms_per_cell"] = (
        statistics.median(sweep_s) - statistics.median(cells_s)
    ) / len(cfgs) * 1e3
    return m


def pool_probe(workload: str, seed: int, probe_dir: Path, isolate) -> dict:
    """Pool metrics of a fresh 2-worker sweep over the probe cells from
    the disk tier (for the workloads whose op is serial)."""
    from repro.experiments.figures import figure_sweep_config
    from repro.experiments.runner import run_sweep

    cfgs = probe_configs(workload, seed)
    sweep_cfg = figure_sweep_config(
        wl.FIGURE, sim_time=cfgs[0].sim_time, seeds=(cfgs[0].seed,),
        t_switch_values=[c.t_switch for c in cfgs], cache_dir=str(probe_dir),
        workers=wl.WORKERS, trace_spans=True, progress=False,
    )
    isolate(str(probe_dir))
    started_mono = time.monotonic()
    started = time.perf_counter()
    sweep = run_sweep(sweep_cfg)
    wall = time.perf_counter() - started
    isolate(str(probe_dir))
    return pool_metrics(sweep, started_mono, wall, wl.WORKERS)
