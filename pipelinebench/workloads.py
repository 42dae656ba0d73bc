"""The benchmark's three workloads and the op each one times.

An *op* is one unit of user-visible work, timed end to end:

* ``figure-cold``   -- ``run_figure(6)`` with the trace cache off,
  serial: every cell simulates its trace (``des`` + ``net`` +
  ``mobility`` + ``workload.driver``), compiles and replays it.
* ``figure-warm``   -- the same figure at a 4x longer horizon from a
  filled on-disk trace cache on a fresh 2-worker pool: npz decode,
  compile, replay and pool dispatch, no generation.
* ``online-inloop`` -- protocol-in-the-loop simulations through
  ``execute(RunSpec(..., engine="online"))``: TP/BCS/QBC with checkpoint
  latency, QBC with stable-storage GC, and the coordinated CL and KT
  baselines.

Every op is reduced to an :class:`OpResult` -- per-unit checkpoint
counters plus the tier each unit's trace came from -- so one checker
(:mod:`checks`) covers all three.  A *unit* is a figure cell or one
online simulation.

Inputs come only from ``--seed``: seed ``n`` selects the cell seeds
``n*k .. n*k+k-1``, so different seeds never share a cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

#: Paper figure 6: P_switch 0.8, H 30% -- disconnections and
#: heterogeneity reach every driver path.
FIGURE = 6
T_SWITCH = (100.0, 1000.0, 10000.0)
#: Horizon of every cell, per figure workload.  The ``repro figure`` CLI
#: default is 2e4 with two seeds (~12 s per figure); 2000 with four
#: seeds keeps the unit mix and lets a 20 s run time several cold ops.
#: A warm op generates nothing, and on a fresh pool its ~1.5 s spin-up
#: would dwarf the decode, compile and replay of 2000-horizon cells
#: (~20% of the pool's time); at 8000 they take about half of it.
SIM_TIME = {"figure-cold": 2000.0, "figure-warm": 8000.0}
FIGURE_SEEDS = 4
PROTOCOLS = ("TP", "BCS", "QBC")

ONLINE_T_SWITCH = 1000.0
ONLINE_SIM_TIME = 2000.0
#: Six seeds: the QBC <= BCS <= TP check compares sums over the op's
#: seeds, because checkpoint latency perturbs each protocol's schedule
#: and single seeds tie or invert by a few checkpoints (4 of 40 seeds).
ONLINE_SEEDS = 6
#: As in examples/field_service_fleet.py.
CKPT_LATENCY = 0.05
GC_INTERVAL = 200.0

#: Events of one op at ``--seed 0``.  ``wall_s`` is scaled to this size
#: (see :func:`scaled_wall`).
NOMINAL_EVENTS = {
    "figure-cold": 124_465,
    "figure-warm": 465_933,
    "online-inloop": 204_817,
}

WORKLOADS = ("figure-cold", "figure-warm", "online-inloop")

#: Trace tier every unit of a workload must report.
REQUIRED_SOURCE = {
    "figure-cold": "uncached",
    "figure-warm": "disk",
    "online-inloop": "online",
}

#: Pool width of the pooled paths (sized for a 2-core host).
WORKERS = 2


@dataclass
class OpResult:
    """One op, reduced to what the checker and the metrics need."""

    #: unit -> protocol -> (n_total, n_forced); coordinated baselines
    #: report (n_total, n_snapshot).
    units: dict[str, dict[str, tuple[int, int]]] = field(default_factory=dict)
    #: unit -> trace tier ("uncached"/"disk"/"memory"/"generated") or,
    #: for online units, the engine kind that ran them.
    sources: dict[str, str] = field(default_factory=dict)
    #: Errors the op reported (quarantined cells, interruption).
    errors: list[str] = field(default_factory=list)
    #: Trace events generated, replayed or simulated by the op.
    events: int = 0
    #: The op's sweep (figure workloads), kept for validate_figure.
    sweep: Optional[object] = None


def cell_key(t_switch: float, seed: int) -> str:
    return f"T={t_switch:g}/seed={seed}"


def sim_key(seed: int, run: str, protocol: str) -> str:
    return f"seed={seed}/{run}/{protocol}"


def figure_seeds(seed: int) -> tuple[int, ...]:
    return tuple(range(seed * FIGURE_SEEDS, (seed + 1) * FIGURE_SEEDS))


def online_seeds(seed: int) -> tuple[int, ...]:
    return tuple(range(seed * ONLINE_SEEDS, (seed + 1) * ONLINE_SEEDS))


def expected_units(workload: str, seed: int) -> list[str]:
    """Every unit one op of *workload* must produce."""
    if workload == "online-inloop":
        return [
            sim_key(s, run, p)
            for run, protocols, _, n_seeds in ONLINE_MIX
            for s in online_seeds(seed)[:n_seeds]
            for p in protocols
        ]
    return [cell_key(t, s) for t in T_SWITCH for s in figure_seeds(seed)]


def figure_config(t_switch: float, seed: int, sim_time: float):
    """The WorkloadConfig of one figure-6 cell."""
    from repro.experiments.figures import FIGURE_PARAMS
    from repro.workload.config import WorkloadConfig

    p_switch, heterogeneity = FIGURE_PARAMS[FIGURE]
    return WorkloadConfig(
        p_send=0.4,
        p_switch=p_switch,
        heterogeneity=heterogeneity,
        sim_time=sim_time,
        t_switch=t_switch,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# figure ops
# ---------------------------------------------------------------------------

def run_figure_op(
    workload: str,
    seeds: Sequence[int],
    *,
    cache_dir: Optional[str] = None,
    workers: int = 0,
    trace_spans: bool = False,
):
    """One ``run_figure(6)`` call at *workload*'s horizon; cold when
    *cache_dir* is None."""
    from repro.experiments.figures import run_figure

    return run_figure(
        FIGURE,
        sim_time=SIM_TIME[workload],
        seeds=tuple(seeds),
        t_switch_values=T_SWITCH,
        use_cache=cache_dir is not None,
        cache_dir=cache_dir,
        workers=workers,
        progress=False,
        trace_spans=trace_spans,
    )


def figure_result(sweep) -> OpResult:
    """Reduce a :class:`SweepResult` to an :class:`OpResult`."""
    op = OpResult(sweep=sweep)
    for point in sweep.points:
        for tel in point.telemetry:
            key = cell_key(point.t_switch, tel.seed)
            op.units[key] = {
                r.protocol: (r.n_total, r.n_forced)
                for r in point.runs
                if r.seed == tel.seed
            }
            op.sources[key] = tel.trace_source
            op.events += tel.n_events
    op.errors = [str(e) for e in sweep.errors]
    if sweep.interrupted:
        op.errors.append("sweep interrupted")
    return op


# ---------------------------------------------------------------------------
# online op
# ---------------------------------------------------------------------------

#: (run label, protocols, RunSpec knobs, seeds it runs on) of the
#: online mix.  The latency trio runs on every op seed for the ordering
#: check; GC and the coordinated baselines on the first seed only, to
#: keep an op near 8 s.
ONLINE_MIX = (
    ("latency", PROTOCOLS, {"ckpt_latency": CKPT_LATENCY}, ONLINE_SEEDS),
    ("gc", ("QBC",), {"ckpt_latency": CKPT_LATENCY, "gc_interval": GC_INTERVAL}, 1),
    ("coordinated", ("CL", "KT"), {}, 1),
)


def online_specs(seeds: Sequence[int], observers=()):
    """(seed, run label, RunSpec) of every simulation of one op."""
    from repro.engine import RunSpec

    return [
        (seed, run, RunSpec(
            protocols=protocols,
            workload=figure_config(ONLINE_T_SWITCH, seed, ONLINE_SIM_TIME),
            engine="online", observers=observers, **knobs))
        for run, protocols, knobs, n_seeds in ONLINE_MIX
        for seed in seeds[:n_seeds]
    ]


def run_online_op(seeds: Sequence[int], observers=()) -> tuple[OpResult, list]:
    """The online mix over *seeds*; returns the op and the raw
    ``RunResult`` list (for storage and span metrics)."""
    from repro.engine import execute

    op = OpResult()
    results = []
    for seed, run, spec in online_specs(seeds, observers):
        result = execute(spec)
        results.append((seed, run, result))
        for o in result.outcomes:
            key = sim_key(seed, run, o.name)
            if o.coordinated is not None:
                counts = (o.coordinated.n_total, o.coordinated.n_snapshot)
            else:
                stats = o.metrics.stats
                counts = (stats.n_total, stats.n_forced)
                # Coordinated runs emit no trace, so only the
                # replayable simulations' events are counted.
                op.events += len(o.online.trace.events)
            op.units[key] = {o.name: counts}
            op.sources[key] = result.engine_kind
    return op, results


def scaled_wall(wall_s: float, events: int, workload: str) -> float:
    """*wall_s* scaled to the workload's nominal event count.

    Cell sizes vary with the seed (disconnections pause a host's
    application), by ~6% IQR across figure seed sets and ~10% across
    online ones.  Scaling by a per-seed constant removes that spread
    without changing any parent-vs-change ratio on the same seed."""
    return wall_s * NOMINAL_EVENTS[workload] / events
