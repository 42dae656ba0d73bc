"""Self-tests of the benchmark's correctness checker.

    python3 -m pytest pipelinebench -q

Each defect the checker exists for -- an off-by-one pinned counter, a
sweep hole, a figure-warm cell served from another tier than disk --
must fail its unit and count in ``failed_ratio``.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def _tiny_figure(**kwargs):
    from repro.experiments.figures import run_figure

    return run_figure(
        wl.FIGURE, sim_time=300.0, seeds=(0,), t_switch_values=(100.0, 1000.0),
        progress=False, **kwargs,
    )


@pytest.fixture(scope="module")
def cold():
    return _tiny_figure(use_cache=False)


def test_clean_op_passes(cold):
    op = wl.figure_result(cold)
    checker = checks.Checker(list(op.units), required_source="uncached")
    checker.check(op, "op 1")
    checker.check(op, "op 2")
    assert checker.ok
    assert (checker.attempted, checker.failed) == (4, 0)


def test_off_by_one_pinned_counter_fails(cold):
    op = wl.figure_result(cold)
    pins = copy.deepcopy(op.units)
    unit = sorted(pins)[0]
    n_total, n_forced = pins[unit]["QBC"]
    pins[unit]["QBC"] = (n_total + 1, n_forced)
    checker = checks.Checker(list(op.units), expected=pins)
    checker.check(op, "op")
    assert not checker.ok
    assert checker.failed_ratio == 0.5
    assert unit in checker.failures[0] and "counters" in checker.failures[0]


def test_sweep_hole_fails(cold):
    from repro.experiments.resilience import TaskError

    holed = copy.deepcopy(cold)
    point = holed.points[0]
    lost = point.telemetry.pop()
    point.runs = [r for r in point.runs if r.seed != lost.seed]
    holed.errors.append(
        TaskError(kind="timeout", t_switch=point.t_switch, seed=lost.seed))
    expected = wl.figure_result(cold).units
    checker = checks.Checker(list(expected), expected=expected)
    checker.check(wl.figure_result(holed), "op")
    assert not checker.ok
    assert checker.failed_ratio == 0.5
    assert any("no result" in f for f in checker.failures)
    assert any("timeout" in f for f in checker.failures)


def test_warm_cell_from_memory_tier_fails(tmp_path):
    """Without isolation a second in-process op is served from the
    memory tier; the warm checker must refuse it."""
    from repro.workload.cache import shared_cache

    cache_dir = str(tmp_path)
    _tiny_figure(cache_dir=cache_dir)  # fills both tiers
    shared_cache(cache_dir).clear()
    from_disk = wl.figure_result(_tiny_figure(cache_dir=cache_dir))
    from_memory = wl.figure_result(_tiny_figure(cache_dir=cache_dir))
    checker = checks.Checker(list(from_disk.units), required_source="disk")
    checker.check(from_disk, "isolated op")
    assert checker.ok
    checker.check(from_memory, "unisolated op")
    assert not checker.ok
    assert (checker.attempted, checker.failed) == (4, 2)
    assert all("'memory'" in f for f in checker.failures)


def test_failed_ratio_counts_every_defect(cold):
    op = wl.figure_result(cold)
    units = sorted(op.units)
    pins = copy.deepcopy(op.units)
    pins[units[0]]["TP"] = (pins[units[0]]["TP"][0] - 1, pins[units[0]]["TP"][1])
    checker = checks.Checker(units, expected=pins, required_source="uncached")
    checker.check(op, "off-by-one")  # one unit fails
    holed = copy.deepcopy(op)
    del holed.units[units[1]]
    checker.check(holed, "hole")  # both fail: pin and hole
    tier = copy.deepcopy(op)
    tier.sources[units[1]] = "memory"
    checker.check(tier, "tier")  # both fail: pin and tier
    assert (checker.attempted, checker.failed) == (6, 5)
    assert checker.failed_ratio == pytest.approx(5 / 6)


def test_online_ordering_claim():
    op = wl.OpResult(units={
        wl.sim_key(0, "latency", "TP"): {"TP": (900, 800)},
        wl.sim_key(0, "latency", "BCS"): {"BCS": (300, 200)},
        wl.sim_key(0, "latency", "QBC"): {"QBC": (290, 190)},
        wl.sim_key(1, "latency", "TP"): {"TP": (800, 700)},
        wl.sim_key(1, "latency", "BCS"): {"BCS": (200, 100)},
        wl.sim_key(1, "latency", "QBC"): {"QBC": (205, 105)},
    })
    checker = checks.Checker([])
    checks.online_claims(op, checker)
    assert checker.ok  # 495 <= 500 <= 1700 over the seeds
    op.units[wl.sim_key(1, "latency", "QBC")] = {"QBC": (215, 115)}
    checks.online_claims(op, checker)
    assert not checker.ok


def test_pins_cover_the_default_seed():
    for workload in wl.WORKLOADS:
        assert sorted(checks.load_pins(workload)) == sorted(
            wl.expected_units(workload, 0))


def test_benchmark_json_lists_every_metric():
    import layers
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_UNITS


def _sweep_with(t10000_bcs: int, t10000_qbc: int):
    """A figure sweep whose T_switch 10000 point has the given counts."""
    from repro.experiments.figures import figure_sweep_config
    from repro.experiments.runner import PointResult, RunOutcome, SweepResult

    counts = {
        100.0: {"TP": 1000, "BCS": 300, "QBC": 280},
        1000.0: {"TP": 1000, "BCS": 200, "QBC": 190},
        10000.0: {"TP": 1000, "BCS": t10000_bcs, "QBC": t10000_qbc},
    }
    sweep = SweepResult(config=figure_sweep_config(
        wl.FIGURE, sim_time=wl.SIM_TIME["figure-cold"], seeds=(0, 1),
        t_switch_values=tuple(counts)))
    for t, by_protocol in counts.items():
        point = PointResult(t_switch=t)
        for seed in (0, 1):
            point.runs += [
                RunOutcome(seed, name, n, n // 2, n // 2, 0, 0, 0)
                for name, n in by_protocol.items()
            ]
        sweep.points.append(point)
    return wl.OpResult(sweep=sweep)


def test_figure_claims_tolerate_a_one_percent_qbc_over_bcs():
    checker = checks.Checker([])
    checks.figure_claims(_sweep_with(200, 201), checker)
    assert checker.ok  # one checkpoint over 200 is seed noise
    checks.figure_claims(_sweep_with(200, 203), checker)
    assert [f for f in checker.failures if "QBC <= BCS" in f]
