"""Correctness checks of the benchmark's ops.

:class:`Checker` judges each op unit by unit.  A unit (figure cell or
online simulation) *fails* when it is missing (an error or a sweep
hole), when its trace came from another tier than the workload
requires, or when its counters differ from the expected ones:

* at ``--seed 0`` the expected counters are pinned in ``pins.json``
  (taken from the code this benchmark was written against; generation
  is deterministic, so a pinned count moves only when RNG draw order or
  a protocol rule changes);
* at any other seed they are the first op's, so later ops and the
  cross-check on the other dispatch path must reproduce them.

Run-level claims -- :func:`figure_claims` and :func:`online_claims` --
fail the run without failing a unit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Sequence

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Run agreement ((max - min) / mean over seeds) is the paper's claim
#: at its 1e5 horizon.  At this benchmark's 2000 it reaches 40-120% at
#: T_switch <= 1000 on every seed set, so validate_figure's spread
#: check is switched off; its ordering and gain claims stay.
SPREAD_TOLERANCE = math.inf

#: validate_figure also holds QBC <= BCS in mean N_tot at every point.
#: QBC's saving is statistical, not pointwise (see repro.protocols.qbc).
#: At T_switch 10000 hand-offs are rare and the two protocols take
#: nearly the same checkpoints: over 40 seed sets, the 4-seed sums
#: invert by one checkpoint in 1 set at sim_time 2000 (+0.48%) and in 5
#: at 8000 (at most +0.13%).  A point fails that ordering only when
#: QBC exceeds BCS by more than this share of BCS.
QBC_TOLERANCE = 0.01


class Checker:
    """Accumulates unit verdicts over a run's ops."""

    def __init__(
        self,
        units: Sequence[str],
        expected: Optional[dict] = None,
        required_source: Optional[str] = None,
    ):
        self.units = tuple(units)
        #: unit -> protocol -> (n_total, n_forced); None until the
        #: first op when nothing is pinned.
        self.expected = expected
        self.required_source = required_source
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def fail_run(self, message: str) -> None:
        """Record a run-level failure (no unit is charged)."""
        self.failures.append(message)

    def check(self, op, label: str) -> None:
        """Judge every expected unit of *op* (an ``OpResult``)."""
        if self.expected is None:
            self.expected = {
                unit: _as_tuples(counts) for unit, counts in op.units.items()
            }
        for error in op.errors:
            self.failures.append(f"{label}: {error}")
        for unit in self.units:
            self.attempted += 1
            problem = self._problem(op, unit)
            if problem:
                self.failed += 1
                self.failures.append(f"{label} {unit}: {problem}")

    def _problem(self, op, unit: str) -> Optional[str]:
        counts = op.units.get(unit)
        if counts is None:
            return "no result (error or sweep hole)"
        source = op.sources.get(unit)
        if self.required_source and source != self.required_source:
            return f"trace served from {source!r}, expected {self.required_source!r}"
        want = self.expected.get(unit)
        got = _as_tuples(counts)
        if want is not None and got != want:
            return f"counters {got} != expected {want}"
        return None


def _as_tuples(counts: dict) -> dict[str, tuple[int, int]]:
    return {name: tuple(pair) for name, pair in counts.items()}


def load_pins(workload: str) -> dict:
    """Pinned ``--seed 0`` counters of *workload*'s units."""
    pins = json.loads(PINS_PATH.read_text())[workload]
    return {unit: _as_tuples(counts) for unit, counts in pins.items()}


def figure_claims(op, checker: Checker) -> None:
    """The figure's paper claims (``validate_figure``) on one op."""
    from repro.experiments.validation import validate_figure

    report = validate_figure(op.sweep, spread_tolerance=SPREAD_TOLERANCE)
    tolerated = tuple(
        f"T={p.t_switch:g}: QBC <= BCS"
        for p in op.sweep.points
        if p.mean_total("QBC") <= p.mean_total("BCS") * (1 + QBC_TOLERANCE)
    )
    for name in report.failed:
        if not name.startswith(tolerated):
            checker.fail_run(f"validate_figure: {name}")


def online_claims(op, checker: Checker) -> None:
    """QBC <= BCS <= TP, summed over the op's seeds per protocol."""
    totals = {"TP": 0, "BCS": 0, "QBC": 0}
    for unit, counts in op.units.items():
        if "/latency/" in unit:
            for name, (n_total, _) in counts.items():
                totals[name] += n_total
    if not totals["QBC"] <= totals["BCS"] <= totals["TP"]:
        checker.fail_run(f"online N_tot not QBC <= BCS <= TP: {totals}")
