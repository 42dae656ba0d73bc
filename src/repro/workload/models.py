"""Builtin workload models.

Each entry shapes one axis the paper's uniform model fixes:

========== ==========================================================
``paper``    Section 5.1 exactly (the registry default).
``zipf``     Zipf-skewed destination popularity.
``hotspot``  A hot set of receiver hosts absorbing most traffic.
``bursty``   MMPP-style on/off arrival phases per host.
``trace``    Inter-operation delays replayed from a JSONL schedule.
``daynight`` Periodic day/night modulation of cell-residence times.
========== ==========================================================

Every model draws only from namespaced RNG streams
(``workload/...``, plus the driver's existing ``app/...`` streams), so
two models given the same seed perturb each other's draws only through
the decisions themselves -- and ``paper`` makes exactly the draws the
pre-registry driver made, keeping its traces bit-identical.
"""

from __future__ import annotations

import json
import os
from collections import deque

from repro.workload.registry import (
    Param,
    WorkloadModel,
    WorkloadParamError,
    cast_bool,
    register_workload,
)


@register_workload("paper")
class PaperWorkload(WorkloadModel):
    """The paper's Section 5.1 model: Exp(``internal_mean``) arrivals,
    uniform destinations, unmodulated mobility.

    The base-class hooks *are* this model; the subclass exists so the
    registry's default entry has a name and a docstring.
    """


@register_workload("zipf")
class ZipfWorkload(WorkloadModel):
    """Zipf-skewed destination popularity: host ``d`` is drawn with
    weight ``(d + 1) ** -alpha``, so low host ids are hot receivers.

    ``alpha = 0`` degenerates to uniform; the paper's figures probe
    uniform only, while survey work (PAPERS.md) notes protocol overhead
    rankings flip under skew -- checkpoint pressure concentrates on the
    hot receivers' Z-paths.
    """

    PARAMS = {
        "alpha": Param(1.0, float, "Zipf exponent (0 = uniform)"),
    }

    def _setup(self) -> None:
        alpha = self.params["alpha"]
        if alpha < 0:
            raise WorkloadParamError(
                f"workload 'zipf' parameter 'alpha' must be >= 0, "
                f"got {alpha}"
            )
        self._weight = [
            (d + 1) ** -alpha for d in range(self.config.n_hosts)
        ]

    def choose_destination(self, host, candidates, rng, now):
        weight = self._weight
        total = 0.0
        for d in candidates:
            total += weight[d]
        u = rng.uniform(f"workload/zipf/{host}") * total
        acc = 0.0
        for d in candidates:
            acc += weight[d]
            if u < acc:
                return d
        return candidates[len(candidates) - 1]


@register_workload("hotspot")
class HotspotWorkload(WorkloadModel):
    """Hot-set destination skew: with probability ``bias`` a send
    targets the hot set (host ids ``0 .. n_hot-1``), uniformly;
    otherwise it falls back to a uniform draw over every candidate.

    When no hot host is reachable (all disconnected) the send falls
    back to the uniform draw without consuming the bias coin.
    """

    PARAMS = {
        "n_hot": Param(1, int, "size of the hot set (host ids 0..n_hot-1)"),
        "bias": Param(0.8, float, "probability a send targets the hot set"),
    }

    def _setup(self) -> None:
        if self.params["n_hot"] < 1:
            raise WorkloadParamError(
                f"workload 'hotspot' parameter 'n_hot' must be >= 1, "
                f"got {self.params['n_hot']}"
            )
        if not 0.0 <= self.params["bias"] <= 1.0:
            raise WorkloadParamError(
                f"workload 'hotspot' parameter 'bias' must be in [0, 1], "
                f"got {self.params['bias']}"
            )

    def choose_destination(self, host, candidates, rng, now):
        n_hot = self.params["n_hot"]
        hot = [d for d in candidates if d < n_hot]
        pool = (
            hot
            if hot
            and rng.bernoulli(f"workload/hot/{host}", self.params["bias"])
            else candidates
        )
        return pool[rng.choice_index(self.dst_stream[host], len(pool))]


@register_workload("bursty")
class BurstyWorkload(WorkloadModel):
    """MMPP-style on/off arrivals: each host alternates exponential ON
    phases (operations ``burst_factor`` times faster than
    ``internal_mean``) and OFF phases (``burst_factor`` times slower).

    Phase boundaries are drawn lazily per host from the
    ``workload/burst/{host}`` stream as simulation time crosses them,
    so the phase machine is deterministic for a given seed and adds no
    draws to other hosts' streams.
    """

    PARAMS = {
        "on_mean": Param(500.0, float, "mean ON-phase duration"),
        "off_mean": Param(500.0, float, "mean OFF-phase duration"),
        "burst_factor": Param(
            5.0, float, "arrival speed-up in ON phases (slow-down in OFF)"
        ),
    }

    def _setup(self) -> None:
        for key in ("on_mean", "off_mean"):
            if self.params[key] <= 0:
                raise WorkloadParamError(
                    f"workload 'bursty' parameter {key!r} must be "
                    f"positive, got {self.params[key]}"
                )
        if self.params["burst_factor"] < 1.0:
            raise WorkloadParamError(
                f"workload 'bursty' parameter 'burst_factor' must be "
                f">= 1, got {self.params['burst_factor']}"
            )
        self._on: dict[int, bool] = {}
        self._end: dict[int, float] = {}

    def _phase(self, host, rng, now) -> bool:
        on = self._on.get(host, True)
        end = self._end.get(host)
        if end is None:
            end = rng.exponential(
                f"workload/burst/{host}", self.params["on_mean"]
            )
        while now >= end:
            on = not on
            end += rng.exponential(
                f"workload/burst/{host}",
                self.params["on_mean"] if on else self.params["off_mean"],
            )
        self._on[host] = on
        self._end[host] = end
        return on

    def arrival_delay(self, host, rng, now):
        factor = self.params["burst_factor"]
        mean = (
            self.config.internal_mean / factor
            if self._phase(host, rng, now)
            else self.config.internal_mean * factor
        )
        return rng.exponential(self.internal_stream[host], mean)


@register_workload("trace")
class TraceWorkload(WorkloadModel):
    """Trace-driven arrivals: inter-operation delays replayed from a
    JSONL schedule, one ``{"host": h, "delay": d}`` object per line.

    The schedule is read lazily (never materialized), with per-host
    queues buffering records read ahead for other hosts -- interleave
    hosts in the file to keep that buffering small.  At end of file the
    schedule restarts when ``wrap`` is true; a host with no records at
    all (or everyone, once an unwrapped schedule is exhausted) falls
    back to the paper's Exp(``internal_mean``) arrivals.
    """

    PARAMS = {
        "path": Param(None, str, "JSONL schedule file", required=True),
        "wrap": Param(
            True, cast_bool, "restart the schedule at end of file"
        ),
    }

    def _setup(self) -> None:
        path = self.params["path"]
        if not os.path.isfile(path):
            raise WorkloadParamError(
                f"workload 'trace': schedule file not found: {path}"
            )
        self._fh = open(path, encoding="utf-8")
        self._lineno = 0
        self._queues: dict[int, deque] = {}
        self._absent: set[int] = set()

    def _read_record(self):
        """Next (host, delay) record, ``()`` for a blank line, ``None``
        at end of file."""
        line = self._fh.readline()
        if not line:
            return None
        self._lineno += 1
        line = line.strip()
        if not line:
            return ()
        try:
            record = json.loads(line)
            host = int(record["host"])
            delay = float(record["delay"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkloadParamError(
                f"workload 'trace': bad schedule line {self._lineno} "
                f"of {self.params['path']}: {exc}"
            ) from None
        if delay < 0:
            raise WorkloadParamError(
                f"workload 'trace': negative delay on line "
                f"{self._lineno} of {self.params['path']}"
            )
        return host, delay

    def arrival_delay(self, host, rng, now):
        if host not in self._absent:
            queue = self._queues.get(host)
            if queue is None:
                queue = self._queues[host] = deque()
            wrapped = False
            while not queue:
                record = self._read_record()
                if record is None:
                    if not self.params["wrap"] or wrapped:
                        self._absent.add(host)
                        break
                    self._fh.seek(0)
                    self._lineno = 0
                    wrapped = True
                    continue
                if not record:
                    continue  # blank line
                h, delay = record
                other = self._queues.get(h)
                if other is None:
                    other = self._queues[h] = deque()
                other.append(delay)
            if queue:
                return queue.popleft()
        return rng.exponential(
            self.internal_stream[host], self.config.internal_mean
        )


@register_workload("daynight")
class DayNightWorkload(WorkloadModel):
    """Day/night mobility modulation: during the night fraction of each
    period, cell-residence times stretch by ``night_factor`` (hosts
    move less); the application model is untouched.

    The scale is a deterministic function of simulation time, so it
    consumes no RNG draws and composes with heterogeneity (fast hosts
    stay proportionally fast at night).
    """

    PARAMS = {
        "period": Param(4000.0, float, "length of one day/night cycle"),
        "day_fraction": Param(
            0.5, float, "fraction of the period that is day (unscaled)"
        ),
        "night_factor": Param(
            4.0, float, "residence-time multiplier at night"
        ),
    }

    def _setup(self) -> None:
        if self.params["period"] <= 0:
            raise WorkloadParamError(
                f"workload 'daynight' parameter 'period' must be "
                f"positive, got {self.params['period']}"
            )
        if not 0.0 <= self.params["day_fraction"] <= 1.0:
            raise WorkloadParamError(
                f"workload 'daynight' parameter 'day_fraction' must be "
                f"in [0, 1], got {self.params['day_fraction']}"
            )
        if self.params["night_factor"] <= 0:
            raise WorkloadParamError(
                f"workload 'daynight' parameter 'night_factor' must be "
                f"positive, got {self.params['night_factor']}"
            )

    def residence_scale(self, host, now):
        period = self.params["period"]
        phase = (now % period) / period
        if phase < self.params["day_fraction"]:
            return 1.0
        return self.params["night_factor"]
