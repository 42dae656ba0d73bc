"""Column-native traces: generated and loaded traces are built as
compiled columns, and ``TraceEvent`` objects exist only once something
reads ``Trace.events``."""

import pickle

import pytest
from hypothesis import given, settings

from repro.core.compiled import ColumnBuilder, compile_trace
from repro.core.trace import Trace, TraceEvent
from repro.core.trace_io import load_trace, save_trace
from repro.engine import RunSpec, execute
from repro.testing.strategies import traces
from repro.workload import WorkloadConfig, generate_trace


@pytest.fixture
def constructions(monkeypatch):
    """Count ``TraceEvent`` constructions (a one-element list)."""
    count = [0]
    init = TraceEvent.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceEvent, "__init__", counting_init)
    return count


def _fed(trace: Trace):
    builder = ColumnBuilder(trace.n_hosts, trace.n_mss, trace.sim_time)
    for ev in trace.events:
        builder.feed(ev.time, int(ev.etype), ev.host, ev.msg_id, ev.peer, ev.cell)
    return builder.finish()


@settings(max_examples=60, deadline=None)
@given(traces(max_ops=60))
def test_builder_columns_round_trip_to_events(trace):
    compiled = _fed(trace)
    assert compile_trace(trace) == compiled  # argv and slot included
    lazy = Trace.from_compiled(compiled, dict(trace.meta))
    assert len(lazy) == len(trace)
    assert lazy.compiled() is compiled
    assert lazy.events == trace.events
    assert lazy == trace


def test_len_and_compiled_do_not_materialize_events(constructions):
    trace = generate_trace(WorkloadConfig(sim_time=300.0, seed=2))
    n = len(trace)
    assert n > 0 and trace.compiled().n_events == n
    assert constructions[0] == 0
    events = trace.events
    assert constructions[0] == n
    assert trace.events is events  # cached after the first access


def test_materialized_events_append_recompiles():
    trace = generate_trace(WorkloadConfig(sim_time=200.0, seed=1))
    first = trace.compiled()
    trace.events.append(trace.events[-1])
    assert len(trace) == first.n_events + 1
    with pytest.raises(ValueError):
        trace.compiled()  # the appended duplicate receive cannot match


def test_column_backed_trace_pickles_and_compares():
    trace = generate_trace(WorkloadConfig(sim_time=200.0, seed=5))
    clone = pickle.loads(pickle.dumps(trace))
    assert len(clone) == len(trace)
    assert clone.compiled() == trace.compiled()
    assert clone == trace
    assert Trace(
        trace.n_hosts, trace.n_mss, list(trace.events), trace.sim_time,
        dict(trace.meta),
    ) == trace


def test_v2_load_compiled_equals_compile_of_its_events(tmp_path):
    trace = generate_trace(
        WorkloadConfig(sim_time=400.0, seed=3, t_switch=100.0, p_switch=0.8)
    )
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    loaded = load_trace(path, validate=False, verify=True)
    compiled = loaded.compiled()
    assert compiled == compile_trace(
        Trace(loaded.n_hosts, loaded.n_mss, loaded.events, loaded.sim_time)
    )
    assert compiled == trace.compiled()


def test_cold_fused_execute_builds_no_trace_event(constructions):
    spec = RunSpec(
        protocols=("TP", "BCS", "QBC"),
        workload=WorkloadConfig(sim_time=300.0, seed=4),
        engine="fused",
    )
    result = execute(spec)
    assert result.trace_source == "uncached"
    assert len(result.trace) > 0
    assert constructions[0] == 0
    # The counter does see constructions: reading the events makes them.
    assert len(result.trace.events) == constructions[0]
