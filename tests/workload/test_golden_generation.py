"""Golden pins on generated trace *content*.

Each case simulates one short run and pins the SHA-256 digest of its
event list plus the event count.  A change to the event kernel, the
inbox or any random-draw order moves a digest, so these pins hold the
simulator bit-identical across refactors of the DES machinery.  The
online case also pins the protocol's checkpoint total and the bytes
reclaimed by stable-storage GC; the failure case pins the counters of
a crash-and-rollback run, whose recovery empties every inbox.
"""

import hashlib

import pytest

from repro.core.failures import run_with_failures
from repro.core.online import run_online
from repro.experiments.figures import FIGURE_PARAMS
from repro.protocols import QBCProtocol
from repro.workload import WorkloadConfig
from repro.workload.driver import generate_trace


def _figure6(**overrides) -> WorkloadConfig:
    p_switch, heterogeneity = FIGURE_PARAMS[6]
    base = dict(
        p_send=0.4,
        p_switch=p_switch,
        heterogeneity=heterogeneity,
        t_switch=100.0,
        sim_time=2000.0,
        seed=0,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


def trace_digest(trace) -> str:
    """SHA-256 over every event field, times as exact float hex."""
    h = hashlib.sha256()
    for ev in trace.events:
        h.update(
            f"{ev.time.hex()},{int(ev.etype)},{ev.host},{ev.msg_id},"
            f"{ev.peer},{ev.cell}\n".encode("ascii")
        )
    return h.hexdigest()


#: case -> (config, digest, event count)
GOLDEN = {
    "fig6-corner": (
        _figure6(),
        "64c5b2a095aedba532acc8b897478444"
        "2d14e887dca8c98d9b95c0e29847911c",
        4835,
    ),
    "blocking-receive": (
        _figure6(block_on_empty_receive=True, p_send=0.6, seed=1),
        "a358e0703bbe1c9c5d65ee402dece9b5"
        "aca824339a4307a4afc069405d40a415",
        5748,
    ),
    "all-destinations": (
        _figure6(send_to_connected_only=False, seed=2),
        "b36d4c823c729a438757f2a46d9f6b49"
        "60cc64898d8a88908d710931c86ef942",
        3838,
    ),
    "duplicates": (
        _figure6(duplicate_prob=0.2, seed=3),
        "c37fc057f36183dea88ef65aa1a25617"
        "a973bacd73293b2a064c0b5e07ea175f",
        4192,
    ),
    "bursty": (
        _figure6(workload="bursty", seed=4),
        "1967ca56f6849cc01b46e0078919171d"
        "87e4017b6c480da121a8891474c0eebb",
        6157,
    ),
}

#: Online QBC with checkpoint latency and stable-storage GC.
ONLINE_CONFIG = _figure6(t_switch=1000.0, seed=1)
ONLINE_GOLDEN = {
    "digest": "0aebd17f107f127e8369634c5d1bf49f"
    "e4ae4d8ecf0761ae02f05904c163466b",
    "events": 12518,
    "n_total": 324,
    "gc_bytes_reclaimed": 67108864,
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_generated_trace_pinned(case):
    config, digest, n_events = GOLDEN[case]
    trace = generate_trace(config)
    assert (trace_digest(trace), len(trace.events)) == (digest, n_events)


def test_online_qbc_latency_gc_pinned():
    result = run_online(
        ONLINE_CONFIG,
        QBCProtocol(ONLINE_CONFIG.n_hosts, ONLINE_CONFIG.n_mss),
        ckpt_latency=0.05,
        gc_interval=200.0,
    )
    got = {
        "digest": trace_digest(result.trace),
        "events": len(result.trace.events),
        "n_total": result.metrics.stats.n_total,
        "gc_bytes_reclaimed": result.gc_bytes_reclaimed,
    }
    assert got == ONLINE_GOLDEN


#: Blocking receive under crash injection: rollback clears every inbox
#: while some hosts wait on an empty one.
FAILURE_CONFIG = _figure6(block_on_empty_receive=True, p_send=0.6, seed=5)
FAILURE_GOLDEN = {
    "failures": 5,
    "stale_messages_dropped": 365,
    "n_sends": 1250,
    "n_receives": 885,
    "n_total": 109,
}


def test_failure_run_pinned():
    result = run_with_failures(
        FAILURE_CONFIG,
        QBCProtocol(FAILURE_CONFIG.n_hosts, FAILURE_CONFIG.n_mss),
        failure_mean_interval=100.0,
    )
    got = {
        "failures": result.n_failures,
        "stale_messages_dropped": result.stale_messages_dropped,
        "n_sends": result.n_sends,
        "n_receives": result.n_receives,
        "n_total": result.protocol.n_total,
    }
    assert got == FAILURE_GOLDEN
