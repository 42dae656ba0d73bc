"""Unit tests for the DES event loop (repro.des.core)."""

import pytest

from repro.des import Environment


def test_clock_starts_at_initial_time():
    env = Environment()
    assert env.now == 0.0
    assert env.event_count == 0


def test_timeout_advances_clock():
    env = Environment()
    env.call_later(3.0, lambda: None)
    env.run()
    assert env.now == 3.0


def test_callback_fires_once_at_its_time():
    env = Environment()
    hits = []
    env.call_later(2.0, lambda: hits.append(env.now))
    env.run()
    env.run()
    assert hits == [2.0]


def test_run_until_stops_clock_exactly_at_until():
    env = Environment()
    fired = []
    env.call_later(10.0, lambda: fired.append(env.now))
    env.run(until=4.0)
    assert env.now == 4.0
    assert fired == []
    # the pending callback is still on the agenda
    env.run()
    assert fired == [10.0]


def test_run_until_fires_callbacks_due_exactly_at_until():
    env = Environment()
    fired = []
    env.call_later(4.0, lambda: fired.append(env.now))
    env.run(until=4.0)
    assert fired == [4.0]


def test_run_until_advances_an_empty_agenda():
    env = Environment()
    env.run(until=7.5)
    assert env.now == 7.5
    env.call_later(1.0, lambda: None)
    env.run()
    assert env.now == 8.5


def test_run_until_in_past_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)
    assert env.now == 5.0


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(-1.0, lambda: None)
    assert env.run() is None
    assert env.event_count == 0


def test_events_fire_in_time_order():
    env = Environment()
    order = []
    for delay in (5.0, 1.0, 3.0):
        env.call_later(delay, lambda d=delay: order.append(d))
    env.run()
    assert order == [1.0, 3.0, 5.0]


def test_same_time_events_fire_in_insertion_order():
    env = Environment()
    order = []
    for tag in "abcd":
        env.call_later(2.0, lambda t=tag: order.append(t))
    env.run()
    assert order == list("abcd")


def test_zero_delay_callback_runs_after_same_time_ones_already_queued():
    env = Environment()
    order = []

    def first():
        order.append("first")
        env.call_later(0.0, lambda: order.append("woken"))

    env.call_later(1.0, first)
    env.call_later(1.0, lambda: order.append("second"))
    env.run()
    assert order == ["first", "second", "woken"]


def test_event_count_tracks_processed_events():
    env = Environment()
    for _ in range(5):
        env.call_later(1.0, lambda: None)
    env.run()
    assert env.event_count == 5


def test_nested_scheduling_from_callback():
    env = Environment()
    times = []

    def first():
        times.append(env.now)
        env.call_later(2.0, second)

    def second():
        times.append(env.now)

    env.call_later(1.0, first)
    env.run()
    assert times == [1.0, 3.0]


def test_exception_in_callback_propagates_out_of_run():
    env = Environment()
    after = []

    def boom():
        raise RuntimeError("inside callback")

    env.call_later(1.0, boom)
    env.call_later(2.0, lambda: after.append(env.now))
    with pytest.raises(RuntimeError, match="inside callback"):
        env.run(until=10.0)
    # the clock stays at the failing callback; later ones are untouched
    assert env.now == 1.0
    assert after == []


def test_close_drops_pending_callbacks_and_keeps_event_count():
    env = Environment()
    fired = []
    for delay in (1.0, 2.0, 3.0):
        env.call_later(delay, lambda d=delay: fired.append(d))
    env.run(until=1.5)
    env.close()
    assert env.event_count == 1
    env.run()
    assert fired == [1.0]
    env.call_later(1.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [1.0, 2.5] and env.event_count == 2
