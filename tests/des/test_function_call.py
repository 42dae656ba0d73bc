"""Tests for ``call_later``, the kernel's only way to schedule work."""

import pytest

from repro.des import Environment


def test_function_call_ordering_with_timeouts():
    env = Environment()
    order = []
    env.call_later(1.0, lambda: order.append("first"))
    env.call_later(1.0, lambda: order.append("second"))
    env.call_later(0.5, lambda: order.append("earlier"))
    env.run()
    assert order == ["earlier", "first", "second"]  # insertion order at equal times


def test_nested_function_calls():
    env = Environment()
    times = []

    def outer():
        times.append(env.now)
        env.call_later(1.0, lambda: times.append(env.now))

    env.call_later(1.0, outer)
    env.run()
    assert times == [1.0, 2.0]


def test_exception_in_function_call_propagates():
    env = Environment()

    def boom():
        raise RuntimeError("inside callback")

    env.call_later(1.0, boom)
    with pytest.raises(RuntimeError, match="inside callback"):
        env.run()
    assert env.now == 1.0
