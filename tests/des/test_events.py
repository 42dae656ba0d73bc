"""Event-level guarantees that survive on the flat agenda.

The kernel has no event objects; a scheduled callback is the only kind
of event.  These tests pin what a timeout and a failed event used to
guarantee, expressed through ``call_later``.
"""

import pytest

from repro.des import Environment


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(-0.5, lambda: None)
    assert env.event_count == 0
    env.run()
    assert env.now == 0.0


def test_undefused_failure_propagates_out_of_run():
    env = Environment()

    def fail():
        raise RuntimeError("unhandled")

    env.call_later(0.0, fail)
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()
