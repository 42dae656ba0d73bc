"""FIFO message store semantics, now carried by ``MobileHost.inbox``.

The kernel no longer ships a ``Store``; its one user, the host inbox, is
a ``collections.deque`` with a single blocked-receive callback.  These
tests pin the store guarantees the simulation relies on.
"""

from repro.des import Environment
from repro.net.host import MobileHost
from repro.net.message import Message


def test_store_fifo_order():
    env = Environment()
    h = MobileHost(env, 0, 0)
    h.deliver(Message(src=1, dst=0))
    h.deliver(Message(src=2, dst=0))
    got = []
    h.wait_receive(lambda m: got.append(m.src))
    env.run()
    h.wait_receive(lambda m: got.append(m.src))
    env.run()
    assert got == [1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    h = MobileHost(env, 0, 0)
    got = []
    h.wait_receive(lambda m: got.append((env.now, m.src)))
    env.run()
    assert got == []
    env.call_later(3.0, lambda: h.deliver(Message(src=7, dst=0)))
    env.run()
    assert got == [(3.0, 7)]
    assert env.now == 3.0


def test_store_try_get_nonblocking():
    env = Environment()
    h = MobileHost(env, 0, 0)
    assert h.try_receive() is None
    h.deliver(Message(src=1, dst=0))
    assert h.try_receive().src == 1
    assert len(h.inbox) == 0
