"""Mobile-host runtime state.

A :class:`MobileHost` is a passive record manipulated by
:class:`~repro.net.system.MobileSystem`: it tracks the host's current
cell, connection state, and the FIFO inbox of application messages
awaiting an explicit *receive operation* (paper Section 5.1: on each
communication step the host performs a send with probability ``P_s``,
otherwise a receive).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.des.core import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message


class HostState(enum.Enum):
    """Connection state of a mobile host."""

    ACTIVE = "active"
    DISCONNECTED = "disconnected"


class MobileHost:
    """State of one mobile host.

    Parameters
    ----------
    env:
        Simulation environment.
    host_id:
        Index in ``range(n_hosts)``.
    mss_id:
        Identifier of the MSS whose cell the host starts in.
    """

    __slots__ = (
        "env",
        "host_id",
        "mss_id",
        "_state",
        "is_connected",
        "inbox",
        "_waiter",
        "sent_count",
        "received_count",
        "handoff_count",
        "disconnect_count",
        "wireless_sends",
    )

    def __init__(self, env: Environment, host_id: int, mss_id: int):
        self.env = env
        self.host_id = host_id
        self.mss_id = mss_id
        #: True while the host is reachable in some cell; kept in sync
        #: by the :attr:`state` setter (a plain slot: the workload
        #: reads it on every application step).
        self.is_connected = True
        self.state = HostState.ACTIVE
        #: Application messages delivered over the air, awaiting an
        #: explicit receive operation (oldest first).
        self.inbox: deque["Message"] = deque()
        #: Callback of a blocked receive waiting on an empty inbox.
        self._waiter: Optional[Callable[["Message"], None]] = None
        self.sent_count = 0
        self.received_count = 0
        self.handoff_count = 0
        self.disconnect_count = 0
        #: Wireless transmissions originated by this host (energy proxy).
        self.wireless_sends = 0

    @property
    def state(self) -> HostState:
        """Connection state; setting it updates :attr:`is_connected`."""
        return self._state

    @state.setter
    def state(self, state: HostState) -> None:
        self._state = state
        self.is_connected = state is HostState.ACTIVE

    def try_receive(self) -> Optional["Message"]:
        """Consume the oldest inbox message, or ``None`` if empty.

        This is the non-blocking receive operation used by the paper
        workload (see DESIGN.md "Model decisions").
        """
        if not self.inbox:
            return None
        self.received_count += 1
        return self.inbox.popleft()

    def wait_receive(self, callback: Callable[["Message"], None]) -> None:
        """Blocking receive: ``callback(msg)`` fires with the next message.

        Offered for the ``block_on_empty_receive`` workload variant.  The
        message leaves the inbox at once (or on its delivery, if the
        inbox is empty); the callback runs from a zero-delay agenda entry
        scheduled at that moment.
        """
        if self._waiter is not None:
            raise RuntimeError(f"host {self.host_id} is already blocked")
        if self.inbox:
            self._wake(callback, self.inbox.popleft())
        else:
            self._waiter = callback

    def deliver(self, msg: "Message") -> None:
        """Hand *msg* to a blocked receive, or queue it in the inbox."""
        waiter = self._waiter
        if waiter is None:
            self.inbox.append(msg)
        else:
            self._waiter = None
            self._wake(waiter, msg)

    def _wake(self, callback: Callable[["Message"], None], msg: "Message") -> None:
        def fire() -> None:
            self.received_count += 1
            callback(msg)

        self.env.call_later(0.0, fire)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MobileHost h{self.host_id} cell={self.mss_id} "
            f"{self.state.value} inbox={len(self.inbox)}>"
        )
