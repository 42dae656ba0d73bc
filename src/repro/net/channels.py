"""Channel model: fixed-latency legs with usage accounting.

The paper charges 0.01 time units per traversed leg (wireless up,
MSS-MSS wired, wireless down) and motivates protocol design with
*channel contention* and *energy consumption* (Section 2.1, points b/e).
:class:`Channel` therefore counts messages and piggyback volume per leg
so the experiment harness can report contention/energy proxies alongside
checkpoint counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.des.core import Environment
from repro.net.message import Message, MessageKind


@dataclass
class ChannelStats:
    """Cumulative usage counters for one channel."""

    messages: int = 0
    control_messages: int = 0
    piggyback_ints: int = 0
    busy_time: float = 0.0

    def merge(self, other: "ChannelStats") -> "ChannelStats":
        """Return the element-wise sum of two stat records."""
        return ChannelStats(
            messages=self.messages + other.messages,
            control_messages=self.control_messages + other.control_messages,
            piggyback_ints=self.piggyback_ints + other.piggyback_ints,
            busy_time=self.busy_time + other.busy_time,
        )


class Channel:
    """A unidirectional fixed-latency transmission leg.

    Parameters
    ----------
    env:
        Simulation environment.
    latency:
        Per-message traversal time (paper: 0.01).
    name:
        Diagnostic label, e.g. ``"wireless/cell3"`` or ``"wired/1->4"``.

    Notes
    -----
    The paper models channels as delay-only (no queueing); capacity
    contention shows up through the *counters*, which the analysis layer
    converts into contention/energy proxies.  ``transmit`` hence only
    schedules the delivery callback ``latency`` in the future.
    """

    __slots__ = ("env", "latency", "name", "stats")

    def __init__(self, env: Environment, latency: float, name: str = "channel"):
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.env = env
        self.latency = latency
        self.name = name
        self.stats = ChannelStats()

    def transmit(
        self,
        message: Message,
        deliver: Callable[[Message], None],
        extra_delay: float = 0.0,
    ) -> None:
        """Send *message* through the channel; call ``deliver(message)``
        after the channel latency (plus *extra_delay*)."""
        stats = self.stats
        stats.messages += 1
        if message.kind is not MessageKind.APPLICATION:
            stats.control_messages += 1
        stats.piggyback_ints += message.piggyback_ints
        stats.busy_time += self.latency
        message.hops += 1
        self.env.call_later(self.latency + extra_delay, partial(deliver, message))


def total_stats(channels: list[Channel]) -> ChannelStats:
    """Aggregate the stats of several channels."""
    agg = ChannelStats()
    for ch in channels:
        agg = agg.merge(ch.stats)
    return agg
