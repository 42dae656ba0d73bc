"""Simulation clock and event loop.

The :class:`Environment` owns a binary-heap agenda of pending callbacks.
Each agenda entry is a bare ``(time, seq, fn)`` tuple; ``seq`` is a
monotonically increasing tie-breaker, so same-time callbacks fire in
insertion order.  That total order is what makes seeded runs
bit-reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class Environment:
    """A discrete-event simulation environment.

    Examples
    --------
    >>> env = Environment()
    >>> fired = []
    >>> env.call_later(5.0, lambda: fired.append(env.now))
    >>> env.run()
    >>> fired
    [5.0]
    """

    __slots__ = ("now", "_queue", "_seq")

    def __init__(self):
        #: Current simulation time.
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[[], Any]]] = []
        #: Callbacks scheduled so far; also the tie-breaking sequence.
        self._seq: int = 0

    @property
    def event_count(self) -> int:
        """Number of callbacks fired so far (diagnostic / benchmark aid)."""
        return self._seq - len(self._queue)

    def call_later(self, delay: float, fn: Callable[[], Any]) -> None:
        """Invoke ``fn()`` after *delay* time units."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn))

    def run(self, until: Optional[float] = None) -> None:
        """Run until the agenda empties or the clock passes *until*.

        When *until* is given the clock is advanced exactly to *until*,
        so ``env.now == until`` afterwards; callbacks due later stay on
        the agenda.  An exception raised by a callback propagates out.
        """
        limit = float("inf") if until is None else float(until)
        if limit < self.now:
            raise ValueError(f"until={limit} is in the past (now={self.now})")
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= limit:
            self.now, _, fn = pop(queue)
            fn()
        if until is not None:
            self.now = limit

    def close(self) -> None:
        """Drop every pending callback; ``event_count`` is unchanged.

        Pending callbacks usually reference the objects that scheduled
        them, which reference this environment: dropping them when a
        run is over lets reference counting free the finished
        simulation at once, instead of leaving it to the cyclic
        garbage collector.
        """
        self._seq -= len(self._queue)
        self._queue.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Environment now={self.now} pending={len(self._queue)} "
            f"processed={self.event_count}>"
        )
