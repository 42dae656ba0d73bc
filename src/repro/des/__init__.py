"""Discrete-event simulation engine.

A lean, deterministic kernel with two names:

* :class:`~repro.des.core.Environment` -- the simulation clock and a
  flat heap agenda of ``(time, seq, callback)`` tuples, driven by
  ``call_later(delay, fn)`` and ``run(until)``; ``close()`` drops the
  pending agenda once a run is over.
* :class:`~repro.des.rng.RandomStreams` -- reproducible named random
  substreams built on :class:`numpy.random.SeedSequence`.

Determinism contract: callbacks scheduled for the same simulation time
fire in insertion order, so a seeded simulation replays identically
across runs and platforms.
"""

from repro.des.core import Environment
from repro.des.rng import RandomStreams

__all__ = ["Environment", "RandomStreams"]
