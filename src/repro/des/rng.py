"""Reproducible named random substreams.

Every stochastic component of the simulator (per-host internal-event
timers, mobility, message destinations, ...) draws from its own
:class:`numpy.random.Generator`, derived from one root seed via
``SeedSequence.spawn``-style keyed derivation.  Two properties follow:

* a run is fully determined by ``(seed, configuration)``;
* adding a new consumer stream does not perturb existing streams
  (unlike sharing one generator), which keeps paper-figure sweeps
  comparable across library versions.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Callable, Iterator, Sequence

import numpy as np


def _key_to_int(key: str) -> int:
    """Stable 32-bit hash of a stream name (crc32; Python's ``hash`` is
    salted per-process and would break reproducibility)."""
    return zlib.crc32(key.encode("utf-8"))


class RandomStreams:
    """A family of named, independent random generators.

    Parameters
    ----------
    seed:
        Root seed for the whole family.

    Examples
    --------
    >>> rs = RandomStreams(42)
    >>> a = rs.stream("mobility/h0")
    >>> b = rs.stream("mobility/h1")
    >>> a is rs.stream("mobility/h0")   # cached per name
    True
    >>> float(a.exponential(1.0)) != float(b.exponential(1.0))
    True
    """

    #: Draws buffered per stream; per-call numpy overhead dominates the
    #: simulator's RNG cost otherwise (profiling, see DESIGN.md).
    BATCH = 512

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {seed!r}")
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        #: Bound ``__next__`` of each buffered draw source, per stream
        #: name (per ``(name, k)`` for integer draws).
        self._exp_next: dict[str, Callable[[], float]] = {}
        self._unit_next: dict[str, Callable[[], float]] = {}
        self._int_next: dict[tuple[str, int], Callable[[], int]] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (and memoise) the generator for *name*."""
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_key_to_int(name),)
            )
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen

    # -- convenience draws -------------------------------------------------
    # Draws are buffered (BATCH at a time) per stream name; the value
    # sequence per name is still fully determined by (seed, name, call
    # order), so runs stay reproducible.  A buffer refills from its
    # generator only when a draw finds it empty, so draw kinds sharing
    # one generator interleave their refills in call order.

    def _source(self, draw: Callable[[int], np.ndarray], code: str) -> Callable:
        """Bound ``__next__`` over ``draw(BATCH)`` batches as python
        scalars, drawing the next batch when one runs out.

        A batch is held as an ``array.array`` of *code* (``"d"`` for
        float64, ``"q"`` for int64 draws): the same 8 bytes per draw as
        the numpy batch, with python scalars made on the way out.
        """
        # Read once: a generator frame that referenced ``self`` would
        # put every RandomStreams in a reference cycle.
        size = self.BATCH

        def batches():
            while True:
                yield from array(code, draw(size).tobytes())

        return batches().__next__

    def _exp_source(self, name: str) -> Callable[[], float]:
        gen = self.stream(name)
        nxt = self._exp_next[name] = self._source(
            lambda size: gen.exponential(1.0, size), "d"
        )
        return nxt

    def _unit_source(self, name: str) -> Callable[[], float]:
        nxt = self._unit_next[name] = self._source(
            self.stream(name).random, "d"
        )
        return nxt

    def exponential(self, name: str, mean: float) -> float:
        """One draw from Exp(mean) on stream *name*."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        nxt = self._exp_next.get(name) or self._exp_source(name)
        return nxt() * mean

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """One draw from U[low, high) on stream *name*."""
        nxt = self._unit_next.get(name) or self._unit_source(name)
        return low + (high - low) * nxt()

    def bernoulli(self, name: str, p: float) -> bool:
        """One biased coin flip with success probability *p*."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        nxt = self._unit_next.get(name) or self._unit_source(name)
        return nxt() < p

    def choice_other(self, name: str, n: int, exclude: int) -> int:
        """Uniform draw from ``{0..n-1} - {exclude}``.

        Used for "destination of each message is a uniformly distributed
        random variable" over the *other* hosts, and for cell switches to
        a *different* cell.
        """
        if n < 2:
            raise ValueError(f"need at least 2 alternatives, got n={n}")
        if not 0 <= exclude < n:
            raise ValueError(f"exclude={exclude} out of range for n={n}")
        k = self.choice_index(name, n - 1)
        return k if k < exclude else k + 1

    def choice_index(self, name: str, k: int) -> int:
        """Uniform draw from ``{0..k-1}`` on stream *name*."""
        if k < 1:
            raise ValueError(f"need at least 1 alternative, got k={k}")
        key = (name, k)
        nxt = self._int_next.get(key)
        if nxt is None:
            gen = self.stream(name)
            nxt = self._int_next[key] = self._source(
                lambda size: gen.integers(0, k, size, dtype=np.int64), "q"
            )
        return nxt()

    def spawn_seeds(self, name: str, count: int) -> list[int]:
        """Derive *count* child seeds (for multi-run sweeps / workers)."""
        gen = self.stream(f"__spawn__/{name}")
        return [int(s) for s in gen.integers(0, 2**63 - 1, size=count)]


def seed_sequence(root_seed: int, count: int) -> Iterator[int]:
    """Yield *count* independent run seeds derived from *root_seed*."""
    yield from RandomStreams(root_seed).spawn_seeds("runs", count)


def check_distinct(streams: RandomStreams, names: Sequence[str]) -> bool:
    """Diagnostic: True when the named streams have distinct states."""
    states = set()
    for name in names:
        gen = streams.stream(name)
        states.add(bytes(str(gen.bit_generator.state), "utf-8"))
    return len(states) == len(names)
