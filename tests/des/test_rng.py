"""Unit tests for reproducible random streams (repro.des.rng)."""

import numpy as np
import pytest

from repro.des import RandomStreams
from repro.des.rng import check_distinct, seed_sequence


def test_same_seed_same_draws():
    a = RandomStreams(7).stream("x")
    b = RandomStreams(7).stream("x")
    assert np.allclose(a.random(16), b.random(16))


def test_different_names_give_independent_streams():
    rs = RandomStreams(7)
    xs = rs.stream("alpha").random(8)
    ys = rs.stream("beta").random(8)
    assert not np.allclose(xs, ys)


def test_stream_memoised_per_name():
    rs = RandomStreams(1)
    assert rs.stream("s") is rs.stream("s")


def test_new_stream_does_not_perturb_existing_one():
    """Key reproducibility property: consuming a new named stream must not
    change the sequence of an already-created stream."""
    rs1 = RandomStreams(5)
    first = rs1.stream("main").random(4)

    rs2 = RandomStreams(5)
    rs2.stream("extra").random(100)  # a consumer that rs1 never had
    second = rs2.stream("main").random(4)
    assert np.allclose(first, second)


def test_seed_type_checked():
    with pytest.raises(TypeError):
        RandomStreams("not-an-int")  # type: ignore[arg-type]


def test_exponential_mean_validation_and_sign():
    rs = RandomStreams(3)
    with pytest.raises(ValueError):
        rs.exponential("t", mean=0.0)
    draws = [rs.exponential("t", mean=2.0) for _ in range(100)]
    assert all(d > 0 for d in draws)
    assert 1.0 < np.mean(draws) < 3.5  # loose sanity band around mean 2


def test_bernoulli_validation_and_extremes():
    rs = RandomStreams(3)
    with pytest.raises(ValueError):
        rs.bernoulli("b", 1.5)
    assert all(rs.bernoulli("one", 1.0) for _ in range(20))
    assert not any(rs.bernoulli("zero", 0.0) for _ in range(20))


def test_choice_other_never_returns_excluded():
    rs = RandomStreams(11)
    n = 5
    for exclude in range(n):
        draws = {rs.choice_other("c", n, exclude) for _ in range(200)}
        assert exclude not in draws
        assert draws <= set(range(n))
        assert len(draws) == n - 1  # all alternatives reachable


def test_choice_other_validation():
    rs = RandomStreams(11)
    with pytest.raises(ValueError):
        rs.choice_other("c", 1, 0)
    with pytest.raises(ValueError):
        rs.choice_other("c", 4, 9)


def test_choice_other_uniformity():
    rs = RandomStreams(123)
    counts = np.zeros(4)
    for _ in range(4000):
        counts[rs.choice_other("u", 4, 2)] += 1
    assert counts[2] == 0
    rest = counts[[0, 1, 3]]
    assert rest.min() > 0.8 * rest.max()  # roughly uniform


def test_spawn_seeds_deterministic_and_distinct():
    a = RandomStreams(9).spawn_seeds("workers", 8)
    b = RandomStreams(9).spawn_seeds("workers", 8)
    assert a == b
    assert len(set(a)) == 8


def test_seed_sequence_helper():
    seeds = list(seed_sequence(42, 5))
    assert len(seeds) == 5 and len(set(seeds)) == 5


def test_check_distinct_diagnostic():
    rs = RandomStreams(2)
    assert check_distinct(rs, ["a", "b", "c"])


def _direct(seed: int, name: str) -> np.random.Generator:
    """The generator ``RandomStreams(seed).stream(name)`` derives."""
    import zlib

    return np.random.default_rng(
        np.random.SeedSequence(
            entropy=seed, spawn_key=(zlib.crc32(name.encode("utf-8")),)
        )
    )


def test_buffered_draws_equal_direct_generator_calls_across_refills():
    """Every buffered draw kind serves the generator's own batches, in
    order, and refills exactly when a draw finds its batch spent."""
    seed, n = 11, RandomStreams.BATCH + 1
    rs = RandomStreams(seed)

    exp = [rs.exponential("exp", 2.0) for _ in range(n)]
    gen = _direct(seed, "exp")
    want = np.concatenate([gen.exponential(1.0, n - 1), gen.exponential(1.0, n - 1)])
    assert exp == [v * 2.0 for v in want[:n].tolist()]

    uni = [rs.uniform("uni", 1.0, 3.0) for _ in range(n)]
    gen = _direct(seed, "uni")
    want = np.concatenate([gen.random(n - 1), gen.random(n - 1)])
    assert uni == [1.0 + 2.0 * v for v in want[:n].tolist()]

    coin = [rs.bernoulli("coin", 0.3) for _ in range(n)]
    gen = _direct(seed, "coin")
    want = np.concatenate([gen.random(n - 1), gen.random(n - 1)])
    assert coin == [v < 0.3 for v in want[:n].tolist()]

    # Two integer ranges interleaved on one name share its generator:
    # each (name, k) buffer refills on its own (BATCH + 1)-th draw.
    picks = [(rs.choice_index("dst", 3), rs.choice_index("dst", 7)) for _ in range(n)]
    gen = _direct(seed, "dst")
    first3, first7 = gen.integers(0, 3, n - 1), gen.integers(0, 7, n - 1)
    next3, next7 = gen.integers(0, 3, n - 1), gen.integers(0, 7, n - 1)
    want3 = np.concatenate([first3, next3])[:n].tolist()
    want7 = np.concatenate([first7, next7])[:n].tolist()
    assert picks == list(zip(want3, want7))
    assert all(type(k) is int for pair in picks for k in pair)
    assert all(type(v) is float for v in exp + uni)
