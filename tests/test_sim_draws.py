"""The simulator's latency sampler against `random.Random.randint`.

The sampler must make the same draws as `randint(lo, hi)` on the running
interpreter: same values, and the generator left in the same state, however
its calls are interleaved with the `random()` drop draws. Simulator traces
depend on it draw for draw.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from testingplus.sim import latency_sampler


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    lo=st.integers(1, 10**6),
    span=st.integers(1, 1000),
    steps=st.lists(st.booleans(), min_size=1, max_size=80),
)
@example(seed=0, lo=2, span=1, steps=[True] * 20)  # span 1 still consumes bits
@example(seed=1, lo=1, span=2, steps=[True, False] * 20)
@example(seed=2, lo=1, span=512, steps=[True] * 40)  # power of two: rejections
@example(seed=3, lo=7, span=1000, steps=[True, False, False] * 10)
def test_latency_sampler_draws_like_randint(seed, lo, span, steps):
    hi = lo + span - 1
    ours, reference = random.Random(seed), random.Random(seed)
    draw = latency_sampler(ours, lo, hi)
    for latency_step in steps:
        if latency_step:
            assert draw() == reference.randint(lo, hi)
        else:
            assert ours.random() == reference.random()
    assert ours.getstate() == reference.getstate()


def test_span_one_advances_the_generator():
    rng, reference = random.Random(5), random.Random(5)
    draw = latency_sampler(rng, 2, 2)
    assert [draw() for _ in range(10)] == [2] * 10
    assert rng.getstate() != random.Random(5).getstate()
    for _ in range(10):
        reference.randint(2, 2)
    assert rng.getstate() == reference.getstate()


def test_empty_range_is_refused():
    with pytest.raises(ValueError, match="empty latency range"):
        latency_sampler(random.Random(0), 3, 2)
