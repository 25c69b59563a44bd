"""The block-stored latency window against the deque and sorted list it replaced.

``LatencyRecorder`` keeps its window as doubles in fixed float blocks
and ``window_percentile`` selects the two order statistics it needs
with ``heapq``; both must agree bit for bit with a ``deque(maxlen=
window)`` fed the same stream and with interpolation over ``sorted()``
of every retained sample, for one recorder and for the merge that
``LoadGenerator.latency_percentile`` takes over its clients.
"""

import math
import random
import struct
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clients import LoadGenerator, static_profile
from repro.metrics import LatencyRecorder
from repro.sim import Simulator

WINDOWS = (1, 5, 512, 513, 1030)
PS = (0.0, 0.01, 0.5, 0.99, 1.0)

percentiles = st.one_of(st.sampled_from(PS), st.floats(min_value=0.0, max_value=1.0))


def sorted_reference(samples, p):
    """Interpolated percentile over a full sorted copy (the old code)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def bits(value):
    return struct.pack("<d", value)


def stream(seed, length):
    """Latency-like values, rounded so that ties are common."""
    rng = random.Random(seed)
    return [round(rng.expovariate(1e3), rng.choice((3, 5, 12))) for _ in range(length)]


def fed(window, values):
    recorder, kept = LatencyRecorder(window), deque(maxlen=window)
    for value in values:
        recorder.record(value)
        kept.append(value)
    return recorder, kept


def generator_over(recorders):
    clients = [SimpleNamespace(latencies=recorder) for recorder in recorders]
    return LoadGenerator(Simulator(), clients, static_profile(1.0, 1.0), random.Random(0))


@settings(max_examples=150, deadline=None)
@given(
    window=st.sampled_from(WINDOWS),
    length=st.integers(min_value=0, max_value=2600),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=percentiles,
)
def test_window_and_percentile_match_deque_and_sorted_list(window, length, seed, p):
    recorder, kept = fed(window, stream(seed, length))
    assert list(recorder.samples) == list(kept)
    assert bits(recorder.percentile(p)) == bits(sorted_reference(list(kept), p))
    assert recorder.count == length


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("extra", (-1, 0, 1, 3))
def test_wrap_boundaries(window, extra):
    length = max(0, 2 * window + extra)
    recorder, kept = fed(window, stream(window, length))
    assert list(recorder.samples) == list(kept)
    for p in PS:
        assert bits(recorder.percentile(p)) == bits(sorted_reference(list(kept), p))


@pytest.mark.parametrize("p", PS)
def test_empty_and_single_sample(p):
    assert LatencyRecorder().percentile(p) == 0.0
    assert list(LatencyRecorder().samples) == []
    recorder, _ = fed(5, [2.5e-3])
    assert recorder.percentile(p) == 2.5e-3
    assert generator_over([LatencyRecorder(), LatencyRecorder(1)]).latency_percentile(p) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(
            st.sampled_from(WINDOWS),
            st.integers(min_value=0, max_value=1200),
            st.integers(min_value=0, max_value=2**32 - 1),
        ),
        min_size=1,
        max_size=4,
    ),
    p=percentiles,
)
def test_load_generator_merges_every_client_window(shapes, p):
    recorders, merged = [], []
    for window, length, seed in shapes:
        recorder, kept = fed(window, stream(seed, length))
        recorders.append(recorder)
        merged.extend(kept)
    got = generator_over(recorders).latency_percentile(p)
    assert bits(got) == bits(sorted_reference(merged, p))


@pytest.mark.parametrize("p", (-0.5, -1e-12, 1.0 + 1e-12, 1.5, math.nan))
def test_percentile_outside_unit_interval_raises(p):
    """It used to index from the top end (p < 0) or raise IndexError."""
    empty = LatencyRecorder()
    recorder, _ = fed(16, [1e-3, 2e-3, 3e-3, 4e-3])
    for target in (empty, recorder):
        with pytest.raises(ValueError):
            target.percentile(p)
    with pytest.raises(ValueError):
        generator_over([recorder]).latency_percentile(p)
