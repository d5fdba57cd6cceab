"""Property test: the blocked pair count against the per-point loop."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from b4 import tsa
from b4.tsa import PAIR_BLOCK, correlation_integral, embed, radii_grid


def reference_correlation_integral(points, radii, theiler_window=0):
    """One reference point at a time: bin its later partners by radius."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    radii = np.asarray(radii, dtype=float)
    M = pts.shape[0]
    gap = theiler_window + 1
    counts = np.zeros(radii.size + 1, dtype=np.int64)
    for i in range(M - gap):
        d = np.max(np.abs(pts[i + gap :] - pts[i]), axis=1)
        bins = np.searchsorted(radii, d, side="right")
        counts += np.bincount(bins, minlength=radii.size + 1)
    below = np.cumsum(counts)[: radii.size]
    return below / (M * (M - 1) / 2.0)


def pair_distances(pts):
    pts = pts[:, None] if pts.ndim == 1 else pts
    d = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
    return d[np.triu_indices(pts.shape[0], 1)]


block_edges = [k * PAIR_BLOCK + e for k in (1, 2, 3) for e in (-1, 0, 1)]
sizes = st.one_of(st.integers(2, 3 * PAIR_BLOCK + 5), st.sampled_from(block_edges))
# A coarse grid gives repeated points and tied distances; wide floats
# give distances that round.
quantized = st.integers(-3, 3).map(lambda k: 0.25 * k)
wide = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
# Non-finite coordinates give inf and NaN distances, which no radius counts.
non_finite = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def pair_count_cases(draw):
    M = draw(sizes)
    m = draw(st.integers(1, 6))
    values = st.one_of(quantized, wide) if draw(st.booleans()) else quantized
    if draw(st.integers(0, 3)) == 0:
        values = st.one_of(values, non_finite)
    pool = np.array(draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=1, max_size=M)))
    pts = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=M, max_size=M))]
    if m == 1 and draw(st.booleans()):
        pts = pts.ravel()
    window = draw(st.one_of(st.integers(0, min(3, M - 2)), st.integers(0, M - 2)))

    with np.errstate(invalid="ignore"):
        exact = np.unique(pair_distances(pts))
    exact = exact[(exact > 0) & np.isfinite(exact)]
    radii = draw(st.lists(st.floats(1e-3, 3e6), min_size=1, max_size=8))
    if exact.size:
        radii += draw(st.lists(st.sampled_from(exact.tolist()), min_size=1, max_size=8))
    # PAIR_BLOCK sets memory and speed only: one point per block, a size
    # off the block edges, and one block for all.
    block = draw(st.sampled_from([PAIR_BLOCK, 1, 7, M + 1]))
    return pts, np.sort(radii), window, block


@settings(max_examples=400, deadline=None)
@given(case=pair_count_cases())
def test_pair_count_is_bit_equal_to_the_per_point_loop(case):
    pts, radii, window, block = case
    with np.errstate(invalid="ignore"), mock.patch.object(tsa, "PAIR_BLOCK", block):
        got = correlation_integral(pts, radii, window)
        want = reference_correlation_integral(pts, radii, window)
    assert got.tobytes() == want.tobytes()


def test_pair_count_on_a_sine_at_an_integer_period():
    t = np.arange(3 * PAIR_BLOCK * 20 + 7)
    pts = embed(np.sin(2.0 * np.pi * t / 20.0), 3, 5).rows
    radii = np.sort(np.concatenate([radii_grid(pts), pair_distances(pts)[::97]]))
    radii = radii[radii > 0]
    for window in (0, 1, 10, PAIR_BLOCK + 3):
        got = correlation_integral(pts, radii, window)
        want = reference_correlation_integral(pts, radii, window)
        assert got.tobytes() == want.tobytes()
