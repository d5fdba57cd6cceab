"""Property test: the blocked pair count against the per-point loop."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b4 import tsa
from b4.tsa import PAIR_BLOCK, correlation_integral, embed, radii_grid, svd_reduce


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


# The float32 walk: its error bound, its recount and when it runs.  A
# float32 cast that overflows would warn; these tests fail on it.


@st.composite
def scaled_points(draw):
    """An (M, m) array whose coordinates lie at most 2**60 below a top
    magnitude drawn from the subnormals up to 2**99."""
    top = draw(st.integers(-1074, 99))
    exponents = st.integers(max(top - 60, -1080), top)
    coord = st.builds(math.ldexp, st.floats(-1.0, 1.0), exponents)
    M, m = draw(st.integers(2, 3 * PAIR_BLOCK)), draw(st.integers(1, 4))
    return np.array(draw(st.lists(st.lists(coord, min_size=m, max_size=m), min_size=M, max_size=M)))


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(pts=scaled_points(), gap=st.integers(1, 3))
def test_float32_distances_are_within_the_bound(pts, gap):
    if pts.shape[0] <= gap:
        return
    tol = 2.0**-21 * np.abs(pts).max() + 2.0**-140
    walks = zip(tsa._pair_blocks(pts.astype(np.float32), gap), tsa._pair_blocks(pts, gap))
    for (start32, d32), (start64, d64) in walks:
        assert start32 == start64 and d32.dtype == np.float32
        assert np.array_equal(np.isnan(d32), np.isnan(d64))
        kept = ~np.isnan(d64)
        assert np.all(np.abs(d32[kept].astype(float) - d64[kept]) <= tol)


def walk_dtypes(points, radii, window=0):
    """The dtypes that correlation_integral hands the pair walk."""
    with mock.patch.object(tsa, "_pair_blocks", wraps=tsa._pair_blocks) as walk:
        got = correlation_integral(points, radii, window)
    return got, [call.args[0].dtype for call in walk.call_args_list]


@pytest.mark.filterwarnings("error")
def test_radii_at_float32_ambiguous_distances_are_counted_exactly():
    # 0.1 * k has no float32 form, so no pair distance does either, and
    # radii at a distance and one float64 step either side of it lie far
    # closer together than the float32 error: their pairs are recounted.
    rng = np.random.default_rng(24)
    pts = 0.1 * rng.integers(-30, 31, size=(5 * PAIR_BLOCK + 3, 3))
    exact = np.unique(pair_distances(pts))
    exact = exact[exact > 0]
    radii = np.sort(np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)]))
    for window in (0, 3, PAIR_BLOCK + 1):
        got, dtypes = walk_dtypes(pts, radii, window)
        assert dtypes == [np.float32]
        assert got.tobytes() == reference_correlation_integral(pts, radii, window).tobytes()
        # A block holding a pair at a radius's exact distance has a
        # float32 distance within the band of that radius.
        hits = [np.isin(d, radii).any() for _, d in tsa._pair_blocks(pts, window + 1)]
        assert sum(hits) > len(hits) / 2


@pytest.mark.filterwarnings("error")
def test_the_walk_runs_in_float32_only_where_the_bound_holds():
    t = np.arange(2000)
    coords = svd_reduce(embed(np.sin(2.0 * np.pi * t / 50.0) + 0.1 * np.sin(t), 4, 12).rows, 0.0)[0]
    radii = radii_grid(coords)
    with mock.patch.object(tsa, "_pair_blocks", wraps=tsa._pair_blocks) as walk:
        radii_grid(coords)
    assert walk.call_args.args[0].dtype == np.float64
    assert walk_dtypes(coords, radii)[1] == [np.float32]

    holed = coords.copy()
    holed[7, 1] = math.nan
    assert walk_dtypes(holed, radii)[1] == [np.float64]
    # A common offset of 1e6 puts the float32 error near 0.5, far above
    # 2**-12 of the smallest radius.
    assert walk_dtypes(coords + 1e6, radii)[1] == [np.float64]
    # Radii at and above 2**100: their thresholds would leave float32.
    huge, wide = walk_dtypes(coords * 2.0**110, radii * 2.0**110)
    assert wide == [np.float64]
    assert huge.tobytes() == correlation_integral(coords, radii).tobytes()
