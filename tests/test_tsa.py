import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b4 import tsa
from b4.tsa import (
    DimensionReport,
    EmbeddingMatrix,
    albano_dimension,
    autocorrelation,
    correlation_dimension,
    correlation_integral,
    embed,
    largest_lyapunov,
    radii_grid,
    select_delay,
    svd_reduce,
)


def sine_series(n, period=100.0, phase=0.0):
    return np.sin(2 * np.pi * np.arange(n) / period + phase)


def logistic_series(n, x0=0.2, skip=100):
    x = x0
    out = np.empty(n + skip)
    for i in range(n + skip):
        out[i] = x
        x = 4.0 * x * (1.0 - x)
    return out[skip:]


def test_autocorrelation_basics():
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(20000)
    acf = autocorrelation(noise, 100)
    assert acf[0] == 1.0
    assert np.max(np.abs(acf[1:])) < 3.0 / math.sqrt(noise.size)

    x = sine_series(10000)
    acf = autocorrelation(x, 300)
    lags = np.arange(301)
    assert np.max(np.abs(acf - np.cos(2 * np.pi * lags / 100.0))) < 0.02

    with pytest.raises(ValueError):
        autocorrelation(np.full(100, 2.5), 10)
    with pytest.raises(ValueError):
        autocorrelation(np.arange(10.0), 10)


def test_select_delay_sine_integer_crossing():
    # period 100: the 1/e crossing sits between lags 19 and 20, so the
    # integer rule must return 20; the sample count keeps the per-lag
    # estimate close enough to the analytic cosine that lag 19 stays
    # above the threshold.
    n = 200019
    acf = autocorrelation(sine_series(n), 30)
    assert acf[19] > 1.0 / math.e
    assert acf[20] <= 1.0 / math.e
    assert select_delay(acf) == 20


def test_select_delay_edges():
    assert select_delay(np.array([1.0, 0.2, 0.9])) == 1
    assert select_delay(np.cos(2 * np.pi * np.arange(40) / 100.0)) == 20
    with pytest.raises(ValueError):
        select_delay(np.array([1.0, 0.95, 0.9, 0.85]))
    with pytest.raises(ValueError):
        select_delay(np.array([0.5, 0.2]))


def test_embed_examples():
    e = embed(np.array([1.0, 2, 3, 4, 5, 6]), 3, 1, 1)
    assert isinstance(e, EmbeddingMatrix)
    assert (e.m, e.tau, e.l) == (3, 1, 1)
    assert np.array_equal(e.rows, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]])

    raw = embed(np.arange(5.0), 1, 1, 1)
    assert np.array_equal(raw.rows, np.arange(5.0)[:, None])

    strided = embed(np.arange(1.0, 11.0), 2, 3, 2)
    assert np.array_equal(strided.rows, [[1, 4], [3, 6], [5, 8], [7, 10]])

    with pytest.raises(ValueError):
        embed(np.arange(5.0), 4, 2, 1)
    with pytest.raises(ValueError):
        embed(np.arange(5.0), 2, 0, 1)


def test_embed_exact_indexing():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(500)
    for m, tau, l in [(1, 1, 1), (4, 7, 3), (6, 2, 5), (3, 11, 1)]:
        e = embed(x, m, tau, l)
        s = (x.size - 1 - (m - 1) * tau) // l + 1
        assert e.rows.shape == (s, m)
        for i in (0, s // 2, s - 1):
            for j in range(m):
                assert e.rows[i, j] == x[i * l + j * tau]


def test_svd_reduce_rank_one():
    rng = np.random.default_rng(4)
    direction = rng.standard_normal(6)
    rows = np.outer(rng.uniform(1, 2, 300), direction)
    coords, kept, sigma = svd_reduce(rows, 1e-2)
    assert kept == 1
    assert coords.shape == (300, 1)
    assert np.all(np.diff(sigma) <= 1e-9)


def test_svd_reduce_sine_plane():
    e = embed(sine_series(3000, period=50.0), 10, 5, 1)
    coords, kept, sigma = svd_reduce(e.rows, 1e-2)
    assert kept == 2
    # threshold zero keeps the numerical rank, still two for a sinusoid
    _, kept0, _ = svd_reduce(e.rows, 0.0)
    assert kept0 == 2


def test_svd_reduce_matches_direct_svd():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((80, 7)) @ np.diag([10, 6, 3, 1, 0.5, 0.1, 0.02])
    coords, kept, sigma = svd_reduce(rows, 0.0)
    centered = rows - rows.mean(axis=0)
    oracle = np.linalg.svd(centered, compute_uv=False)
    assert kept == 7
    assert np.allclose(sigma, oracle, rtol=1e-8)
    # rotation preserves the full variance and decorrelates components
    assert np.linalg.norm(coords) == pytest.approx(np.linalg.norm(centered), rel=1e-8)
    gram = coords.T @ coords
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-8 * gram[0, 0]
    assert np.allclose(np.sqrt(np.diag(gram)), oracle, rtol=1e-8)


def test_svd_reduce_degenerate():
    with pytest.raises(ValueError):
        svd_reduce(np.ones((50, 4)), 1e-2)


def brute_correlation(points, radii, theiler):
    pts = np.asarray(points, dtype=float)
    M = len(pts)
    out = []
    for r in radii:
        hits = 0
        for i in range(M):
            for j in range(i + 1, M):
                if j - i > theiler and np.max(np.abs(pts[i] - pts[j])) < r:
                    hits += 1
        out.append(hits / (M * (M - 1) / 2))
    return np.array(out)


def test_correlation_integral_tiny_cases():
    twin = np.zeros((2, 3))
    assert np.array_equal(correlation_integral(twin, [0.5, 1.0, 9.0], 0), [1, 1, 1])

    pair = np.array([[0.0, 0.0], [1.0, 0.3]])
    got = correlation_integral(pair, [0.5, 1.0, 2.0], 0)
    assert np.array_equal(got, [0.0, 0.0, 1.0])


def test_correlation_integral_brute_force_oracle():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 1, (9, 2))
    radii = np.sort(rng.uniform(0.05, 1.5, 7))
    for theiler in (0, 1, 3):
        got = correlation_integral(pts, radii, theiler)
        assert np.array_equal(got, brute_correlation(pts, radii, theiler))
        assert np.all(np.diff(got) >= 0)
        assert np.all((got >= 0) & (got <= 1))

    duplicated = np.vstack([pts, pts])
    got = correlation_integral(duplicated, radii, 0)
    assert np.array_equal(got, brute_correlation(duplicated, radii, 0))


def test_correlation_integral_guards():
    pts = np.zeros((5, 2))
    with pytest.raises(ValueError):
        correlation_integral(pts, [-1.0, 1.0], 0)
    with pytest.raises(ValueError):
        correlation_integral(pts, [2.0, 1.0], 0)
    with pytest.raises(ValueError):
        correlation_integral(pts, [1.0], 4)
    for radii in ([np.nan], [np.nan, 0.5], [0.5, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            correlation_integral(pts, radii, 0)


def circle_points(n, seed=7):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def test_correlation_dimension_exact_power_law():
    r = np.geomspace(0.1, 10.0, 20)
    fit = correlation_dimension(r, r**2)
    assert fit.d == pytest.approx(2.0, abs=1e-10)
    assert fit.fit_r2 == pytest.approx(1.0, abs=1e-12)
    assert not fit.low_confidence
    assert fit.scaling_region[0] < fit.scaling_region[1]


def test_correlation_dimension_scale_invariance():
    pts = circle_points(1500)
    radii = np.geomspace(0.02, 0.5, 40)
    C = correlation_integral(pts, radii, 0)
    d1 = correlation_dimension(radii, C).d
    d2 = correlation_dimension(radii * 10.0, C).d
    assert abs(d1 - d2) < 1e-9


def test_correlation_dimension_circle():
    pts = circle_points(2000)
    radii = np.geomspace(0.02, 0.5, 40)
    C = correlation_integral(pts, radii, 0)
    fit = correlation_dimension(radii, C)
    assert fit.d == pytest.approx(1.0, abs=0.15)


def test_correlation_dimension_planar_noise():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 1, (2000, 2))
    radii = np.geomspace(0.01, 0.25, 40)
    C = correlation_integral(pts, radii, 0)
    fit = correlation_dimension(radii, C)
    assert fit.d == pytest.approx(2.0, abs=0.2)


def test_correlation_dimension_needs_positive_values():
    r = np.geomspace(0.1, 1.0, 12)
    C = np.zeros(12)
    C[-3:] = [0.1, 0.2, 0.3]
    with pytest.raises(ValueError):
        correlation_dimension(r, C)


def test_albano_dimension_sine():
    with mock.patch.object(tsa, "MAX_POINTS", 1500):
        report = albano_dimension(sine_series(4000))
    assert isinstance(report, DimensionReport)
    assert report.tau == 20
    assert report.d == pytest.approx(1.0, abs=0.2)
    assert report.takens_ok
    assert report.kept_count == 2
    assert report.m_used >= 5
    assert 0 <= report.fit_r2 <= 1


def test_albano_dimension_white_noise_stays_high():
    # Noise has no finite correlation dimension; what a finite sample
    # can show is the estimate climbing with m until it saturates near
    # the resolution cap (about 2*log10(points)), far above any
    # low-dimensional attractor.
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2500)

    def estimate(m):
        coords, _, _ = svd_reduce(embed(x, m, 1, 2).rows, 1e-2)
        sub = coords[:: max(1, len(coords) // 400)]
        gaps = np.max(np.abs(sub[:, None, :] - sub[None, :, :]), axis=2)
        gaps = gaps[np.triu_indices(len(sub), 1)]
        gaps = gaps[gaps > 0]
        radii = np.geomspace(np.percentile(gaps, 1), np.percentile(gaps, 50), 40)
        C = correlation_integral(coords, radii, m)
        return correlation_dimension(radii, C).d

    d3, d6, d9 = estimate(3), estimate(6), estimate(9)
    assert d3 < d6 < d9

    with mock.patch.object(tsa, "MAX_POINTS", 1200), mock.patch.object(tsa, "M_MAX", 40):
        report = albano_dimension(x)
    assert report.d > 4.0


def test_albano_dimension_names_a_delay_too_long_for_the_series():
    # The 1/e rule on a slow ramp picks tau = 363, which leaves 48 points
    # at m = 5: fewer than the Theiler window of tau * m needs.
    ramp = np.arange(1500.0) ** 2 / 1000.0
    with pytest.raises(ValueError, match=r"tau = 363 .* m = 5 .* keeps 48 points"):
        albano_dimension(ramp)
    with pytest.raises(ValueError, match=r"m = 6 at tau = 363: .* no point is embedded"):
        embed(ramp, 6, 363)


def test_largest_lyapunov_logistic_map():
    x = logistic_series(3000)
    oracle = float(np.mean(np.log(np.abs(4.0 - 8.0 * x))))
    assert oracle == pytest.approx(math.log(2.0), abs=0.01)
    lam = largest_lyapunov(embed(x, 2, 1))
    assert lam == pytest.approx(oracle, abs=0.05)
    assert lam == pytest.approx(0.693, abs=0.05)


def test_largest_lyapunov_direction_sensitivity():
    # divergence is directional: the reversed orbit of a two-to-one map
    # splits into preimage branches and separates at a different rate
    x = logistic_series(3000)
    forward = largest_lyapunov(embed(x, 2, 1))
    backward = largest_lyapunov(embed(x[::-1], 2, 1))
    assert abs(forward - backward) > 0.1


def test_largest_lyapunov_sine_is_zero():
    lam = largest_lyapunov(embed(sine_series(3000), 5, 20))
    assert abs(lam) < 0.02


def test_largest_lyapunov_flat_series_is_zero():
    rng = np.random.default_rng(10)
    x = 1.0 + 1e-9 * rng.uniform(-1, 1, 2000)
    lam = largest_lyapunov(embed(x, 3, 1))
    assert abs(lam) < 0.02


def test_largest_lyapunov_sample_interval_scaling():
    x = logistic_series(2000)
    per_step = largest_lyapunov(embed(x, 2, 1))
    per_time = largest_lyapunov(embed(x, 2, 1), 0.5)
    assert per_time == pytest.approx(2.0 * per_step, rel=1e-12)


def test_largest_lyapunov_guards():
    with pytest.raises(ValueError):
        largest_lyapunov(embed(np.sin(np.arange(150.0)), 2, 1))
    with pytest.raises(ValueError):
        largest_lyapunov(embed(logistic_series(1000), 2, 1), sample_interval=0.0)


# Floats without NaN, with signed zeros, infinities and repeats among them.
window_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]), st.floats(allow_nan=False)
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(window_values, max_size=40))
def test_window_counts_are_those_of_np_unique(values):
    counts = tsa._distinct_counts(values)
    for i in range(len(values)):
        assert counts[i][:i] == [0] * i
        for j in range(i, len(values)):
            assert counts[i][j] == np.unique(np.array(values[i : j + 1])).size


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 100_000), k=st.integers(0, 1500))
def test_even_indices_are_np_unique_of_the_linspace(n, k):
    want = np.unique(np.linspace(0, n - 1, k).astype(int))
    got = tsa._even_indices(n, k)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def reference_radii_grid(points):
    """radii_grid as written with np.unique and np.triu_indices."""
    M = points.shape[0]
    idx = np.unique(np.linspace(0, M - 1, min(M, tsa.PERCENTILE_SAMPLE)).astype(int))
    sub = points[idx]
    d = np.abs(sub[:, None, :] - sub[None, :, :]).max(axis=2)
    pairwise = d[np.triu_indices(idx.size, 1)]
    pairwise = pairwise[pairwise > 0]
    if pairwise.size == 0:
        raise ValueError("all sampled points coincide; no radius scale")
    lo = float(np.percentile(pairwise, tsa.R_LO_PERCENTILE))
    hi = float(np.percentile(pairwise, tsa.R_HI_PERCENTILE))
    if lo <= 0:
        lo = float(pairwise.min())
    if hi <= lo:
        hi = lo * 10.0
    return np.geomspace(lo, hi, tsa.RADII_COUNT)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.one_of(st.integers(2, 1500), st.integers(2, 40)),
    dims=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    holes=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=3),
    block=st.sampled_from([tsa.PAIR_BLOCK, 1, 7, None]),
)
def test_radii_grid_is_that_of_the_index_form(rows, dims, seed, holes, block):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(rows, dims)).round(1)
    # Non-finite coordinates, put on sampled points: an inf distance is
    # kept as a distance, a NaN one dropped with the coincident pairs.
    sampled = tsa._even_indices(rows, min(rows, tsa.PERCENTILE_SAMPLE))
    for value in holes:
        points[rng.choice(sampled), rng.integers(dims)] = value

    def outcome(radii):
        try:
            return radii(points).tobytes()
        except ValueError as err:
            return str(err)

    # PAIR_BLOCK sets memory and speed only; None puts all points in one block.
    with np.errstate(invalid="ignore"), mock.patch.object(tsa, "PAIR_BLOCK", block or rows + 1):
        assert outcome(tsa.radii_grid) == outcome(reference_radii_grid)


def test_radii_grid_takes_a_1d_array_as_points_of_one_coordinate():
    assert radii_grid(np.arange(10.0)).tobytes() == radii_grid(np.arange(10.0)[:, None]).tobytes()
    x = np.sin(np.arange(1.5 * tsa.PERCENTILE_SAMPLE) / 7.0)
    radii = radii_grid(x)
    assert radii.tobytes() == radii_grid(x[:, None]).tobytes()
    assert correlation_integral(x, radii, 3).tobytes() == (
        correlation_integral(x[:, None], radii, 3).tobytes()
    )
