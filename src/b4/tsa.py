"""Attractor reconstruction and invariants from a scalar time series.

Pipeline: pick a delay from the 1/e autocorrelation crossing, build a
delay embedding, rotate onto the leading singular directions, estimate
the correlation dimension from the pair-count integral, and iterate
the embedding dimension until the Takens condition m > 2d+1 holds.
A nearest-neighbor divergence estimator supplies the largest Lyapunov
exponent.

Pair distances use the max norm; neighbor searches for the exponent
use the Euclidean norm.  Temporally close pairs are excluded via a
Theiler window (default tau*m).  The correlation integral and the
radii grid take their pair distances from one blocked walk,
``_pair_blocks``, which marks the pairs inside its band as NaN.

The correlation integral walks a float32 copy of the points when every
coordinate is finite, ``tol = 2**-21 * A + 2**-140`` (A the largest
coordinate magnitude) is at most ``2**-12`` of the smallest radius, and
the largest radius is below ``2**100``.  The float32 max-norm distance
of a pair is then within tol of its float64 one: rounding a coordinate
moves it by at most ``2**-24 * A``, the float32 subtraction adds about
``2**-23 * A`` and the float64 one ``2**-52 * A``, abs and max add
nothing, and ``2**-140`` covers subnormals.  So a pair below
``r - tol`` counts for radius r, one at or above ``r + tol`` does not,
and only the pairs between are recounted in float64, with the same
subtractions; the counts equal those of a float64 walk bit for bit.
Otherwise the walk runs in float64 and that band is empty.
"""

import math
from dataclasses import dataclass, replace

import numpy as np


# Fixed settings of the pipeline, and what each one bounds:
MAX_LAG = 1000  # the autocorrelation lags searched for the 1/e delay
WINDOW_FACTOR = 4.0  # the first embedding dimension tried, floor(WINDOW_FACTOR) + 1
REFINE_SPAN = 10  # the embedding dimensions scanned past the Takens point
RADII_COUNT = 40  # the log-spaced radii of each correlation integral
R_LO_PERCENTILE = 1.0  # the smallest radius, as a pair-distance percentile
R_HI_PERCENTILE = 50.0  # the largest radius, likewise
PERCENTILE_SAMPLE = 500  # the points whose pair distances set those percentiles
LYAP_MAX_STEPS = 50  # the divergence horizon, in embedded steps
LYAP_MAX_REFS = 1000  # the reference points of the divergence curve
LYAP_MIN_REFS = 10  # the fewest reference points with a usable neighbour
PAIR_BLOCK = 16  # the reference points whose pair distances are sorted together
MAX_POINTS = 20000  # about the embedded vectors kept, through the sample stride


@dataclass(frozen=True)
class AnalysisConfig:
    threshold: float = 1e-2
    m_max: int = 50
    theiler: int | None = None

    def __post_init__(self):
        if self.m_max < 2 or self.threshold < 0:
            raise ValueError("degenerate analysis configuration")
        if self.theiler is not None and self.theiler < 0:
            raise ValueError("theiler must be nonnegative")


@dataclass(frozen=True)
class EmbeddingMatrix:
    m: int
    tau: int
    l: int
    rows: np.ndarray


@dataclass(frozen=True)
class ScalingFit:
    d: float
    scaling_region: tuple
    fit_r2: float
    low_confidence: bool


@dataclass(frozen=True)
class DimensionReport:
    """The dimension fit at the chosen embedding dimension m_used.

    acf is the autocorrelation that the delay tau was read from,
    embedding the delay matrix that the fit was made on, and radii and
    C its correlation integral.
    """

    d: float
    scaling_region: tuple
    fit_r2: float
    singular_values: tuple
    takens_ok: bool
    kept_count: int
    low_confidence: bool
    acf: np.ndarray
    embedding: EmbeddingMatrix
    radii: np.ndarray
    C: np.ndarray

    @property
    def m_used(self):
        return self.embedding.m

    @property
    def tau(self):
        return self.embedding.tau


def autocorrelation(series, max_lag):
    """Mean-removed autocorrelation with per-lag sample normalization.

    Each lag divides by its own overlap count, so long-lag values are
    unbiased rather than shrunk toward zero.
    """
    x = np.asarray(series, dtype=float).ravel()
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    if x.size <= max_lag:
        raise ValueError("series length must exceed max_lag")
    centered = x - x.mean()
    var_sum = float(np.dot(centered, centered))
    if np.ptp(x) == 0 or var_sum == 0.0:
        raise ValueError("constant series has no autocorrelation structure")
    size = 1 << int(2 * x.size - 1).bit_length()
    spectrum = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[: max_lag + 1]
    lags = np.arange(max_lag + 1)
    acf = (acov / (x.size - lags)) / (var_sum / x.size)
    acf[0] = 1.0
    return acf


def select_delay(acf):
    """Smallest integer lag where the autocorrelation falls to 1/e."""
    acf = np.asarray(acf, dtype=float)
    if acf.size < 2 or abs(acf[0] - 1.0) > 1e-9:
        raise ValueError("expected an autocorrelation sequence starting at 1")
    below = np.nonzero(acf[1:] <= 1.0 / math.e)[0]
    if below.size == 0:
        raise ValueError(
            "autocorrelation never reaches 1/e within max_lag; "
            "recompute with a larger max_lag"
        )
    return int(below[0]) + 1


def embed(series, m, tau, l=1):
    """Delay-coordinate matrix: row i, column j is series[i*l + j*tau]."""
    x = np.asarray(series, dtype=float).ravel()
    if m < 1 or tau < 1 or l < 1:
        raise ValueError("m, tau and l must be positive integers")
    window = (m - 1) * tau
    if x.size < window + 1:
        raise ValueError(
            f"series of length {x.size} too short for m = {m} at tau = {tau}: "
            f"the window spans {window + 1} samples, so no point is embedded"
        )
    s = (x.size - 1 - window) // l + 1
    idx = np.arange(s)[:, None] * l + np.arange(m)[None, :] * tau
    return EmbeddingMatrix(m=m, tau=tau, l=l, rows=x[idx])


def svd_reduce(rows, threshold):
    """Project rows onto singular directions above the threshold.

    ``rows`` is a 2-d array, one point per row, column-mean centered
    first.  The threshold is relative to the largest singular value;
    components below the numerical-rank floor are dropped even at
    threshold zero.  Returns (rotated coordinates, kept_count,
    singular_values descending).
    """
    if rows.ndim != 2:
        raise ValueError("expected a 2-d embedding matrix")
    s_count, m = rows.shape
    if s_count < m:
        raise ValueError("need at least as many rows as columns")
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    centered = rows - rows.mean(axis=0)
    gram = centered.T @ centered
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    sigma = np.sqrt(np.clip(evals, 0.0, None))
    if sigma[0] <= 0.0:
        raise ValueError("degenerate embedding (all rows identical): nothing kept")
    # deterministic sign convention: largest entry of each direction positive
    peak = np.argmax(np.abs(evecs), axis=0)
    signs = np.sign(evecs[peak, np.arange(m)])
    signs[signs == 0] = 1.0
    evecs = evecs * signs

    floor = sigma[0] * math.sqrt(max(s_count, m)) * math.sqrt(np.finfo(float).eps)
    kept = (sigma >= threshold * sigma[0]) & (sigma > floor)
    kept_count = int(np.count_nonzero(kept))
    if kept_count == 0:
        raise ValueError("threshold removed every component: nothing kept")
    return centered @ evecs[:, kept], kept_count, sigma


def _as_points(points):
    """points as a float (M, m) array; an (M,) array is M points of one coordinate."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise ValueError("points must be an (M, m) array with m >= 1")
    return pts


def _pair_blocks(points, gap):
    """The one pair walk: max-norm distances of an (M, m) array's points.

    Yields (start, block), one block per PAIR_BLOCK reference points, in
    the dtype of points: row a is point i = start + a, column b point
    j = start + gap + b.  The pairs with b < a, in the band j - i < gap,
    are NaN, which fails every comparison and sorts last.
    """
    coords = np.ascontiguousarray(points.T)
    M = points.shape[0]
    band = np.tri(PAIR_BLOCK, k=-1, dtype=bool)
    for start in range(0, M - gap, PAIR_BLOCK):
        n = min(PAIR_BLOCK, M - gap - start)
        rows, cols = slice(start, start + n), slice(start + gap, M)
        first, *rest = coords
        d = np.abs(first[cols] - first[rows, None])
        diff = np.empty_like(d)
        for x in rest:
            np.subtract(x[cols], x[rows, None], out=diff)
            np.abs(diff, out=diff)
            np.maximum(d, diff, out=d)
        d[:, :n][band[:n, :n]] = np.nan
        # Held across the yield, diff would add a block to the peak memory.
        del diff
        yield start, d


def correlation_integral(points, radii, theiler_window=0):
    """Fraction of point pairs closer than each radius (max norm, d < r).

    Pairs i < j with j - i <= theiler_window are excluded from the
    count; the denominator stays the full pair count M(M-1)/2.  Pairs
    are counted a block of the pair walk (``_pair_blocks``, gap
    theiler_window + 1) at a time: a sorted copy of the block, its NaN
    band last, gives each radius the pairs below its lower threshold by
    bisection.  The walk runs in float32 where the module docstring's
    bound allows, and the pairs between a radius's two thresholds are
    recounted in float64.
    """
    pts = _as_points(points)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0 or not np.all(np.isfinite(radii) & (radii > 0)):
        raise ValueError("radii must be finite and positive")
    if np.any(np.diff(radii) < 0):
        raise ValueError("radii must be ascending")
    if theiler_window < 0:
        raise ValueError("theiler_window must be nonnegative")
    M = pts.shape[0]
    gap = theiler_window + 1
    if M - gap < 1:
        raise ValueError("no usable pairs outside the Theiler window")
    # A float64 walk counts d < r exactly: lo = hi = radii, no band.
    walk, lo, hi = pts, radii, radii
    # tol is inf or NaN, and fails the test, when a coordinate is not finite.
    tol = 2.0**-21 * np.abs(pts).max() + 2.0**-140
    if tol <= 2.0**-12 * radii[0] and radii[-1] < 2.0**100:
        walk = pts.astype(np.float32)
        lo = np.nextafter((radii - tol).astype(np.float32), np.float32(-np.inf))
        hi = np.nextafter((radii + tol).astype(np.float32), np.float32(np.inf))
    below = np.zeros(radii.size, dtype=np.int64)
    for start, d in _pair_blocks(walk, gap):
        ordered = np.sort(d, axis=None)
        low = np.searchsorted(ordered, lo)
        below += low
        for k in np.flatnonzero(np.searchsorted(ordered, hi) > low):
            # np.nonzero of the 2-d mask would take ten times as long.
            a, b = np.divmod(np.flatnonzero((d >= lo[k]) & (d < hi[k])), d.shape[1])
            exact = np.max(np.abs(pts[start + gap + b] - pts[start + a]), axis=1)
            below[k] += np.count_nonzero(exact < radii[k])
    return below / (M * (M - 1) / 2.0)


def correlation_dimension(radii, C):
    """Slope of the best log-log scaling window of the pair integral.

    Windows need at least 5 points, half a decade of radius span and
    four distinct C values; among those the best linear fit wins.  If
    none qualifies the widest usable range is fitted and the result is
    flagged low-confidence, as it is whenever the best R^2 < 0.95.
    """
    r = np.asarray(radii, dtype=float)
    C = np.asarray(C, dtype=float)
    if r.shape != C.shape:
        raise ValueError("radii and C must have matching shapes")
    mask = C > 0
    if np.count_nonzero(mask) < 8:
        raise ValueError("need at least 8 radii with positive C")
    rm = r[mask]
    x = np.log(rm)
    y = np.log(C[mask])
    n = x.size
    min_span = 0.5 * math.log(10.0)

    def fit(i, j):
        xs, ys = x[i : j + 1], y[i : j + 1]
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        ss_res = float(np.dot(resid, resid))
        centered = ys - ys.mean()
        ss_tot = float(np.dot(centered, centered))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
        return slope, r2

    distinct = _distinct_counts(y.tolist())
    best = None
    for i in range(n - 4):
        for j in range(i + 4, n):
            if x[j] - x[i] < min_span or distinct[i][j] < 4:
                continue
            slope, r2 = fit(i, j)
            if best is None or r2 > best[1]:
                best = (slope, r2, (float(rm[i]), float(rm[j])))
    if best is None:
        slope, r2 = fit(0, n - 1)
        return ScalingFit(max(slope, 0.0), (float(rm[0]), float(rm[-1])), r2, True)
    slope, r2, region = best
    return ScalingFit(max(slope, 0.0), region, r2, r2 < 0.95)


def _distinct_counts(values):
    """counts[i][j], the number of distinct values in values[i : j + 1]
    (0 for j < i), for a list of floats without NaN: np.unique's count,
    taken for all windows at once."""
    counts = []
    for i in range(len(values)):
        seen, row = set(), [0] * i
        for value in values[i:]:
            seen.add(value)
            row.append(len(seen))
        counts.append(row)
    return counts


def _even_indices(n, k):
    """k indices spread evenly over range(n), in order, without repeats:
    np.unique of the truncated linspace, which is sorted already."""
    idx = np.linspace(0, n - 1, k).astype(int)
    return np.concatenate((idx[:1], idx[1:][idx[1:] != idx[:-1]]))


def radii_grid(points):
    """Log-spaced radii between pair-distance percentiles (max norm).

    The nonzero distances of the sample's pairs i < j are taken a block
    of the pair walk (``_pair_blocks``, gap 1) at a time into one array
    of at most k(k-1)/2; ``d > 0`` drops the block's NaN band and the
    coincident pairs in one comparison.
    """
    points = _as_points(points)
    M = points.shape[0]
    k = min(M, PERCENTILE_SAMPLE)
    idx = _even_indices(M, k)
    n = idx.size
    pairwise, end = np.empty(n * (n - 1) // 2), 0
    for _, d in _pair_blocks(points[idx], 1):
        d = d[d > 0]
        pairwise[end : end + d.size] = d
        end += d.size
    pairwise = pairwise[:end]
    if pairwise.size == 0:
        raise ValueError("all sampled points coincide; no radius scale")
    lo, hi = np.percentile(
        pairwise, [R_LO_PERCENTILE, R_HI_PERCENTILE], overwrite_input=True
    ).tolist()
    if hi <= lo:
        hi = lo * 10.0
    return np.geomspace(lo, hi, RADII_COUNT)


def theiler_window(embedding, override):
    """Exclusion window in embedded-vector index units.

    The default tau*m is a span in samples; with a strided embedding
    it shrinks accordingly.  An explicit override is taken verbatim.
    """
    if override is not None:
        return override
    return -(-(embedding.tau * embedding.m) // embedding.l)


def _stride(samples):
    """The sample stride l of albano_dimension's embeddings: about MAX_POINTS vectors."""
    return max(1, -(-samples // MAX_POINTS))


def theiler_limit(samples):
    """The largest theiler that leaves a pair outside the Theiler window
    in albano_dimension's first embedding of ``samples`` samples, at its
    stride and the shortest delay, tau = 1: a larger one leaves no pair
    at any delay."""
    points = (samples - int(WINDOW_FACTOR) - 1) // _stride(samples) + 1
    return points - 2


def albano_dimension(series, config=None):
    """Iterated delay-embedding dimension estimate.

    Delay from the 1/e rule, initial window a multiple of it, SVD
    projection, correlation dimension, then embedding growth until the
    Takens condition m > 2d+1 holds, followed by a refinement scan
    keeping the best-fitting m.  Hitting m_max returns the last fit
    with takens_ok=False instead of raising.  The embedding takes every
    l-th sample, l chosen to keep about MAX_POINTS vectors.
    """
    cfg = config if config is not None else AnalysisConfig()
    x = np.asarray(series, dtype=float).ravel()
    acf = autocorrelation(x, min(MAX_LAG, x.size - 1))
    tau = select_delay(acf)
    stride = _stride(x.size)

    def evaluate(m):
        emb = embed(x, m, tau, stride)
        theiler = theiler_window(emb, cfg.theiler)
        points = emb.rows.shape[0]
        if cfg.theiler is not None and m <= points < theiler + 2:
            raise ValueError(
                f"theiler = {theiler} is too large for {x.size} samples: at m = {m} and "
                f"tau = {tau} the embedding keeps {points} points, and the Theiler "
                f"window leaves no pair among them"
            )
        if points < max(m, theiler + 2):
            raise ValueError(
                f"delay tau = {tau} is too long for {x.size} samples: at m = {m} the "
                f"embedding keeps {points} points, too few for pairs outside the "
                f"Theiler window of {theiler}"
            )
        coords, kept, sigma = svd_reduce(emb.rows, cfg.threshold)
        radii = radii_grid(coords)
        C = correlation_integral(coords, radii, theiler)
        fit = correlation_dimension(radii, C)
        return DimensionReport(
            d=fit.d,
            scaling_region=fit.scaling_region,
            fit_r2=fit.fit_r2,
            singular_values=tuple(float(s) for s in sigma[:kept]),
            takens_ok=False,
            kept_count=kept,
            low_confidence=fit.low_confidence,
            acf=acf,
            embedding=emb,
            radii=radii,
            C=C,
        )

    m = int(WINDOW_FACTOR) + 1
    while True:
        best = evaluate(m)
        if m > 2.0 * best.d + 1.0:
            break
        next_m = max(m + 1, int(math.floor(2.0 * best.d + 1.0)) + 1)
        if next_m > cfg.m_max:
            return best
        m = next_m

    for trial in range(m + 1, min(m + REFINE_SPAN, cfg.m_max) + 1):
        try:
            candidate = evaluate(trial)
        except ValueError:
            break
        if candidate.fit_r2 > best.fit_r2:
            best = candidate
    return replace(best, takens_ok=best.m_used >= 2.0 * best.d + 1.0)


def largest_lyapunov(embedding, sample_interval=1.0, theiler=None):
    """Largest Lyapunov exponent from nearest-neighbor divergence.

    Each row of the embedding is a reference point, paired with its
    nearest neighbor outside the Theiler window (theiler_window's
    default when theiler is None); the mean log-separation is tracked
    forward and the slope of its initial linear stretch (before the
    curve comes within 0.7 nats of saturation) is returned per unit of
    series time.  sample_interval is the spacing of the series, so one
    embedded step spans sample_interval * embedding.l.
    """
    if sample_interval <= 0 or (theiler is not None and theiler < 0):
        raise ValueError("sample_interval must be positive and theiler nonnegative")
    Y = embedding.rows
    M = Y.shape[0]
    if M < 200:
        raise ValueError("need at least 200 embedded points")
    explicit = theiler is not None
    theiler = theiler_window(embedding, theiler)
    kmax = min(LYAP_MAX_STEPS, M // 4)
    limit = M - kmax
    n_refs = min(limit, LYAP_MAX_REFS)
    refs = _even_indices(limit, n_refs)
    # Periodic signals revisit states to within rounding noise; pairing
    # with such near-duplicates would track arithmetic noise instead of
    # dynamics, so neighbors closer than a sliver of the attractor
    # diameter are skipped.
    min_separation = 1e-9 * float(np.linalg.norm(np.ptp(Y, axis=0)))

    log_sums = np.zeros(kmax + 1)
    used = 0
    for i in refs:
        diff = Y[:limit] - Y[i]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        lo = max(0, i - theiler)
        dist[lo : i + theiler + 1] = np.inf
        dist[dist <= min_separation] = np.inf
        j = int(np.argmin(dist))
        if not np.isfinite(dist[j]):
            continue
        gap = Y[i : i + kmax + 1] - Y[j : j + kmax + 1]
        sep = np.sqrt(np.einsum("ij,ij->i", gap, gap))
        if np.any(sep == 0.0):
            continue
        log_sums += np.log(sep)
        used += 1
    if used < LYAP_MIN_REFS:
        hint = "need a longer or less correlated series"
        if explicit:
            hint = f"the Theiler window of theiler = {theiler} leaves too few among {M} points"
        raise ValueError(f"only {used} reference points found usable neighbors; {hint}")
    mean_ln = log_sums / used
    # The divergence curve rises linearly, then saturates at the
    # attractor diameter.  Fit before the knee when the rise is
    # resolvable; a curve that saturates immediately (periodic or
    # noise-dominated signals) is fitted on its plateau instead, where
    # the slope is the honest answer: no sustained divergence.
    saturated = np.nonzero(mean_ln >= mean_ln.max() - 0.7)[0]
    knee = int(saturated[0]) if saturated.size else kmax
    if knee >= 5:
        lo_k, hi_k = 0, knee - 1
    elif kmax - knee >= 4:
        lo_k, hi_k = knee, kmax
    else:
        lo_k, hi_k = 0, kmax
    ks = np.arange(lo_k, hi_k + 1, dtype=float)
    slope = np.polyfit(ks, mean_ln[lo_k : hi_k + 1], 1)[0]
    return float(slope / (sample_interval * embedding.l))
