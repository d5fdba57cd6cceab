"""Linear stability at the uniform state and attractor-dimension bounds.

The 4x4 linearization is evaluated mode by mode over the no-flux
Laplacian spectrum of a rectangle.  Two instability counts are kept
side by side: the positive-trace criterion and the full eigenvalue
check.  The first implies the second, never the reverse, so both are
reported rather than silently picking one.

The full check is the Routh-Hurwitz criterion, mode by mode.  The
characteristic polynomial's coefficients c1..c4 are exact polynomials
in mu, and a mode is stable exactly when c1, c3, c4 and the Hurwitz
determinant c1 c2 c3 - c3^2 - c1^2 c4 are all positive.  Only the modes
where c4 or the determinant is within rounding of zero get an
eigenvalue test of their own.  Modes past a Gershgorin cutoff, where
every row disc of the mode matrix lies in the open left half-plane, are
stable in both tests and not classified.  The count is the one an
eigenvalue test of every mode gives.

Memory stays bounded: the rectangle's eigenvalues come from a box of
about 4/pi lattice values a mode (at most 4/pi + 2 on a thin one), 8
bytes each, allocated at once and cut to the sorted mode list.  The
census classifies that list in blocks of _CENSUS_BLOCK modes and adds
up the counts.  Every test is per mode, so the block size never changes
a count.

Bound formulas accept exact rational inputs: with Fraction-valued
parameters the base and the rectangle's lower bound stay Fractions.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .model import check_params

# Modes where |c4| or the Hurwitz determinant falls below this share of
# size^4 or size^6 get their own eigenvalue test; size bounds every
# eigenvalue's modulus.  About 5e4 machine epsilons: the census tests
# already pass from 1e-16 on, and fail at 0.
EDGE_ROUNDING = 1e-11

# The modes, or lattice values, that one pass of the census or of the
# enumeration holds temporaries for: it sets memory, never a result.
_CENSUS_BLOCK = 8192


@dataclass(frozen=True)
class BoundReport:
    lower_bound_base: object
    lower: object
    upper: float
    trace_unstable_count: int
    full_unstable_count: int


def _out_of_range(length):
    return ValueError(f"domain length {length!r} puts the mode eigenvalues outside float64 range")


def _check_indexable(entries, count):
    """MemoryError for a float64 array of `entries` numpy cannot index."""
    if entries > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{count} modes need {entries} float64 values, past numpy's index range")


def neumann_eigenvalues(Lx, Ly, count):
    """First `count` no-flux Laplacian eigenvalues of a rectangle.

    Values are pi^2 (j^2/Lx^2 + k^2/Ly^2) over j,k >= 0, ascending and
    with multiplicity, for positive finite lengths that keep them in
    float64 range.  Pass Ly=None for a one-dimensional interval, which
    keeps only the k=0 branch.  The rectangle's values under a cutoff
    go, band by band, into a box allocated before any value is computed,
    which is sorted and cut to `count`, with no copy.  A box or interval
    list with more entries than numpy can index raises MemoryError.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    _check_indexable(count, count)
    for length in (Lx, Ly):
        if length is None:
            continue
        if not (math.isfinite(length) and length > 0):
            raise ValueError("domain lengths must be positive and finite")
        # Then pi^2 / L^2, the scale of the values, does not underflow.
        if not 0.0 < length * length < math.inf:
            raise _out_of_range(length)
    # The values (j, 0) or (0, k) along the longer side reach line^2 at
    # the count-th; no value computed below exceeds twice that.
    longest = Lx if Ly is None else max(Lx, Ly)
    line = math.pi * (count - 1) / longest
    if not math.isfinite(2.0 * line * line):
        raise _out_of_range(longest)
    if Ly is None:
        # pi^2 j^2 / Lx^2, evaluated in place in that order.
        mu = np.arange(count, dtype=float)
        np.multiply(mu, mu, mu)
        np.multiply(mu, math.pi**2, mu)
        np.divide(mu, Lx**2, mu)
        return mu

    # Each of two cutoffs holds at least `count` values: line^2, by the
    # line along the longer side, and 4 pi count / (Lx Ly), as each
    # lattice point (j, k) owns the unit cell above and to the right of
    # it, and the cells of the points under mu cover the quarter ellipse
    # pi^2 (j^2/Lx^2 + k^2/Ly^2) <= mu, so at least Lx Ly mu / (4 pi)
    # points lie under mu.  The factor covers the values' rounding.
    cutoff = min(line * line, 4.0 * math.pi * count / (Lx * Ly)) * (1.0 + 2.0**-40)
    jmax = int(math.sqrt(cutoff) * Lx / math.pi)
    kmax = int(math.sqrt(cutoff) * Ly / math.pi)
    # The whole box at once: a list that cannot fit fails here, first.
    _check_indexable((jmax + 1) * (kmax + 1), count)
    mu = np.empty((jmax + 1) * (kmax + 1))
    jj = (np.arange(jmax + 1, dtype=float) / Lx) ** 2
    kk = (np.arange(kmax + 1, dtype=float) / Ly) ** 2

    # The lattice in bands of whole rows j, about _CENSUS_BLOCK values
    # each: pi^2 (jj[j] + kk), those under the cutoff written in order.
    end = 0
    rows = max(1, _CENSUS_BLOCK // kk.size)
    for start in range(0, jj.size, rows):
        band = np.add.outer(jj[start : start + rows], kk)
        np.multiply(band, math.pi**2, band)
        under = band[band <= cutoff]
        mu[end : end + under.size] = under
        end += under.size
    # In place (no view of mu exists): the unfilled end, then past count.
    mu.resize(end, refcheck=False)
    mu.sort()
    mu.resize(count, refcheck=False)
    return mu


def mode_matrix(mu, params):
    """Linearization of the reaction-diffusion operator on one mode."""
    p = params
    a2 = p.alpha * p.alpha
    return np.array(
        [
            [-p.a * mu + p.beta - 1.0 - p.D1, a2, p.D1, 0.0],
            [-p.beta, -p.b * mu - p.D2 - a2, 0.0, p.D2],
            [p.D3, 0.0, -p.c * mu + p.beta - 1.0 - p.D3, a2],
            [0.0, p.D4, -p.beta, -p.d * mu - p.D4 - a2],
        ],
        dtype=float,
    )


def _trace_bracket(params):
    """Mode-independent part of the linearization trace."""
    return 2 * (params.beta - 1 - params.alpha * params.alpha) - (
        params.D1 + params.D2 + params.D3 + params.D4
    )


def _characteristic_polynomials(base, rates):
    """c1..c4 of det(lam I - M(mu)) for M(mu) = base - mu diag(rates).

    c_k is (-1)^k times the sum of the k-by-k principal minors of
    M(mu).  With the ramp diagonal, the minor on an index set S expands
    over the subsets T of S as the sum of (-mu)^|T| prod(rates[T])
    det(base[S minus T]), so each coefficient in mu is exact algebra on
    the principal minors of base, not a fit.
    """
    # Imported here: numpy.polynomial adds about 4 ms to every b4
    # start-up, and only the census uses it.
    from numpy.polynomial import Polynomial

    n = len(rates)
    minors = {(): 1.0}
    for k in range(1, n + 1):
        for S in combinations(range(n), k):
            minors[S] = np.linalg.det(base[np.ix_(S, S)])
    coef = np.zeros((n + 1, n + 1))
    for S in minors:
        for m in range(len(S) + 1):
            for T in combinations(S, m):
                rest = tuple(i for i in S if i not in T)
                weight = math.prod(rates[i] for i in T)
                coef[len(S), m] += (-1) ** (len(S) + m) * weight * minors[rest]
    return [Polynomial(row) for row in coef[1:]]


def _any_unstable(base, ramp, mus):
    """The full test per mode: any eigenvalue with positive real part."""
    stack = base[None, :, :] - mus[:, None, None] * ramp[None, :, :]
    return np.linalg.eigvals(stack).real.max(axis=1) > 0.0


def unstable_mode_count(params, Lx, Ly, max_modes):
    """Counts of unstable modes among the first max_modes eigenvalues.

    Returns (trace_count, full_count): modes with positive trace of the
    mode matrix, and modes with any eigenvalue in the right half-plane.
    A mode is stable when c1, c3, c4 and the Hurwitz determinant are
    all positive; see the module docstring.  Both counts are taken over
    blocks of _CENSUS_BLOCK modes, so that besides the mode list the
    census holds temporaries of one block.
    """
    check_params(params)
    mus = neumann_eigenvalues(Lx, Ly, max_modes)
    # The Gershgorin disc of row i of the mode matrix reaches right to
    # edges[i] - rate_i mu.  Past mu_G = max edges[i] / rate_i every disc
    # lies in the open left half-plane, and the trace is at most the sum
    # of the right edges: both tests call those modes stable.
    a2 = params.alpha * params.alpha
    edges = (params.beta - 1 + a2, params.beta - a2) * 2
    mu_g = max(e / r for e, r in zip(edges, (params.a, params.b, params.c, params.d)))
    mus = mus[: np.searchsorted(mus, float(mu_g), side="right")]
    rate_sum = float(params.a + params.b + params.c + params.d)
    bracket = float(_trace_bracket(params))

    base = mode_matrix(0.0, params)
    rates = [float(params.a), float(params.b), float(params.c), float(params.d)]
    ramp = np.diag(rates)
    c1, c2, c3, c4 = _characteristic_polynomials(base, rates)
    hurwitz = c1 * c2 * c3 - c3 * c3 - c1 * c1 * c4

    # |c4| <= |lam| size^3 for a real eigenvalue lam, and by Orlando's
    # formula |hurwitz| <= 2 |Re lam| (2 size)^5 for a complex pair, so
    # a mode off the near-edge list has no eigenvalue within
    # EDGE_ROUNDING * size / 64 of the imaginary axis.  There the float
    # signs of c4 and hurwitz are exact, and with both positive so are
    # those of c1 and c3.  Modes on the list get their own eigensolve.
    norm_base, norm_rates = np.linalg.norm(base), np.linalg.norm(rates)
    trace_count = full_count = 0
    for start in range(0, mus.size, _CENSUS_BLOCK):
        block = mus[start : start + _CENSUS_BLOCK]
        trace_count += int(np.count_nonzero(-rate_sum * block + bracket > 0.0))
        k4, det = c4(block), hurwitz(block)
        unstable = ~((c1(block) > 0.0) & (c3(block) > 0.0) & (k4 > 0.0) & (det > 0.0))
        size = norm_base + norm_rates * block
        size4 = size**4
        direct = (np.abs(k4) <= EDGE_ROUNDING * size4) | (
            np.abs(det) <= EDGE_ROUNDING * size4 * size * size
        )
        unstable[direct] = _any_unstable(base, ramp, block[direct])
        full_count += int(np.count_nonzero(unstable))
    return trace_count, full_count


def lower_bound_base(params):
    """Trace bracket over the summed reaction-layer rates.

    Pure scalar arithmetic, so Fraction-valued parameters give an exact
    rational result.
    """
    return _trace_bracket(params) / (params.a + params.b + params.c + params.d)


def dimension_bounds(params, Lx, Ly, max_modes):
    """Attractor-dimension bound report for the Lx x Ly rectangle.

    Ly=None gives the interval of length Lx.  lower = max(base, 0)^(N/2),
    with base from lower_bound_base and N = 1 or 2 the domain's dimension,
    and upper = |Omega| + 1: the paper's bracket with its constants at 1,
    an evaluator of the formula rather than a claimed number.  The report
    also holds the unstable-mode counts of the first max_modes modes of
    the domain, whose census checks Lx and Ly.
    """
    base = lower_bound_base(params)
    clamped = base if base > 0 else 0
    if Ly is None:
        lower, volume = math.sqrt(clamped), Lx
    else:
        lower, volume = clamped, Lx * Ly
    upper = float(volume) + 1.0

    trace_count, full_count = unstable_mode_count(params, Lx, Ly, max_modes)
    return BoundReport(
        lower_bound_base=base,
        lower=lower,
        upper=upper,
        trace_unstable_count=trace_count,
        full_unstable_count=full_count,
    )
