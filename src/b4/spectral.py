"""Linear stability at the uniform state and attractor-dimension bounds.

The 4x4 linearization is evaluated mode by mode over the no-flux
Laplacian spectrum of a rectangle.  Two instability counts are kept
side by side: the positive-trace criterion and the full eigenvalue
check.  The first implies the second, never the reverse, so both are
reported rather than silently picking one.

The full check runs piecewise in mu.  The characteristic polynomial's
coefficients c1..c4 are exact polynomials in mu, and stability can only
change where c1, c3, c4 or the Routh-Hurwitz determinant c1 c2 c3 -
c3^2 - c1^2 c4 crosses zero.  The pieces between those roots each get
one eigenvalue test at their midpoint; only the modes where c4 or the
determinant is within rounding of zero are tested one by one.  The
count is the one an eigenvalue test of every mode gives.

Memory stays bounded: the sorted mode list, 8 bytes a mode, is the only
array that grows with the mode count.  The census classifies it in
blocks of _CENSUS_BLOCK modes and adds up the counts, and the rectangle's
eigenvalues are enumerated in bands of about as many lattice values.
Every test is per mode, so the block size never changes a count.

Bound formulas accept exact rational inputs: with Fraction-valued
parameters and even N the lower-bound base stays a Fraction.
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


def neumann_eigenvalues(Lx, Ly, count):
    """First `count` no-flux Laplacian eigenvalues of a rectangle.

    Values are pi^2 (j^2/Lx^2 + k^2/Ly^2) over j,k >= 0, ascending and
    with multiplicity, for positive finite lengths.  Pass Ly=None for a
    one-dimensional interval, which keeps only the k=0 branch.  The
    result is built in place: the rectangle's values under a cutoff go,
    band by band, into one array that is sorted and cut to `count`, with no copy.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    for length in (Lx, Ly):
        if length is not None and not (math.isfinite(length) and length > 0):
            raise ValueError("domain lengths must be positive and finite")
    if Ly is None:
        # pi^2 j^2 / Lx^2, evaluated in place in that order.
        mu = np.arange(count, dtype=float)
        np.multiply(mu, mu, mu)
        np.multiply(mu, math.pi**2, mu)
        np.divide(mu, Lx**2, mu)
        return mu

    # Enumerate everything below a cutoff that holds at least `count`
    # values.  Each lattice point (j, k) owns the unit cell above and to
    # the right of it, and the cells of the points under mu cover the
    # quarter ellipse pi^2 (j^2/Lx^2 + k^2/Ly^2) <= mu, so at least
    # Lx Ly mu / (4 pi) points lie under mu.  The cutoff is 1.3 times
    # the mu at which that area reaches `count`, plus a slack term.
    bound = 4.0 * math.pi * count / (Lx * Ly) * 1.3 + 16.0 * math.pi**2 * (
        1.0 / Lx**2 + 1.0 / Ly**2
    )
    jmax = int(math.sqrt(bound) * Lx / math.pi) + 1
    kmax = int(math.sqrt(bound) * Ly / math.pi) + 1
    jj = (np.arange(jmax + 1, dtype=float) / Lx) ** 2
    kk = (np.arange(kmax + 1, dtype=float) / Ly) ** 2

    # The lattice in bands of whole rows j, about _CENSUS_BLOCK values
    # each: pi^2 (jj[j] + kk).  One pass counts the values under the
    # cutoff, the next writes them, in the same order, into one array.
    rows = max(1, _CENSUS_BLOCK // kk.size)

    def bands():
        for start in range(0, jj.size, rows):
            band = np.add.outer(jj[start : start + rows], kk)
            np.multiply(band, math.pi**2, band)
            yield band[band <= bound]

    mu = np.empty(sum(under.size for under in bands()))
    end = 0
    for under in bands():
        mu[end : end + under.size] = under
        end += under.size
    mu.sort()
    # In place: no view of mu exists, and the values past count go.
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


def _sorted_distinct(values):
    """np.unique of values without NaN: a sort, then the first of each run
    of equal values.  np.unique would import numpy.ma on every call."""
    values = np.sort(values)
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def unstable_mode_count(params, Lx, Ly, max_modes):
    """Counts of unstable modes among the first max_modes eigenvalues.

    Returns (trace_count, full_count): modes with positive trace of the
    mode matrix, and modes with any eigenvalue in the right half-plane.
    The full count is classified piece by piece between the roots of
    c1, c3, c4 and the Hurwitz determinant; see the module docstring.
    Both counts are taken over blocks of _CENSUS_BLOCK modes, so that
    besides the mode list the census holds temporaries of one block.
    """
    if max_modes < 1:
        raise ValueError("max_modes must be at least 1")
    check_params(params)
    mus = neumann_eigenvalues(Lx, Ly, max_modes)
    rate_sum = float(params.a + params.b + params.c + params.d)
    bracket = float(_trace_bracket(params))

    base = mode_matrix(0.0, params)
    rates = [float(params.a), float(params.b), float(params.c), float(params.d)]
    ramp = np.diag(rates)
    c1, c2, c3, c4 = _characteristic_polynomials(base, rates)
    hurwitz = c1 * c2 * c3 - c3 * c3 - c1 * c1 * c4

    # Every root's real part is a cut, so a double root that the root
    # finder splits into a complex pair still bounds a piece.
    top = 2.0 * mus[-1] + 1.0
    edges = np.concatenate([p.roots() for p in (c1, c3, c4, hurwitz)]).real
    cuts = _sorted_distinct(np.concatenate(([0.0], edges[(edges > 0.0) & (edges < top)], [top])))
    mids = 0.5 * (cuts[:-1] + cuts[1:])

    # |c4| <= |lam| size^3 for a real eigenvalue lam, and by Orlando's
    # formula |hurwitz| <= 2 |Re lam| (2 size)^5 for a complex pair, so
    # a mode kept off this list has no eigenvalue within
    # EDGE_ROUNDING * size / 64 of the imaginary axis.  A piece whose
    # midpoint is on it is tested mode by mode.
    norm_base, norm_rates = np.linalg.norm(base), np.linalg.norm(rates)

    def near_edge(m):
        size = norm_base + norm_rates * m
        size4 = size**4
        return (np.abs(c4(m)) <= EDGE_ROUNDING * size4) | (
            np.abs(hurwitz(m)) <= EDGE_ROUNDING * size4 * size * size
        )

    mid_unstable, mid_near = _any_unstable(base, ramp, mids), near_edge(mids)
    trace_count = full_count = 0
    for start in range(0, mus.size, _CENSUS_BLOCK):
        block = mus[start : start + _CENSUS_BLOCK]
        trace_count += int(np.count_nonzero(-rate_sum * block + bracket > 0.0))
        piece = np.searchsorted(cuts, block, side="right") - 1
        unstable = mid_unstable[piece]
        direct = near_edge(block) | mid_near[piece]
        unstable[direct] = _any_unstable(base, ramp, block[direct])
        full_count += int(np.count_nonzero(unstable))
    return trace_count, full_count


def lower_bound_base(params):
    """Trace bracket over the summed reaction-layer rates.

    Pure scalar arithmetic, so Fraction-valued parameters give an exact
    rational result.
    """
    return _trace_bracket(params) / (params.a + params.b + params.c + params.d)


def dimension_bounds(params, N, Lx, Ly, max_modes):
    """Attractor-dimension bound report for the Lx x Ly rectangle.

    lower = max(base, 0)^(N/2) with base from lower_bound_base, and
    upper = |Omega| + 1, where |Omega| is Lx * Ly, or Lx for the
    interval that Ly=None gives: the paper's bracket with its constants
    at 1, an evaluator of the formula rather than a claimed number.
    The report also holds the unstable-mode counts of the first
    max_modes modes of the domain, whose census checks Lx and Ly.
    """
    if N not in (1, 2, 3):
        raise ValueError("N must be 1, 2 or 3")
    base = lower_bound_base(params)
    clamped = base if base > 0 else 0
    if N % 2 == 0:
        lower = clamped ** (N // 2)
    else:
        lower = math.sqrt(clamped) ** N
    volume = Lx if Ly is None else Lx * Ly
    upper = float(volume) + 1.0

    trace_count, full_count = unstable_mode_count(params, Lx, Ly, max_modes)
    return BoundReport(
        lower_bound_base=base,
        lower=lower,
        upper=upper,
        trace_unstable_count=trace_count,
        full_unstable_count=full_count,
    )
