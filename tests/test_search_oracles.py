"""The mode enumeration and the generator-triple search against their
earlier forms.

``oracle_feasible_triple`` is the triple search as it was written
before its two grow-then-bisect passes became one helper: a loop that
grows sigma2 while condition 2 misses its margin, then a second copy
of the loop and the bisection for rho2.  ``oracle_eigenvalues``
enumerates every Neumann eigenvalue of the rectangle under four times
the cutoff that ``neumann_eigenvalues`` uses, with the same float
operations per lattice point, where the old code grew its cutoff until
it held ``count`` values.  The code must match both byte for byte.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from b4.functionals import (
    BISECT_STEPS,
    FEASIBLE_GROWTH,
    GROWTH_CAP,
    InfeasibleError,
    _condition_terms,
    coupling_constants,
    feasible_triple,
)
from b4.spectral import neumann_eigenvalues


def oracle_feasible_triple(A):
    theta2 = A.A12**2 + 1.0
    e13 = A.A13 - A.A12 * A.A23
    lam_target = e13**2 + 1.0

    def lam_at(s2):
        return _condition_terms(A, theta2, s2, 1.0)[0]

    sigma2 = A.A23**2 + 1.0
    steps = 0
    while lam_at(sigma2) < lam_target:
        sigma2 *= FEASIBLE_GROWTH
        steps += 1
        if steps > GROWTH_CAP:
            raise InfeasibleError("condition 2")
    if steps:
        lo, hi = sigma2 / FEASIBLE_GROWTH, sigma2
        for _ in range(BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if lam_at(mid) >= lam_target:
                hi = mid
            else:
                lo = mid
        sigma2 = hi

    lam, _, gam = _condition_terms(A, theta2, sigma2, 1.0)

    def margin3_ok(r2):
        vee = _condition_terms(A, theta2, sigma2, r2)[1]
        return vee > 0 and lam * vee >= 2.0 * gam**2 + 1.0

    rho2 = 1.0
    steps = 0
    while not margin3_ok(rho2):
        rho2 *= FEASIBLE_GROWTH
        steps += 1
        if steps > GROWTH_CAP:
            raise InfeasibleError("condition 3")
    if steps:
        lo, hi = rho2 / FEASIBLE_GROWTH, rho2
        for _ in range(BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if margin3_ok(mid):
                hi = mid
            else:
                lo = mid
        rho2 = hi
    return theta2, sigma2, rho2


# Log-uniform over 1e-8..1e2, or uniform over 1e-6..1e-5 as in the
# benchmark's scan draws.
diffusivity = st.one_of(st.floats(-8.0, 2.0).map(lambda e: 10.0**e), st.floats(1e-6, 1e-5))


@st.composite
def diffusivities(draw):
    """Four diffusivities, some of them repeated."""
    pool = draw(st.lists(diffusivity, min_size=1, max_size=4))
    return [draw(st.sampled_from(pool)) for _ in range(4)]


@settings(max_examples=500, deadline=None)
@given(abcd=diffusivities())
def test_triple_search_equals_the_two_loop_search(abcd):
    A = coupling_constants(*abcd)
    assert feasible_triple(A) == oracle_feasible_triple(A)


def oracle_eigenvalues(Lx, Ly, count):
    if Ly is None:
        return math.pi**2 * np.arange(count, dtype=float) ** 2 / Lx**2
    bound = 4.0 * (
        4.0 * math.pi * count / (Lx * Ly) * 1.3
        + 16.0 * math.pi**2 * (1.0 / Lx**2 + 1.0 / Ly**2)
    )
    jj = (np.arange(int(math.sqrt(bound) * Lx / math.pi) + 2, dtype=float) / Lx) ** 2
    kk = (np.arange(int(math.sqrt(bound) * Ly / math.pi) + 2, dtype=float) / Ly) ** 2
    # A million values at a time, keeping the `count` smallest of each block.
    rows = max(1, 2**20 // kk.size)
    kept, under = [], 0
    for start in range(0, jj.size, rows):
        mu = (math.pi**2 * np.add.outer(jj[start : start + rows], kk)).ravel()
        mu = mu[mu <= bound]
        under += mu.size
        kept.append(np.sort(mu)[:count])
    assert under >= count
    return np.sort(np.concatenate(kept))[:count]


sides = st.floats(-2.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None)
@given(
    Lx=sides,
    Ly=st.one_of(st.none(), sides),
    count=st.one_of(st.integers(1, 40), st.integers(1, 30_000)),
)
def test_eigenvalues_equal_the_enumeration_under_four_times_the_cutoff(Lx, Ly, count):
    got = neumann_eigenvalues(Lx, Ly, count)
    assert got.tobytes() == oracle_eigenvalues(Lx, Ly, count).tobytes()
