"""Property test: the Routh-Hurwitz mode census against one eigensolve per mode."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b4 import spectral
from b4.model import SystemParams
from b4.spectral import mode_matrix, neumann_eigenvalues, unstable_mode_count


def direct_rule(params, mus):
    """Any eigenvalue in the right half-plane, one 4x4 eigensolve per mode."""
    base = mode_matrix(0.0, params)
    ramp = np.diag([float(params.a), float(params.b), float(params.c), float(params.d)])
    stack = base[None, :, :] - np.asarray(mus, dtype=float)[:, None, None] * ramp[None, :, :]
    return np.linalg.eigvals(stack).real.max(axis=1) > 0.0


def reference_unstable_mode_count(params, Lx, Ly, max_modes):
    """The census as an eigenvalue stack over every enumerated mode."""
    mus = neumann_eigenvalues(Lx, Ly, max_modes)
    rate_sum = float(params.a + params.b + params.c + params.d)
    bracket = float(
        2 * (params.beta - 1 - params.alpha * params.alpha)
        - (params.D1 + params.D2 + params.D3 + params.D4)
    )
    trace_count = int(np.sum(-rate_sum * mus + bracket > 0.0))
    return trace_count, int(np.sum(direct_rule(params, mus)))


def stability_edges(params, samples=257):
    """Mode values where the direct rule changes its answer.

    Past 2 |M(0)| / min(rates) every Gershgorin disc of the mode matrix
    lies in the left half-plane, so the scan stops there.  Each change
    between neighbouring samples is bisected down to adjacent floats,
    and the upper one is returned.
    """
    base = mode_matrix(0.0, params)
    top = 2.0 * np.abs(base).sum() / min(params.a, params.b, params.c, params.d)
    grid = np.concatenate(([0.0], np.geomspace(1e-9 * top, top, samples)))
    flags = direct_rule(params, grid)
    edges = []
    for i in np.flatnonzero(flags[1:] != flags[:-1]):
        lo, hi = grid[i], grid[i + 1]
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if direct_rule(params, [mid])[0] == flags[i]:
                lo = mid
            else:
                hi = mid
        edges.append(hi)
    return edges


def sign_roots(params):
    """Positive real mode values where c1 or c3 changes sign.

    There the Hurwitz determinant is -c3^2 or -c1^2 c4, so a mode on one
    is unstable whichever way the census reads the zero.
    """
    base = mode_matrix(0.0, params)
    rates = [float(params.a), float(params.b), float(params.c), float(params.d)]
    c1, _, c3, _ = spectral._characteristic_polynomials(base, rates)
    roots = np.concatenate((c1.roots(), c3.roots()))
    return [r.real for r in roots if r.imag == 0.0 and r.real > 0.0]


moderate = st.floats(0.05, 3.0)
wide = st.floats(-4.0, 1.5).map(lambda e: 10.0**e)


@st.composite
def parameter_sets(draw, unstable_start=False):
    values = draw(st.lists(st.one_of(moderate, wide), min_size=10, max_size=10))
    if draw(st.booleans()):
        # Mirror the (u, v) pair onto (w, z): the two oscillators then
        # cross at nearby mu, which clusters roots of the Hurwitz
        # determinant.
        values[4], values[5], values[8], values[9] = values[2], values[3], values[6], values[7]
    if unstable_start:
        # A positive trace at mu = 0; large mu is always stable, so the
        # direct rule changes its answer at least once in between.
        values[1] += 1.0 + values[0] ** 2 + sum(values[2:6]) / 2.0
    return SystemParams(*values)


lengths = st.floats(0.3, 300.0)


def census_in_blocks_of(block, params, Lx, Ly, max_modes):
    """The census with its private block size patched; None keeps it."""
    with mock.patch.object(spectral, "_CENSUS_BLOCK", block or spectral._CENSUS_BLOCK):
        return unstable_mode_count(params, Lx, Ly, max_modes)


@settings(max_examples=200, deadline=None)
@given(
    params=parameter_sets(),
    Lx=lengths,
    Ly=st.one_of(st.none(), lengths),
    max_modes=st.integers(1, 3000),
    block=st.sampled_from([None, 1, 7, 3001]),
)
def test_census_equals_the_direct_count(params, Lx, Ly, max_modes, block):
    # 3001 is above every max_modes drawn: the census is one block.
    got = census_in_blocks_of(block, params, Lx, Ly, max_modes)
    assert got == reference_unstable_mode_count(params, Lx, Ly, max_modes)


@settings(max_examples=40, deadline=None)
@given(params=parameter_sets(unstable_start=True))
def test_census_equals_the_direct_count_with_modes_on_an_edge(params):
    # Lx = pi j / sqrt(r) puts mode j of an interval on the edge r, and
    # with Ly = Lx the modes (j, 0) and (0, j) of the square both.
    for r in stability_edges(params) + sign_roots(params):
        for j in (1, 2):
            centre = math.pi * j / math.sqrt(r)
            for Lx in (np.nextafter(centre, 0.0), centre, np.nextafter(centre, np.inf)):
                for Ly, count in ((None, j + 2), (Lx, 2 * j * j + 4)):
                    got = unstable_mode_count(params, Lx, Ly, count)
                    assert got == reference_unstable_mode_count(params, Lx, Ly, count)


def first_cut_through_a_tie(Lx, Ly, count):
    """The first mode count from `count` on whose last mode ties the next."""
    mus = neumann_eigenvalues(Lx, Ly, count + 200)
    return next(n for n in range(count, count + 200) if mus[n - 1] == mus[n])


def test_census_equals_the_direct_count_past_the_unstable_band():
    # Weak diffusion on the unit square, or the interval of side pi: the
    # low modes are unstable, the high ones stable, so the census sees
    # both classes.
    params = SystemParams(beta=5.9, a=3e-5, b=5e-5, c=2e-5, d=7e-5)
    tie = first_cut_through_a_tie(math.pi, math.pi, 20000)
    for Ly, max_modes, block in (
        (math.pi, 20000, None),
        # mu_jk = mu_kj on the square: the last mode counted has a twin
        # that is not, and blocks of 7 split tie groups too.
        (math.pi, tie, None),
        (math.pi, tie, 7),
        # The interval, over several blocks.
        (None, 20000, None),
    ):
        got = census_in_blocks_of(block, params, math.pi, Ly, max_modes)
        want = reference_unstable_mode_count(params, math.pi, Ly, max_modes)
        assert got == want
        assert 0 < want[1] < max_modes
        assert max_modes > (block or spectral._CENSUS_BLOCK)


@pytest.mark.parametrize("max_modes, budget_mib", [(120_000, 3), (1_000_000, 20)])
def test_census_memory_does_not_grow_past_the_mode_list(max_modes, budget_mib):
    # A draw of the benchmark's scan: the square of side pi.  The box of
    # lattice values the modes are taken from holds about 4/pi values a
    # mode, 8 bytes each: 1.17 MiB at 120,000 modes and 9.72 MiB at
    # 10^6, cut in place to the mode list.  The rest of each budget is
    # the rows and columns of the box and one block of temporaries.
    params = SystemParams(beta=5.9, a=3e-6, b=5e-6, c=2e-6, d=7e-6)
    unstable_mode_count(params, math.pi, math.pi, 10)  # lazy imports first
    tracemalloc.start()
    try:
        unstable_mode_count(params, math.pi, math.pi, max_modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget_mib * 2**20
