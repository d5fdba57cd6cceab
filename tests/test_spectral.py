import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from b4 import spectral
from b4.model import SystemParams
from b4.spectral import (
    BoundReport,
    dimension_bounds,
    lower_bound_base,
    mode_matrix,
    neumann_eigenvalues,
    unstable_mode_count,
)
from test_mode_census import census_in_blocks_of, reference_unstable_mode_count

NINE_PARAMS = SystemParams(beta=5.9, a=1e-6, b=2e-6, c=3e-6, d=4e-6)


def extract_Kprime(d_observed, params, N):
    """Constant making the lower-bound formula reproduce d_observed."""
    if N not in (1, 2, 3):
        raise ValueError("N must be 1, 2 or 3")
    base = float(lower_bound_base(params))
    if base <= 0:
        raise ValueError("lower-bound base is nonpositive; no constant to extract")
    return d_observed / base ** (N / 2)


FRACTION_NINE = SystemParams(
    alpha=Fraction(2),
    beta=Fraction(59, 10),
    D1=Fraction(126, 10_000),
    D2=Fraction(1260, 10_000),
    D3=Fraction(125, 10_000),
    D4=Fraction(1250, 10_000),
    a=Fraction(1, 10**6),
    b=Fraction(2, 10**6),
    c=Fraction(3, 10**6),
    d=Fraction(4, 10**6),
)


def random_params(rng):
    vals = rng.uniform(0.05, 3.0, 10)
    return SystemParams(*vals)


def test_eigenvalues_start_at_zero_and_sorted():
    rng = np.random.default_rng(1)
    for _ in range(10):
        Lx, Ly = rng.uniform(0.3, 9.0, 2)
        mu = neumann_eigenvalues(Lx, Ly, 40)
        assert mu[0] == 0.0
        assert np.sum(mu == 0.0) == 1
        assert np.all(np.diff(mu) >= 0)
        assert mu.size == 40


def test_eigenvalues_unit_square_prefix():
    mu = neumann_eigenvalues(math.pi, math.pi, 8)
    assert np.allclose(mu, [0, 1, 1, 2, 4, 4, 5, 5], atol=1e-12)


def test_eigenvalues_one_dimensional():
    mu = neumann_eigenvalues(2.0, None, 5)
    want = math.pi**2 * np.arange(5.0) ** 2 / 4.0
    assert np.allclose(mu, want, rtol=1e-15)


def test_eigenvalues_match_brute_enumeration():
    Lx, Ly = 2.3, 0.7
    j = np.arange(201.0)
    grid = math.pi**2 * np.add.outer(j**2 / Lx**2, j**2 / Ly**2)
    oracle = np.sort(grid.ravel())[:500]
    mu = neumann_eigenvalues(Lx, Ly, 500)
    assert np.allclose(mu, oracle, rtol=1e-13)
    # The lattice is enumerated in bands of whole rows of about
    # _CENSUS_BLOCK values: one row per band, a few, or all of them.
    for block in (1, 7, 100, 10**6):
        with mock.patch.object(spectral, "_CENSUS_BLOCK", block):
            assert neumann_eigenvalues(Lx, Ly, 500).tobytes() == mu.tobytes()


def test_eigenvalues_argument_guards():
    with pytest.raises(ValueError):
        neumann_eigenvalues(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        neumann_eigenvalues(-1.0, 1.0, 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_census_rejects_lengths_that_are_not_positive_and_finite(bad):
    # The interval and the rectangle, Lx and Ly: an infinite length gave
    # all-zero eigenvalues, and NaN or inf failed with another error.
    for Lx, Ly in ((bad, None), (bad, 2.0), (2.0, bad)):
        with pytest.raises(ValueError, match="domain lengths must be positive and finite"):
            neumann_eigenvalues(Lx, Ly, 4)
        with pytest.raises(ValueError, match="domain lengths must be positive and finite"):
            unstable_mode_count(SystemParams(), Lx, Ly, 50)


def test_mode_matrix_trace_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = random_params(rng)
        mu = rng.uniform(0, 50)
        got = np.trace(mode_matrix(mu, p))
        want = -(p.a + p.b + p.c + p.d) * mu + 2 * (p.beta - 1 - p.alpha**2) - (
            p.D1 + p.D2 + p.D3 + p.D4
        )
        assert got == pytest.approx(want, rel=1e-12)


def test_mode_spectrum_degenerate_closed_form():
    p = SystemParams(alpha=0, beta=0, D1=0, D2=0, D3=0, D4=0, a=1, b=1, c=1, d=1)
    eigs = np.linalg.eigvals(mode_matrix(0.0, p))
    got = sorted((x.real, x.imag) for x in eigs.astype(complex))
    assert got == [(-1.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (0.0, 0.0)]


def test_mode_spectrum_trace_at_zero_mode():
    M = mode_matrix(0.0, NINE_PARAMS)
    assert np.trace(M) == pytest.approx(1.5239, rel=1e-12)
    assert np.linalg.eigvals(M).real.sum() == pytest.approx(1.5239, rel=1e-8)


def test_mode_spectrum_invariants():
    rng = np.random.default_rng(3)
    for _ in range(40):
        p = random_params(rng)
        mu = rng.uniform(0, 100)
        M = mode_matrix(mu, p)
        trace = np.trace(M)
        eigs = np.linalg.eigvals(M).astype(complex)
        assert abs(eigs.sum() - trace) <= 1e-8 * max(1.0, abs(trace))
        # closed under conjugation
        assert np.allclose(
            np.sort_complex(eigs), np.sort_complex(np.conj(eigs)), atol=1e-10
        )
        # each eigenvalue annihilates the characteristic polynomial
        norm4 = np.linalg.norm(M) ** 4
        for lam in eigs:
            residual = abs(np.linalg.det(M - lam * np.eye(4)))
            assert residual <= 1e-6 * norm4


def lattice_count(threshold, jmax=500):
    j = np.arange(jmax + 1.0)
    return int(np.sum(np.add.outer(j**2, j**2) < threshold))


def test_unstable_counts_sign_inspection():
    quiet = SystemParams(beta=1.0)
    trace_count, full_count = unstable_mode_count(quiet, math.pi, math.pi, 40)
    assert trace_count == 0
    assert full_count >= trace_count


def test_trace_count_matches_lattice_enumeration():
    p = SystemParams(beta=5.9, a=1e-3, b=2e-3, c=3e-3, d=4e-3)
    threshold = 1.5239 / 0.01
    want = lattice_count(threshold, jmax=20)
    reference = reference_unstable_mode_count(p, math.pi, math.pi, 300)
    # Blocks of one mode, of 7, and one block above max_modes.
    for block in (None, 1, 7, 301):
        trace_count, full_count = census_in_blocks_of(block, p, math.pi, math.pi, 300)
        assert trace_count == want
        assert full_count >= trace_count
        assert (trace_count, full_count) == reference

    coarse = SystemParams(beta=5.9, a=0.1, b=0.1, c=0.1, d=0.1)
    trace_count, _ = unstable_mode_count(coarse, math.pi, math.pi, 50)
    assert trace_count == lattice_count(1.5239 / 0.4, jmax=5)


def test_full_count_dominates_trace_count():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = random_params(rng)
        trace_count, full_count = unstable_mode_count(p, math.pi, math.pi, 30)
        assert full_count >= trace_count


def test_trace_count_monotone_in_damping():
    base = dict(beta=5.9, a=1e-3, b=1e-3, c=1e-3, d=1e-3)
    counts_D = [
        unstable_mode_count(SystemParams(D1=d1, **base), math.pi, math.pi, 400)[0]
        for d1 in (0.0126, 0.5, 1.0, 1.7)
    ]
    assert counts_D == sorted(counts_D, reverse=True)
    counts_a = [
        unstable_mode_count(
            SystemParams(beta=5.9, a=a, b=1e-3, c=1e-3, d=1e-3), math.pi, math.pi, 400
        )[0]
        for a in (1e-3, 5e-3, 2e-2, 1e-1)
    ]
    assert counts_a == sorted(counts_a, reverse=True)


def test_lower_bound_base_exact_rational():
    base = lower_bound_base(FRACTION_NINE)
    assert isinstance(base, Fraction)
    assert base == 152390


def test_dimension_bounds_report():
    report = dimension_bounds(FRACTION_NINE, 2, 1, None, 20)
    assert isinstance(report, BoundReport)
    assert report.lower_bound_base == 152390
    assert isinstance(report.lower, Fraction) and report.lower == 152390
    counts = (report.trace_unstable_count, report.full_unstable_count)
    assert counts == unstable_mode_count(FRACTION_NINE, 1, None, 20)

    flat = SystemParams(alpha=2, beta=5.5, D1=0.25, D2=0.25, D3=0.25, D4=0.25)
    assert lower_bound_base(flat) == 0
    assert dimension_bounds(flat, 2, 1, None, 1).lower == 0

    damped = dimension_bounds(SystemParams(beta=1.0), 2, 1, None, 1)
    assert damped.lower == 0

    # upper = |Omega| + 1: the interval's length, or the rectangle's area.
    assert dimension_bounds(SystemParams(), 1, 2.0, None, 1).upper == 3.0
    assert dimension_bounds(SystemParams(), 2, 2.0, 3.0, 1).upper == 7.0

    with pytest.raises(ValueError):
        dimension_bounds(SystemParams(), 4, 1, None, 1)


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
@pytest.mark.parametrize("max_modes", [1, 50])
def test_dimension_bounds_rejects_lengths_that_are_not_positive_and_finite(bad, max_modes):
    for Lx, Ly in ((bad, 2.0), (2.0, bad), (bad, None)):
        with pytest.raises(ValueError, match="positive and finite"):
            dimension_bounds(SystemParams(), 2, Lx, Ly, max_modes)


def test_dimension_bounds_with_mode_counts():
    p = SystemParams(beta=5.9, a=0.1, b=0.1, c=0.1, d=0.1)
    report = dimension_bounds(p, 2, math.pi, math.pi, 50)
    want = unstable_mode_count(p, math.pi, math.pi, 50)
    assert (report.trace_unstable_count, report.full_unstable_count) == want


def test_extract_kprime():
    p = SystemParams(beta=7.0, a=1.0, b=1.0, c=1.0, d=1.0)
    base = float(lower_bound_base(p))
    assert extract_Kprime(base, p, N=2) == pytest.approx(1.0, rel=1e-12)
    assert extract_Kprime(base**0.5, p, N=1) == pytest.approx(1.0, rel=1e-12)

    assert extract_Kprime(27.54, NINE_PARAMS, N=2) == pytest.approx(
        27.54 / 152390, rel=1e-9
    )
    assert extract_Kprime(27.54, NINE_PARAMS, N=2) == pytest.approx(1.807e-4, rel=0.01)
    assert extract_Kprime(27.54, NINE_PARAMS, N=1) == pytest.approx(0.0705, rel=2e-3)

    with pytest.raises(ValueError):
        extract_Kprime(1.0, SystemParams(beta=1.0), N=2)
    with pytest.raises(ValueError):
        extract_Kprime(1.0, NINE_PARAMS, N=5)


@settings(max_examples=300, deadline=None)
@given(
    values=arrays(
        np.float64,
        st.integers(0, 60),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, 1.5, math.inf, -math.inf]), st.floats(allow_nan=False)
        ),
    )
)
def test_sorted_distinct_is_np_unique(values):
    # Bytes, so the zero kept of a run of 0.0 and -0.0 must match too.
    assert spectral._sorted_distinct(values).tobytes() == np.unique(values).tobytes()
