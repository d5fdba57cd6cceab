import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from b4 import functionals
from b4.functionals import (
    _condition_terms,
    brqp_matrix,
    build_sequences,
    check_conditions,
    coupling_constants,
    decay_monitor,
    default_sequence_generators,
    eval_Ln,
    feasible_triple,
    form_matrix,
    hn_fields,
    sequences_for_triple,
    shifted_sequences,
    sylvester_minors,
)
from b4.model import GridState


def minor_closed_forms(r, q, p, triple, seqs, a, b, c, d):
    """Closed-form values of the four leading minors of brqp_matrix.

    Independent of the determinant expansion in sylvester_minors; used
    to cross-check it.  seqs must be sequences_for_triple(triple, n):
    the forms involve the generators theta2, sigma2, rho2 of triple.
    """
    A = coupling_constants(a, b, c, d)
    theta2, sigma2, rho2 = triple
    lam, vee, gam = _condition_terms(A, theta2, sigma2, rho2)
    th, sg, rh = seqs
    t = theta2 - A.A12**2
    d1 = a * rh[p + 2] * sg[q + 2] * th[r + 2]
    d2 = a * b * rh[p + 2] ** 2 * sg[q + 2] ** 2 * th[r + 1] ** 2 * t
    d3 = (
        a * b * c
        * rh[p + 2] ** 3
        * sg[q + 2]
        * sg[q + 1] ** 2
        * th[r + 1] ** 2
        * th[r]
        * lam
    )
    d4 = (
        a * b * c * d
        * rh[p + 2] ** 2
        * rh[p + 1] ** 2
        * sg[q + 1] ** 4
        * th[r + 1] ** 2
        * th[r] ** 2
        * (lam * vee - gam**2)
        / t
    )
    return d1, d2, d3, d4


def bordered_minor_parts(M):
    """The (P, Q, R) combination whose PQ - R^2 equals a scaled det.

    For a symmetric 4x4 matrix with entries m_ij,
      m11^2 * (m11*m22 - m12^2) * det M == P*Q - R^2
    with P, Q, R the three bordered 2x2-style combinations below.
    """
    m = np.asarray(M, float)
    d12 = m[0, 0] * m[1, 1] - m[0, 1] ** 2
    b13 = m[0, 0] * m[1, 2] - m[0, 1] * m[0, 2]
    b14 = m[0, 0] * m[1, 3] - m[0, 1] * m[0, 3]
    P = d12 * (m[0, 0] * m[2, 2] - m[0, 2] ** 2) - b13**2
    Q = d12 * (m[0, 0] * m[3, 3] - m[0, 3] ** 2) - b14**2
    R = d12 * (m[0, 0] * m[2, 3] - m[0, 2] * m[0, 3]) - b13 * b14
    return P, Q, R


def test_coupling_constants_basics():
    A = coupling_constants(0.3, 0.3, 0.3, 0.3)
    assert astuple(A) == (1.0,) * 6
    assert coupling_constants(1, 4, 1, 4).A12 == 1.25
    got = coupling_constants(1e-6, 2e-6, 3e-6, 4e-6)
    assert got.A12 == pytest.approx(3 / (2 * math.sqrt(2)), rel=1e-12)
    assert got.A34 == pytest.approx(7 / (2 * math.sqrt(12)), rel=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b, c, d = rng.uniform(1e-3, 10, 4)
        assert min(astuple(coupling_constants(a, b, c, d))) >= 1.0
    with pytest.raises(ValueError):
        coupling_constants(1, 0, 1, 1)


def test_check_conditions_equal_diffusivities():
    A = coupling_constants(1, 1, 1, 1)
    rep = check_conditions(A, 2.0, 2.0, 2.0)
    assert rep.all_pass
    assert (rep.margin1, rep.margin2, rep.margin3) == (1.0, 1.0, 2.0)


def test_check_conditions_boundary_is_strict():
    A = coupling_constants(1, 1, 1, 1)
    rep = check_conditions(A, 1.0, 2.0, 2.0)
    assert not rep.cond1


def test_feasible_triple_self_consistency():
    cases = [
        (1, 1, 1, 1),
        (1, 100, 1, 100),
        (1e-6, 2e-6, 3e-6, 4e-6),
        (0.37, 2.2, 0.011, 5.0),
    ]
    for quad in cases:
        A = coupling_constants(*quad)
        triple = feasible_triple(A)
        assert check_conditions(A, *triple).all_pass


def test_feasible_triple_equal_diffusivities_value():
    A = coupling_constants(2, 2, 2, 2)
    theta2, sigma2, rho2 = feasible_triple(A)
    assert theta2 == 2.0
    assert sigma2 == 2.0
    assert rho2 == 2.0


# Uniform over 1e-6..1e-5 as in the benchmark's scan draws, uniform over
# 1e-3..1, and log-uniform over 1e-8..1e2.
SCAN_RANGE = st.floats(1e-6, 1e-5)
MIDDLE_RANGE = st.floats(1e-3, 1.0)
WIDE_RANGE = st.floats(-8.0, 2.0).map(lambda e: 10.0**e)


@st.composite
def diffusivities(draw, diffusivity):
    """Four diffusivities from one range, some of them repeated."""
    pool = draw(st.lists(diffusivity, min_size=1, max_size=4))
    return [draw(st.sampled_from(pool)) for _ in range(4)]


def margin_targets(A, triple):
    """(lam, e13^2 + 1) and (lam * vee, 2 gam^2 + 1): the margin each
    generator of feasible_triple is the smallest to reach."""
    lam, vee, gam = _condition_terms(A, *triple)
    e13 = A.A13 - A.A12 * A.A23
    return (lam, e13**2 + 1.0), (lam * vee, 2.0 * gam**2 + 1.0)


@settings(max_examples=300, deadline=None)
@given(abcd=st.one_of(diffusivities(SCAN_RANGE), diffusivities(MIDDLE_RANGE)))
def test_feasible_triple_meets_its_margin_targets(abcd):
    A = coupling_constants(*abcd)
    for value, target in margin_targets(A, feasible_triple(A)):
        assert value >= target * (1.0 - 1e-12)


@settings(max_examples=300, deadline=None)
@given(
    abcd=st.one_of(
        diffusivities(SCAN_RANGE), diffusivities(MIDDLE_RANGE), diffusivities(WIDE_RANGE)
    )
)
def test_feasible_triple_is_strict_and_minimal(abcd):
    # On the wide range the lam * vee target can miss by a few parts in
    # a million, from cancellation in vee, but every condition holds.
    A = coupling_constants(*abcd)
    theta2, sigma2, rho2 = feasible_triple(A)
    report = check_conditions(A, theta2, sigma2, rho2)
    assert report.cond1 and report.cond2 and report.cond3
    lowered = 1.0 - 1e-9
    (lam, lam_target), _ = margin_targets(A, (theta2, sigma2 * lowered, rho2))
    assert lam < lam_target
    if rho2 > 1.0:
        _, (product, product_target) = margin_targets(A, (theta2, sigma2, rho2 * lowered))
        assert product < product_target


@settings(max_examples=300, deadline=None)
@given(
    abcd=st.one_of(
        diffusivities(SCAN_RANGE), diffusivities(MIDDLE_RANGE), diffusivities(WIDE_RANGE)
    ),
    factors=st.lists(st.floats(-4.0, 4.0).map(lambda e: 2.0**e), min_size=3, max_size=3),
)
def test_sylvester_on_the_form_matrix_decides_the_conditions(abcd, factors):
    # The feasible triple times 2^-4..2^4, generator by generator, gives
    # feasible and infeasible triples alike.  Each entry of N is off by
    # a few units in 1e-16, which moves its eigenvalues by at most about
    # 2e-15: where one is within 1e-14 of zero, float64 cannot tell.
    A = coupling_constants(*abcd)
    triple = [x2 * f for x2, f in zip(feasible_triple(A), factors)]
    N = form_matrix(A, triple)
    assume(np.min(np.abs(np.linalg.eigvalsh(N))) > 1e-14)
    positive = all(m > 0 for m in sylvester_minors(N))
    assert positive == check_conditions(A, *triple).all_pass


def test_feasible_triple_rejects_a_triple_that_fails_its_check(monkeypatch):
    A = coupling_constants(1, 2, 3, 4)
    failing = check_conditions(A, 1.0, 1.0, 1.0)
    assert not failing.all_pass
    monkeypatch.setattr(functionals, "check_conditions", lambda *args: failing)
    with pytest.raises(ValueError, match="infeasible"):
        feasible_triple(A)


def test_build_sequences_examples():
    assert np.array_equal(build_sequences(1, 1, 1, 5), np.ones(6))
    got = build_sequences(1.0, 0.5, 2.0, 3)
    assert np.allclose(got, [1.0, 0.5, 0.5, 1.0], rtol=0, atol=0)
    with pytest.raises(ValueError):
        build_sequences(-1.0, 0.5, 2.0, 3)
    with pytest.raises(OverflowError):
        build_sequences(1.0, 10.0, 1e40, 30)


def test_sequence_ratio_identity():
    rng = np.random.default_rng(8)
    for _ in range(30):
        x2 = rng.uniform(0.2, 40.0)
        x0, C = default_sequence_generators(x2, 8)
        seq = build_sequences(x0, C, x2, 8)
        ratios = seq[:-2] * seq[2:] / seq[1:-1] ** 2
        assert np.max(np.abs(ratios - x2)) <= 1e-12 * x2
        # consecutive ratios all below one by construction
        assert np.max(seq[1:] / seq[:-1]) < 1.0


def test_brqp_matrix_all_ones_collapses():
    seqs = (np.ones(9), np.ones(9), np.ones(9))
    B = brqp_matrix(0, 0, 0, seqs, 1, 1, 1, 1)
    assert np.array_equal(B, np.ones((4, 4)))
    d1, d2, d3, d4 = sylvester_minors(B)
    assert d1 == 1.0
    assert abs(d2) < 1e-12 and abs(d3) < 1e-12 and abs(d4) < 1e-12


def test_brqp_matrix_index_guards():
    seqs = (np.ones(5), np.ones(5), np.ones(5))
    with pytest.raises(IndexError):
        brqp_matrix(0, 0, 3, seqs, 1, 1, 1, 1)
    with pytest.raises(IndexError):
        brqp_matrix(2, 1, 2, seqs, 1, 1, 1, 1)


def test_sylvester_minors_examples():
    assert sylvester_minors(np.eye(4)) == (1.0, 1.0, 1.0, 1.0)
    got = sylvester_minors(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(got, (1, 2, 6, 24), rtol=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(25):
        G = rng.standard_normal((4, 4))
        assert all(m > 0 for m in sylvester_minors(G.T @ G + np.eye(4)))
    bad = np.eye(4)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        sylvester_minors(bad)


def test_minor_closed_forms_match_determinants():
    rng = np.random.default_rng(6)
    n = 8
    for _ in range(5):
        a, b, c, d = np.exp(rng.uniform(np.log(0.01), np.log(1.0), 4))
        A = coupling_constants(a, b, c, d)
        triple = feasible_triple(A)
        seqs = sequences_for_triple(triple, n)
        for p in range(n - 1):
            for q in range(p + 1):
                for r in range(q + 1):
                    direct = sylvester_minors(brqp_matrix(r, q, p, seqs, a, b, c, d))
                    closed = minor_closed_forms(r, q, p, triple, seqs, a, b, c, d)
                    assert all(m > 0 for m in direct), (r, q, p)
                    for x, y in zip(direct, closed):
                        assert abs(x - y) <= 1e-9 * abs(y), (r, q, p)


def test_bordered_minor_determinant_identity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        M = rng.standard_normal((4, 4))
        M = 0.5 * (M + M.T)
        M[0, 0] = abs(M[0, 0]) + 0.1
        P, Q, R = bordered_minor_parts(M)
        lhs = M[0, 0] ** 2 * (M[0, 0] * M[1, 1] - M[0, 1] ** 2) * np.linalg.det(M)
        rhs = P * Q - R**2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(P * Q), abs(R * R), abs(lhs))


def random_arrays_seqs(rng, n):
    return (
        rng.uniform(0.5, 2.0, n + 1),
        rng.uniform(0.5, 2.0, n + 1),
        rng.uniform(0.5, 2.0, n + 1),
    )


def test_eval_hn_all_ones_is_multinomial_power():
    rng = np.random.default_rng(9)
    for n in range(1, 9):
        seqs = (np.ones(n + 1), np.ones(n + 1), np.ones(n + 1))
        for _ in range(10):
            u, v, w, z = rng.uniform(0.1, 2.0, 4)
            got = hn_at((u, v, w, z), seqs, n)
            want = (u + v + w + z) ** n
            assert abs(got - want) <= 1e-10 * abs(want)


def test_eval_hn_degree_two_expansion():
    # Hand expansion of the n=2 form: ten monomials, mixed ones carrying
    # a factor two, each weighted by its own sequence-entry product.
    rng = np.random.default_rng(10)
    th, sg, rh = random_arrays_seqs(rng, 2)
    for _ in range(20):
        u, v, w, z = rng.uniform(0.1, 2.0, 4)
        want = (
            th[0] * sg[0] * rh[0] * z**2
            + 2 * th[0] * sg[0] * rh[1] * w * z
            + 2 * th[0] * sg[1] * rh[1] * v * z
            + 2 * th[1] * sg[1] * rh[1] * u * z
            + th[0] * sg[0] * rh[2] * w**2
            + 2 * th[0] * sg[1] * rh[2] * v * w
            + 2 * th[1] * sg[1] * rh[2] * u * w
            + th[0] * sg[2] * rh[2] * v**2
            + 2 * th[1] * sg[2] * rh[2] * u * v
            + th[2] * sg[2] * rh[2] * u**2
        )
        got = hn_at((u, v, w, z), (th, sg, rh), 2)
        assert got == pytest.approx(want, rel=1e-12)


FIRST_DERIVATIVE_SHIFTS = {
    "u": (1, 1, 1),
    "v": (0, 1, 1),
    "w": (0, 0, 1),
    "z": (0, 0, 0),
}

SECOND_DERIVATIVE_SHIFTS = {
    ("u", "u"): (2, 2, 2),
    ("u", "v"): (1, 2, 2),
    ("u", "w"): (1, 1, 2),
    ("u", "z"): (1, 1, 1),
    ("v", "v"): (0, 2, 2),
    ("v", "w"): (0, 1, 2),
    ("v", "z"): (0, 1, 1),
    ("w", "w"): (0, 0, 2),
    ("w", "z"): (0, 0, 1),
    ("z", "z"): (0, 0, 0),
}

VARS = ("u", "v", "w", "z")


def hn_at(values, seqs, n):
    return float(hn_fields(*values, seqs, n))


def bump(values, var, h):
    i = VARS.index(var)
    out = list(values)
    out[i] += h
    return out


def test_first_derivative_shift_identities():
    rng = np.random.default_rng(12)
    n = 5
    seqs = random_arrays_seqs(rng, n)
    h = 1e-5
    for _ in range(10):
        x = list(rng.uniform(0.5, 1.5, 4))
        for var, (dr, dq, dp) in FIRST_DERIVATIVE_SHIFTS.items():
            fd = (hn_at(bump(x, var, h), seqs, n) - hn_at(bump(x, var, -h), seqs, n)) / (
                2 * h
            )
            want = n * hn_at(x, shifted_sequences(seqs, dr, dq, dp), n - 1)
            assert abs(fd - want) <= 1e-6 * abs(want)


def test_second_derivative_shift_identities():
    rng = np.random.default_rng(13)
    n = 5
    seqs = random_arrays_seqs(rng, n)
    h = 1e-4
    for _ in range(5):
        x = list(rng.uniform(0.5, 1.5, 4))
        for (va, vb), (dr, dq, dp) in SECOND_DERIVATIVE_SHIFTS.items():
            if va == vb:
                fd = (
                    hn_at(bump(x, va, h), seqs, n)
                    - 2 * hn_at(x, seqs, n)
                    + hn_at(bump(x, va, -h), seqs, n)
                ) / h**2
            else:
                fd = (
                    hn_at(bump(bump(x, va, h), vb, h), seqs, n)
                    - hn_at(bump(bump(x, va, h), vb, -h), seqs, n)
                    - hn_at(bump(bump(x, va, -h), vb, h), seqs, n)
                    + hn_at(bump(bump(x, va, -h), vb, -h), seqs, n)
                ) / (4 * h**2)
            want = n * (n - 1) * hn_at(x, shifted_sequences(seqs, dr, dq, dp), n - 2)
            assert abs(fd - want) <= 1e-4 * abs(want), (va, vb)


def uniform_state(value, nx=4, ny=3, dx=0.5, dy=2.0):
    f = np.full((nx, ny), float(value))
    return GridState(nx, ny, dx, dy, f, f, f, f)


def test_eval_ln_uniform_and_zero():
    # 4*3 cells of area 1.0 -> domain measure 12, fields all 0.7
    st = uniform_state(0.7)
    seqs = (np.ones(4), np.ones(4), np.ones(4))
    got = eval_Ln(st, seqs, 3)
    assert got == pytest.approx((4 * 0.7) ** 3 * 12.0, rel=1e-12)
    assert eval_Ln(uniform_state(0.0), seqs, 3) == 0.0


def test_eval_ln_two_cell_hand_quadrature():
    u = np.array([[1.0], [2.0]])
    v = np.array([[0.5], [1.0]])
    w = np.array([[2.0], [0.25]])
    z = np.array([[1.5], [3.0]])
    st = GridState(2, 1, 0.25, 4.0, u, v, w, z)
    rng = np.random.default_rng(14)
    seqs = random_arrays_seqs(rng, 2)
    want = (
        hn_at((1.0, 0.5, 2.0, 1.5), seqs, 2)
        + hn_at((2.0, 1.0, 0.25, 3.0), seqs, 2)
    ) * 1.0
    assert eval_Ln(st, seqs, 2) == pytest.approx(want, rel=1e-12)


def test_decay_monitor():
    t = np.linspace(0, 30, 400)
    const = decay_monitor(t, np.full(400, 3.7))
    assert const.absorbed and const.plateau == 3.7

    settled = decay_monitor(t, 5.0 * np.exp(-t) + 2.0)
    assert settled.absorbed
    assert settled.plateau == pytest.approx(2.0, rel=0.05)

    growing = decay_monitor(t, 1.0 + t)
    assert not growing.absorbed

    with pytest.raises(ValueError):
        decay_monitor([0.0], [1.0])


def test_sequences_for_triple_returns_generators():
    triple = (4.0, 9.0, 2.5)
    theta, sigma, rho = sequences_for_triple(triple, 6)
    for seq, x2 in zip((theta, sigma, rho), triple):
        assert seq.shape == (7,)
        ratios = seq[:-2] * seq[2:] / seq[1:-1] ** 2
        assert np.max(np.abs(ratios - x2)) <= 1e-12 * x2
    theta0, C_theta = default_sequence_generators(triple[0], 6)
    assert theta[0] == pytest.approx(theta0)
    assert theta[1] / theta[0] == pytest.approx(C_theta)
