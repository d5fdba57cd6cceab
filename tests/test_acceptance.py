"""End-to-end acceptance suite.

One test per headline guarantee: exact uniform equilibria, the
polynomial identities behind the energy functionals, positivity of the
quadratic forms, discretization convergence, long-horizon boundedness
with positivity, the cycle-versus-chaos contrast between uncoupled and
spatially coupled media, estimator calibration on signals with known
answers, the attractor-dimension arithmetic, the solver's growth of
single grid modes against the mode matrix, a twin-run Lyapunov oracle
against the exact rate of the linear map, and byte-level determinism
of the command-line runs.

The long integrations make this the slow part of the suite; expect a
couple of minutes wall clock.  Run it alone with

    python3 -m pytest tests/test_acceptance.py -v
"""

import math
import time
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from b4 import tsa
from b4.cli import parse_config, run_simulate
from b4.functionals import (
    brqp_matrix,
    coupling_constants,
    decay_monitor,
    feasible_triple,
    form_matrix,
    hn_fields,
    sequences_for_triple,
    shifted_sequences,
    sylvester_minors,
)
from b4.model import (
    BC_NEUMANN,
    GridState,
    SystemParams,
    check_params,
    stationary_solution,
)
from b4.solver import (
    SolverConfig,
    initial_condition,
    laplacian,
    load_checkpoint,
    simulate,
)
from b4.spectral import lower_bound_base, mode_matrix, unstable_mode_count
from b4.tsa import (
    albano_dimension,
    correlation_dimension,
    correlation_integral,
    embed,
    largest_lyapunov,
)
from test_functionals import bordered_minor_parts, minor_closed_forms
from test_model import pair_rates
from test_solver import step
from test_spectral import extract_Kprime

DT = 1.0 / 24.0

NINE_PARAMS = SystemParams(beta=5.9, a=1e-6, b=2e-6, c=3e-6, d=4e-6)

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


def load_table(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def test_stationary_state_is_an_exact_equilibrium():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        alpha, beta = rng.uniform(0.1, 3.0, 2)
        D1, D2, D3, D4 = rng.uniform(0.01, 0.5, 4)
        a, b, c, d = rng.uniform(1e-6, 1e-2, 4)
        params = SystemParams(alpha, beta, D1, D2, D3, D4, a, b, c, d)
        assert check_params(params) is None
        u, v, w, z = stationary_solution(params)
        (f, h), (g, k) = pair_rates((u, w), (v, z), params)
        worst = max(worst, max(abs(r) for r in (f, g, h, k)))
    assert worst <= 1e-14
    assert time.perf_counter() - t0 < 1.0


FIRST_SHIFTS = {"u": (1, 1, 1), "v": (0, 1, 1), "w": (0, 0, 1), "z": (0, 0, 0)}

SECOND_SHIFTS = {
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
    out = list(values)
    out[VARS.index(var)] += h
    return out


def test_energy_polynomial_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)

    # collapsing every sequence to ones turns the form into a plain power
    for n in range(1, 9):
        ones = (np.ones(n + 1), np.ones(n + 1), np.ones(n + 1))
        for _ in range(10):
            u, v, w, z = rng.uniform(0.1, 2.0, 4)
            got = hn_at((u, v, w, z), ones, n)
            want = (u + v + w + z) ** n
            assert abs(got - want) <= 1e-10 * abs(want)

    # hand expansion of the degree-two form: ten weighted monomials
    th, sg, rh = (rng.uniform(0.5, 2.0, 3) for _ in range(3))
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
        assert abs(got - want) <= 1e-10 * abs(want)

    # first partial derivatives reduce the degree and shift the sequences
    n = 5
    seqs = tuple(rng.uniform(0.5, 2.0, n + 1) for _ in range(3))
    h = 1e-5
    for _ in range(10):
        x = list(rng.uniform(0.5, 1.5, 4))
        for var, shift in FIRST_SHIFTS.items():
            fd = (
                hn_at(bump(x, var, h), seqs, n) - hn_at(bump(x, var, -h), seqs, n)
            ) / (2 * h)
            want = n * hn_at(x, shifted_sequences(seqs, *shift), n - 1)
            assert abs(fd - want) <= 1e-6 * abs(want), var

    # second partials drop the degree twice with the paired shifts
    h = 1e-4
    for _ in range(5):
        x = list(rng.uniform(0.5, 1.5, 4))
        for (va, vb), shift in SECOND_SHIFTS.items():
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
            want = n * (n - 1) * hn_at(x, shifted_sequences(seqs, *shift), n - 2)
            assert abs(fd - want) <= 1e-4 * abs(want), (va, vb)

    assert time.perf_counter() - t0 < 5.0


def test_quadratic_form_positivity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    n = 8
    for _ in range(20):
        a, b, c, d = np.exp(rng.uniform(math.log(0.01), math.log(1.0), 4))
        A = coupling_constants(a, b, c, d)
        triple = feasible_triple(A)
        N = form_matrix(A, triple)
        seqs = sequences_for_triple(triple, n)
        for arr in seqs:
            assert np.max(arr[1:] / arr[:-1]) < 1.0
        for p in range(n - 1):
            for q in range(p + 1):
                for r in range(q + 1):
                    B = brqp_matrix(r, q, p, seqs, a, b, c, d)
                    # B = D N D: each normalised entry is a few roundings
                    # (of 1.1e-16 each) from N's.
                    root = np.sqrt(np.diag(B))
                    assert np.max(np.abs(B / np.outer(root, root) - N)) <= 1e-15, (r, q, p)
                    direct = sylvester_minors(B)
                    assert all(m > 0 for m in direct), (r, q, p)
                    closed = minor_closed_forms(r, q, p, triple, seqs, a, b, c, d)
                    assert abs(direct[1] - closed[1]) <= 1e-9 * abs(closed[1])
                    assert abs(direct[2] - closed[2]) <= 1e-9 * abs(closed[2])

    # factorization of the pivot-weighted determinant of a symmetric matrix
    for _ in range(1000):
        M = rng.standard_normal((4, 4))
        M = 0.5 * (M + M.T)
        M[0, 0] = abs(M[0, 0]) + 0.1
        P, Q, R = bordered_minor_parts(M)
        lhs = M[0, 0] ** 2 * (M[0, 0] * M[1, 1] - M[0, 1] ** 2) * np.linalg.det(M)
        rhs = P * Q - R**2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(P * Q), abs(R * R), abs(lhs))

    assert time.perf_counter() - t0 < 10.0


def test_discretization_convergence_and_euler_oracle():
    # halving the spacing divides the stencil error by about four
    def max_error(nx):
        dx = 1.0 / (nx - 1)
        x = np.arange(nx) * dx
        f = np.cos(np.pi * x).reshape(-1, 1)
        lap = laplacian(f, dx, 1.0, BC_NEUMANN)
        return np.max(np.abs(lap[:, 0] + np.pi**2 * f[:, 0]))

    ratio = max_error(33) / max_error(65)
    assert 3.7 < ratio < 4.3

    # a spatially uniform field with zero diffusion is a scalar ODE
    params = SystemParams(a=0.0, b=0.0, c=0.0, d=0.0)
    start = (2.0, 2.6, 2.1, 2.9)
    fields = [np.full((6, 5), val) for val in start]
    state = GridState(6, 5, 0.5, 0.5, *fields)
    scalar = list(start)
    dt = 1e-3
    for _ in range(1000):
        state = step(state, params, dt)
        (f, h), (g, k) = pair_rates(scalar[::2], scalar[1::2], params)
        scalar = [x + dt * r for x, r in zip(scalar, (f, g, h, k))]
    for field, x in zip(state.data, scalar):
        assert np.max(field) - np.min(field) == 0.0
        assert np.max(np.abs(field - x)) <= 1e-12


LONG_RUN = """
nx = 200
ny = 1
Lx = 199
Ly = 1
t_end = 10000
record_every = 24
snapshot_every = 24000
"""


def test_long_run_stays_bounded_and_positive(tmp_path):
    config = replace(parse_config(LONG_RUN), out_dir=str(tmp_path / "long"))
    written = run_simulate(config)
    names = [p.name for p in written]
    assert names.count("probe.csv") == 1 and names.count("norms.csv") == 1
    assert sum(n.startswith("snapshot_") for n in names) == 11

    header, norms = load_table(tmp_path / "long" / "norms.csv")
    assert norms.shape[0] == 10001
    assert np.all(np.isfinite(norms))

    t = norms[:, 0]
    for name in ("L2_functional", "K2_functional"):
        report = decay_monitor(t, norms[:, header.index(name)])
        assert report.absorbed, name
        assert report.tail_max <= 1.05 * report.plateau

    _, probe = load_table(tmp_path / "long" / "probe.csv")
    assert probe.shape[0] == 10001
    assert np.min(probe[:, 1:]) >= -1e-12

    for path in written:
        if path.name.startswith("snapshot_"):
            _, snap = load_table(path)
            assert np.min(snap[:, 2:]) >= -1e-12

    final_state, _, _, final_t = load_checkpoint(tmp_path / "long" / "checkpoint.ck")
    assert final_t == 10000.0
    assert min(np.min(f) for f in final_state.data) >= -1e-12


def probe_window(state, t_end, probe, t_lo, sub):
    """u at the probe on every sub-th step from t = t_lo (a multiple of sub) on."""
    window = []

    def keep(k, record, snap):
        if snap is not None and k * DT >= t_lo:
            window.append(snap.u[probe])

    cfg = SolverConfig(dt=DT, t_end=t_end, record_every=60000, probe=probe)
    simulate(state, NINE_PARAMS, cfg, snapshot_every=sub, emit=keep)
    return np.array(window)


def dimension_and_rate(x, spacing):
    with mock.patch.object(tsa, "MAX_POINTS", 6000):
        report = albano_dimension(x)
    return report.d, largest_lyapunov(report.embedding, spacing)


def test_uniform_cycle_versus_spatially_coupled_chaos():
    # Without spatial coupling each site settles onto a limit cycle, so
    # the probe shows dimension one and no divergence.  Coupling the
    # sites through diffusion sustains a long irregular transient whose
    # probe separates neighbours exponentially and fills more of the
    # embedding space.  Sub-sample every third solver step so the delay
    # estimate sits well inside the windowed series.
    s0 = u, v, w, z = stationary_solution(NINE_PARAMS)
    displaced = (u + 0.5, v, w + 0.5, z)
    single = initial_condition(1, 1, 1.0, 1.0, displaced, 0.0, seed=0)
    x_uniform = probe_window(single, 2500.0, (0, 0), 500.0, 3)
    d_uniform, lam_uniform = dimension_and_rate(x_uniform, 3 * DT)
    assert abs(lam_uniform) <= 0.05
    assert 0.7 <= d_uniform <= 1.3

    coupled = initial_condition(200, 1, 1.5e-3, 1.0, s0, 0.1, seed=1)
    x_coupled = probe_window(coupled, 2100.0, (100, 0), 100.0, 3)
    d_coupled, lam_coupled = dimension_and_rate(x_coupled, 3 * DT)
    assert lam_coupled > 0.0
    assert d_coupled > d_uniform


def twin_lyapunov(state, params, dt, steps, every=48, eps=1e-8, seed=1, transient=0):
    """Largest Lyapunov exponent of the solver's map, from twin runs.

    One run starts from state, the other from state plus a seeded
    random perturbation of norm eps.  Every ``every`` steps the log of
    the separation's growth is kept, and the second run is moved back to
    distance eps from the first along the separation.  Each segment is one
    ``simulate`` call from its first step (``step_offset``), as a
    resume is.  The first ``transient`` segments are left out of the
    rate, whose unit is per unit time.
    """
    noise = np.random.default_rng(seed).standard_normal(state.data.shape)
    a = state.data
    b = a + eps * noise / np.linalg.norm(noise)
    growth = []
    for start in range(0, steps, every):
        cfg = SolverConfig(dt=dt, t_end=(start + every) * dt)
        a, b = (
            simulate(
                GridState(state.nx, state.ny, state.dx, state.dy, *fields, bc=state.bc),
                params,
                cfg,
                step_offset=start,
            ).data
            for fields in (a, b)
        )
        gap = b - a
        distance = np.linalg.norm(gap)
        growth.append(math.log(distance / eps))
        b = a + gap * (eps / distance)
    return sum(growth[transient:]) / ((len(growth) - transient) * every * dt)


def test_twin_lyapunov_oracle_at_a_stable_uniform_state():
    # At a stable uniform state the twin runs follow the linear map
    # I + dt (L + J) of forward Euler, which the grid's Neumann modes
    # diagonalise: on mode j it is I + dt M(mu_j), with mu_j the
    # discrete Laplacian's eigenvalue.  So lambda1 is exact.
    params = SystemParams(beta=4.5, a=1e-2, b=2e-2, c=3e-2, d=4e-2)
    n = 20
    state = initial_condition(n, 1, 1.0, 1.0, stationary_solution(params), 0.0, seed=0)
    mus = 4.0 * np.sin(np.pi * np.arange(n) / (2 * (n - 1))) ** 2
    exact = max(
        np.log(np.abs(np.linalg.eigvals(np.eye(4) + DT * mode_matrix(mu, params)))).max()
        for mu in mus
    ) / DT
    assert exact == pytest.approx(-0.1678, abs=1e-4)
    # Modes 1 and 2 decay within 0.003 of mode 0, so 100 time units do
    # not separate them and the estimate sits a little below lambda1.
    # Dropping the first 20 time units cut the worst error over seeds
    # 1-8 from 0.011 to 0.009.
    for seed in (1, 2, 3):
        lam = twin_lyapunov(state, params, DT, 2400, seed=seed, transient=10)
        assert abs(lam - exact) <= 0.012, seed


def test_estimator_calibration_on_known_signals():
    t0 = time.perf_counter()

    # a pure tone is a one-dimensional loop spanned by two components
    tone = np.sin(2 * np.pi * np.arange(4000) / 100.0)
    with mock.patch.object(tsa, "MAX_POINTS", 1500):
        report = albano_dimension(tone)
    assert abs(report.d - 1.0) <= 0.15
    assert report.kept_count == 2
    lam_tone = largest_lyapunov(embed(tone, 5, report.tau))
    assert abs(lam_tone) <= 0.02

    # independent planar noise fills the square
    rng = np.random.default_rng(707)
    pts = rng.uniform(0.0, 1.0, (2000, 2))
    radii = np.geomspace(0.01, 0.25, 40)
    fit = correlation_dimension(radii, correlation_integral(pts, radii, 0))
    assert abs(fit.d - 2.0) <= 0.2

    # fully chaotic logistic iteration against its derivative oracle
    x = 0.2
    series = np.empty(3100)
    for i in range(3100):
        series[i] = x
        x = 4.0 * x * (1.0 - x)
    series = series[100:]
    oracle = float(np.mean(np.log(np.abs(4.0 - 8.0 * series))))
    lam_map = largest_lyapunov(embed(series, 2, 1))
    assert abs(lam_map - oracle) <= 0.05
    assert abs(lam_map - math.log(2.0)) <= 0.05

    assert time.perf_counter() - t0 < 60.0


def test_dimension_bound_arithmetic():
    # rational parameters keep the growth/damping quotient exact
    base = lower_bound_base(FRACTION_NINE)
    assert isinstance(base, Fraction)
    assert base == Fraction(152390)

    # the cross-coupling budget stays under the reaction growth headroom
    total_D = 0.0126 + 0.126 + 0.0125 + 0.125
    headroom = 2.0 * (5.9 - 1.0 - 2.0**2)
    assert total_D == pytest.approx(0.2761, abs=1e-12)
    assert headroom == pytest.approx(1.8, abs=1e-12)
    assert total_D < headroom

    # expanding-mode census on the square of side pi, where the mode
    # frequencies are exactly j^2 + k^2, equals a brute lattice count
    # below the trace-positivity threshold (the quotient itself)
    j = np.arange(int(math.isqrt(152390)) + 2)
    oracle = int(np.sum(np.add.outer(j * j, j * j) < 152390))
    trace_count, full_count = unstable_mode_count(
        NINE_PARAMS, math.pi, math.pi, max_modes=oracle + 2000
    )
    assert trace_count == oracle
    assert full_count >= trace_count

    # calibrating the lower-bound prefactor against the observed
    # dimension: 27.54 over the base leaves a prefactor of 1.807e-4.
    # A unit-scale prefactor (0.91 is the figure quoted alongside this
    # parameter set) is over five thousand times too large to be
    # consistent; keep the mismatch pinned instead of rescaling it away.
    kp = extract_Kprime(27.54, NINE_PARAMS, N=2)
    assert kp == pytest.approx(1.807e-4, rel=0.01)
    assert kp * float(base) == pytest.approx(27.54, rel=1e-12)
    assert kp < 0.91 / 5000


@pytest.mark.parametrize(
    "nx, ny, j, k, grows",
    [(64, 1, 1, 0, True), (64, 1, 17, 0, False), (24, 16, 1, 1, True), (24, 16, 5, 4, False)],
)
def test_solver_moves_single_grid_modes_by_the_mode_matrix(nx, ny, j, k, grows):
    """A cosine mode of the grid evolves by (I + dt M(mu))^n, M = mode_matrix.

    On no-flux walls the stencil mirrors the first interior node, so
    cos(pi j i / (nx - 1)) is an exact eigenvector of the discrete
    Laplacian with eigenvalue -mu_j, mu_j = (4 / dx^2) sin^2(pi j / (2 (nx - 1))),
    and a product of such cosines carries mu_j + mu_k.  Seeded at
    amplitude 1e-9 on the uniform equilibrium, its projection after n
    forward-Euler steps is the linear prediction up to rounding and
    terms of order 1e-18.  The test is for Neumann walls only: zero
    walls hold the boundary nodes at zero, so there the uniform state is
    not an equilibrium and the cosines are not eigenvectors.
    """
    params = SystemParams(beta=5.9, a=1e-3, b=2e-3, c=3e-3, d=4e-3)
    Lx, Ly, dt, n = 1.0, 0.7, 0.02, 200
    dx, dy = Lx / (nx - 1), Ly / max(ny - 1, 1)

    def cosine(count, index, spacing):
        if count == 1:
            return np.ones(1), 0.0
        mu = 4.0 / spacing**2 * math.sin(math.pi * index / (2 * (count - 1))) ** 2
        return np.cos(math.pi * index * np.arange(count) / (count - 1)), mu

    (cx, mu_x), (cy, mu_y) = cosine(nx, j, dx), cosine(ny, k, dy)
    phi = np.outer(cx, cy)
    mu = mu_x + mu_y
    base = np.array(stationary_solution(params))
    v0 = 1e-9 * np.array([1.0, -0.5, 0.25, 0.75])
    state = GridState(nx, ny, dx, dy, *(b + v * phi for b, v in zip(base, v0)), bc=BC_NEUMANN)
    final = simulate(state, params, SolverConfig(dt=dt, t_end=n * dt, record_every=n))

    got = np.array([np.sum((f - b) * phi) for f, b in zip(final.data, base)]) / np.sum(phi * phi)
    M = mode_matrix(mu, params)
    want = np.linalg.matrix_power(np.eye(4) + dt * M, n) @ v0
    assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)
    if grows:
        assert np.linalg.eigvals(M).real.max() > 0 and np.linalg.norm(want) > 10 * np.linalg.norm(v0)
    else:
        assert np.linalg.eigvals(M).real.max() < 0 and np.linalg.norm(want) < np.linalg.norm(v0)


SMALL_RUN = """
nx = 64
ny = 1
Lx = 63
Ly = 1
t_end = 40
record_every = 12
snapshot_every = 480
ic_amplitude = 0.001
ic_seed = 11
"""


def test_repeated_runs_are_byte_identical(tmp_path):
    config = parse_config(SMALL_RUN)
    first = run_simulate(replace(config, out_dir=str(tmp_path / "one")))
    second = run_simulate(replace(config, out_dir=str(tmp_path / "two")))
    assert [p.name for p in first] == [p.name for p in second]
    assert sum(p.suffix == ".csv" for p in first) >= 5
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes(), p1.name
