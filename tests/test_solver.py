import math
import struct
import tracemalloc

import numpy as np
import pytest

from b4 import solver as solver_module
from b4.model import (
    BC_DIRICHLET0,
    BC_NEUMANN,
    GridState,
    SystemParams,
    stationary_solution,
)
from b4.solver import (
    BlowUpError,
    SolverConfig,
    _advance,
    _state_like,
    _Stencil,
    initial_condition,
    laplacian,
    load_checkpoint,
    save_checkpoint,
    simulate,
    stability_limit,
)
from test_model import pair_rates

TABLE_PARAMS = SystemParams()


def step(state, params, dt):
    """One explicit step of the solver's kernel; all four fields update
    from the same state."""
    stencil = _Stencil(state.data, state.dx, state.dy, state.bc, params)
    _advance(stencil, dt, 1)
    return _state_like(state, stencil)


def simulate_records(state, params, cfg, step_offset=0):
    """``simulate`` with every record it emits kept: (records, final state)."""
    records = []
    final = simulate(state, params, cfg, step_offset, emit=lambda k, rec, _: records.append(rec))
    return records, final


def uniform_state(values, nx=5, ny=5, dx=1.0, dy=1.0, bc=BC_NEUMANN):
    u, v, w, z = (np.full((nx, ny), float(c)) for c in values)
    return GridState(nx, ny, dx, dy, u, v, w, z, bc)


def test_laplacian_constant_neumann_is_zero():
    f = np.full((6, 4), 3.2)
    assert np.array_equal(laplacian(f, 0.7, 1.3, BC_NEUMANN), np.zeros((6, 4)))


def test_laplacian_exact_on_quadratic_interior():
    dx = 0.25
    x = np.arange(8) * dx
    f = (x**2).reshape(-1, 1)
    lap = laplacian(f, dx, 1.0, BC_NEUMANN)
    assert np.allclose(lap[1:-1, 0], 2.0, rtol=1e-12)


def test_laplacian_matches_hand_stencil():
    rng = np.random.default_rng(5)
    f = rng.uniform(0, 1, (5, 5))
    dx, dy = 0.4, 0.9
    lap = laplacian(f, dx, dy, BC_NEUMANN)
    i, j = 2, 3
    want = (f[i - 1, j] + f[i + 1, j] - 2 * f[i, j]) / dx**2 + (
        f[i, j - 1] + f[i, j + 1] - 2 * f[i, j]
    ) / dy**2
    assert lap[i, j] == pytest.approx(want, rel=1e-13)


def test_laplacian_dirichlet_zero_ghosts():
    c = 1.7
    f = np.full((3, 3), c)
    dx, dy = 0.5, 0.25
    lap = laplacian(f, dx, dy, BC_DIRICHLET0)
    assert lap[1, 1] == 0.0
    assert lap[0, 1] == pytest.approx(-c / dx**2, rel=1e-13)
    assert lap[1, 0] == pytest.approx(-c / dy**2, rel=1e-13)
    assert lap[0, 0] == pytest.approx(-c / dx**2 - c / dy**2, rel=1e-13)


def test_laplacian_second_order_convergence():
    def max_error(nx):
        length = 1.0
        dx = length / (nx - 1)
        x = np.arange(nx) * dx
        f = np.cos(np.pi * x).reshape(-1, 1)
        lap = laplacian(f, dx, 1.0, BC_NEUMANN)
        return np.max(np.abs(lap[:, 0] + np.pi**2 * np.cos(np.pi * x)))

    ratio = max_error(33) / max_error(65)
    assert 3.4 < ratio < 4.6


def test_laplacian_rejects_bad_grids():
    with pytest.raises(ValueError):
        laplacian(np.ones((2, 5)), 1.0, 1.0, BC_NEUMANN)
    with pytest.raises(ValueError):
        laplacian(np.ones((5, 2)), 1.0, 1.0, BC_NEUMANN)
    with pytest.raises(ValueError):
        laplacian(np.ones((5, 5)), 1.0, 1.0, "periodic")
    for dx in (0.0, math.nan, -1.0):
        with pytest.raises(ValueError, match="dx"):
            laplacian(np.arange(9.0).reshape(3, 3), dx, 1.0, BC_NEUMANN)
    # extent one in one direction is the supported flat mode
    assert laplacian(np.ones((5, 1)), 1.0, 1.0, BC_NEUMANN).shape == (5, 1)


def test_stability_limit_reference_values():
    def limit(params, nx, ny, dx, dy):
        return stability_limit(params, uniform_state((0, 0, 0, 0), nx, ny, dx, dy))

    got = limit(TABLE_PARAMS, 5, 5, 1.0, 1.0)
    assert got == pytest.approx(0.5 / 6.626, rel=1e-12)
    assert 1.0 / 24.0 < got

    fast = SystemParams(a=360.0, b=360.0, c=360.0, d=360.0)
    assert limit(fast, 5, 5, 1.0, 1.0) == pytest.approx(1.0 / 1440.0, rel=1e-12)

    quarter = SystemParams(a=0.25, b=0.25, c=0.25, d=0.25)
    # diffusive component is exactly 1 here, so the reaction scale wins
    assert limit(quarter, 5, 5, 1.0, 1.0) == pytest.approx(0.5 / 6.626, rel=1e-12)

    slow = SystemParams(beta=1e-9, D1=1e-9, D2=1e-9, D3=1e-9, D4=1e-9)
    assert limit(slow, 5, 5, 1e6, 1e6) == pytest.approx(0.5, rel=1e-6)

    chain = SystemParams(a=2.0, b=1.0, c=1.0, d=1.0)
    one_d = limit(chain, 200, 1, 0.1, 1.0)
    assert one_d == pytest.approx(min(0.1**2 / 4.0, 0.5 / 6.626), rel=1e-12)
    # A direction of extent one adds no diffusive bound, whatever its spacing.
    assert limit(chain, 200, 1, 0.1, 1e-9) == one_d
    assert limit(chain, 1, 200, 1e-9, 0.1) == limit(chain, 1, 200, 1.0, 0.1) == one_d
    reaction = 0.5 / (chain.beta + 1.0 + max(chain.D1, chain.D2, chain.D3, chain.D4))
    assert limit(chain, 1, 1, 1e-9, 1e-9) == reaction


def test_step_zero_diffusivities_is_pointwise_euler():
    params = SystemParams(a=0.0, b=0.0, c=0.0, d=0.0)
    rng = np.random.default_rng(11)
    fields = rng.uniform(0.2, 2.0, (4, 4, 3))
    state = GridState(4, 3, 1.0, 1.0, *fields)
    dt = 0.01
    out = step(state, params, dt)
    (f, h), (g, k) = pair_rates(fields[[0, 2]], fields[[1, 3]], params)
    assert np.array_equal(out.u, fields[0] + dt * f)
    assert np.array_equal(out.v, fields[1] + dt * g)
    assert np.array_equal(out.w, fields[2] + dt * h)
    assert np.array_equal(out.z, fields[3] + dt * k)


def test_step_uniform_euler_hand_oracle():
    params = SystemParams(a=0.0, b=0.0, c=0.0, d=0.0, alpha=1.0, beta=2.0)
    state = uniform_state((1.0, 1.0, 1.0, 1.0), nx=3, ny=3)
    out = step(state, params, 0.5)
    # f = 1 - 3 + 1 = -1, g = 2 - 1 = 1, same for the second pair
    assert np.all(out.u == 0.5)
    assert np.all(out.v == 1.5)
    assert np.all(out.w == 0.5)
    assert np.all(out.z == 1.5)


def test_step_keeps_stationary_state():
    state = uniform_state(stationary_solution(TABLE_PARAMS))
    out = step(state, TABLE_PARAMS, 1.0 / 24.0)
    for before, after in zip(state.data, out.data):
        assert np.array_equal(before, after)


def test_step_dirichlet_boundary_coupling():
    params = SystemParams(a=0.5, b=0.5, c=0.5, d=0.5)
    c0 = 1.2
    state = uniform_state((c0, c0, c0, c0), nx=3, ny=3, bc=BC_DIRICHLET0)
    dt = 1e-3
    out = step(state, params, dt)
    (f, _), _ = pair_rates((c0, c0), (c0, c0), params)
    assert out.u[1, 1] == pytest.approx(c0 + dt * float(f), rel=1e-13)
    corner_lap = -c0 / 1.0 - c0 / 1.0
    assert out.u[0, 0] == pytest.approx(c0 + dt * (0.5 * corner_lap + float(f)), rel=1e-13)


def test_step_blowup_guard():
    state = uniform_state((1e5, 1e5, 1e5, 1e5))
    with pytest.raises(BlowUpError) as info:
        step(state, TABLE_PARAMS, 1.0 / 24.0)
    assert info.value.max_abs > 1e12


def test_simulate_from_zero_initial_data():
    grid = (8, 1, 1.0, 1.0)
    state = initial_condition(*grid, (0, 0, 0, 0), 0.0, seed=1)
    cfg = SolverConfig(dt=1.0 / 24.0, t_end=2.0, record_every=12)
    records, final = simulate_records(state, TABLE_PARAMS, cfg)
    assert all(np.all(np.isfinite(f)) for f in final.data)
    assert np.all(final.u > 0) and np.all(final.w > 0)
    assert np.all(final.v > 0) and np.all(final.z > 0)
    for rec in records:
        assert min(rec.l2_norms) >= 0 and min(rec.grad_l2_norms) >= 0


def test_simulate_record_cadence_and_probe_shape():
    grid = (4, 1, 1.0, 1.0)
    state = initial_condition(*grid, stationary_solution(TABLE_PARAMS), 1e-3, seed=3)
    cfg = SolverConfig(dt=1.0 / 24.0, t_end=1.0, record_every=10, probe=(2, 0))
    records, _ = simulate_records(state, TABLE_PARAMS, cfg)
    assert [round(r.t * 24) for r in records] == [0, 10, 20]
    assert cfg.total_steps == 24
    # the recorded probe values are those of the probe node
    assert records[0].probe_values == tuple(state.data[:, 2, 0])


def test_simulate_guards():
    grid = (4, 1, 1.0, 1.0)
    state = initial_condition(*grid, stationary_solution(TABLE_PARAMS), 0.0, seed=0)
    with pytest.raises(ValueError):
        simulate(state, TABLE_PARAMS, SolverConfig(dt=0.1, t_end=1.0))
    for probe in ((9, 0), (-1, 0)):
        with pytest.raises(ValueError, match="outside the 4x1 grid"):
            simulate(
                state, TABLE_PARAMS, SolverConfig(dt=1.0 / 24.0, t_end=1.0, probe=probe)
            )


def test_simulate_blowup_diagnostics():
    grid = (4, 1, 1.0, 1.0)
    state = initial_condition(*grid, (1e5, 1e5, 1e5, 1e5), 0.0, seed=0)
    with pytest.raises(BlowUpError) as info:
        simulate(state, TABLE_PARAMS, SolverConfig(dt=1.0 / 24.0, t_end=1.0))
    err = info.value
    assert err.step_index == 1
    assert err.t == pytest.approx(1.0 / 24.0) and type(err.t) is float
    assert err.max_abs > 1e12
    assert len(err.field_maxima) == 4


def test_simulate_deterministic():
    grid = (16, 1, 0.5, 1.0)
    cfg = SolverConfig(dt=1.0 / 24.0, t_end=3.0, record_every=1)
    base = stationary_solution(TABLE_PARAMS)
    records1, final1 = simulate_records(initial_condition(*grid, base, 1e-3, 7), TABLE_PARAMS, cfg)
    records2, final2 = simulate_records(initial_condition(*grid, base, 1e-3, 7), TABLE_PARAMS, cfg)
    assert len(records1) == 73
    assert records1 == records2
    for f1, f2 in zip(final1.data, final2.data):
        assert np.array_equal(f1, f2)


def test_simulate_keeps_nothing_per_record():
    # 20,001 records go to a callback that keeps none, so the traced peak is
    # the fixed working set of the run; holding the records took about 1 KB
    # each.
    state = initial_condition(8, 1, 1.0, 1.0, stationary_solution(TABLE_PARAMS), 1e-3, seed=4)
    cfg = SolverConfig(dt=1.0 / 24.0, t_end=20000 / 24, record_every=1)
    emitted = 0

    def count(k, rec, snap):
        nonlocal emitted
        emitted += rec is not None

    tracemalloc.start()
    try:
        simulate(state, TABLE_PARAMS, cfg, emit=count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert emitted == 20001
    assert peak < 64 * 1024, peak


def test_simulate_resume_is_bit_identical(tmp_path):
    grid = (12, 1, 0.5, 1.0)
    base = stationary_solution(TABLE_PARAMS)
    state0 = initial_condition(*grid, base, 1e-3, 21)
    full_cfg = SolverConfig(dt=1.0 / 24.0, t_end=4.0, record_every=1)
    full, full_final = simulate_records(state0, TABLE_PARAMS, full_cfg)

    half_cfg = SolverConfig(dt=1.0 / 24.0, t_end=2.0, record_every=1)
    half, half_final = simulate_records(state0, TABLE_PARAMS, half_cfg)
    ck = tmp_path / "state.ck"
    save_checkpoint(ck, half_final, TABLE_PARAMS, half_cfg.total_steps, 2.0)
    loaded_state, loaded_params, step_index, _ = load_checkpoint(ck)
    rest, rest_final = simulate_records(loaded_state, loaded_params, full_cfg, step_index)

    for f1, f2 in zip(full_final.data, rest_final.data):
        assert np.array_equal(f1, f2)
    assert len(full) == 97
    assert half + rest == full


def test_initial_condition_contract():
    grid = (20, 3, 1.0, 1.0)
    base = (2.0, 2.75, 2.0, 2.75)
    flat = initial_condition(*grid, base, 0.0, seed=4)
    assert np.all(flat.u == 2.0) and np.all(flat.v == 2.75)

    a = initial_condition(*grid, base, 1e-3, seed=4)
    b = initial_condition(*grid, base, 1e-3, seed=4)
    c = initial_condition(*grid, base, 1e-3, seed=5)
    for f1, f2 in zip(a.data, b.data):
        assert np.array_equal(f1, f2)
    assert any(not np.array_equal(f1, f3) for f1, f3 in zip(a.data, c.data))
    for field, center in zip(a.data, base):
        assert np.all(field >= center - 1e-3) and np.all(field <= center + 1e-3)

    clamped = initial_condition(*grid, (0.01, 0.01, 0.01, 0.01), 1.0, seed=6)
    assert all(np.all(f >= 0) for f in clamped.data)
    assert any(np.any(f == 0.0) for f in clamped.data)

    with pytest.raises(ValueError):
        initial_condition(*grid, base, -0.1, seed=0)


def test_checkpoint_roundtrip_and_validation(tmp_path):
    rng = np.random.default_rng(9)
    fields = rng.uniform(0, 3, (4, 6, 5))
    state = GridState(6, 5, 0.25, 0.75, *fields, bc=BC_DIRICHLET0)
    path = tmp_path / "run.ck"
    save_checkpoint(path, state, TABLE_PARAMS, 480, 20.0)
    loaded, params, step_index, t = load_checkpoint(path)
    assert (step_index, t) == (480, 20.0)
    assert params == TABLE_PARAMS
    assert (loaded.nx, loaded.ny, loaded.dx, loaded.dy, loaded.bc) == (
        6,
        5,
        0.25,
        0.75,
        BC_DIRICHLET0,
    )
    for f1, f2 in zip(state.data, loaded.data):
        assert np.array_equal(f1, f2)

    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.ck"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_checkpoint(bad)

    trunc = tmp_path / "trunc.ck"
    trunc.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError):
        load_checkpoint(trunc)


def test_load_checkpoint_rejects_empty_grid_and_nan_spacing(tmp_path):
    state = uniform_state((1.0, 1.0, 1.0, 1.0), nx=3, ny=1)
    path = tmp_path / "ok.ck"
    save_checkpoint(path, state, TABLE_PARAMS, 0, 0.0)
    raw = path.read_bytes()
    # header: magic, version, ten parameters, then nx, ny, dx, dy
    nx_at, dx_at, header_size = 88, 104, 137

    def header_with(extents, payload_doubles):
        data = bytearray(raw[: header_size + 8 * payload_doubles])
        data[nx_at : nx_at + 16] = struct.pack("<2q", *extents)
        return data

    nan_dx = bytearray(raw)
    nan_dx[dx_at : dx_at + 8] = struct.pack("<d", math.nan)
    cases = (
        ("empty.ck", header_with((0, 1), 0), "extents must be at least 1"),
        # 4 * nx * ny doubles of payload: the size check alone would pass
        ("negative.ck", header_with((-1, -1), 4), "extents must be at least 1"),
        ("negative_y.ck", header_with((2, -1), 0), "extents must be at least 1"),
        ("nan.ck", nan_dx, "dx must be positive"),
    )
    for name, data, message in cases:
        (tmp_path / name).write_bytes(bytes(data))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(tmp_path / name)


def test_a_checkpoint_write_that_fails_partway_keeps_the_previous_one(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.ck"
    before = uniform_state((1.0, 2.0, 3.0, 4.0), nx=6, ny=5)
    save_checkpoint(path, before, TABLE_PARAMS, 240, 10.0)
    saved = path.read_bytes()

    class FailingFile:
        """Writes the first half of each write, then raises."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

    real_open = open
    monkeypatch.setattr(
        solver_module, "open", lambda p, mode: FailingFile(real_open(p, mode)), raising=False
    )
    after = uniform_state((5.0, 6.0, 7.0, 8.0), nx=6, ny=5)
    with pytest.raises(OSError, match="no space left"):
        save_checkpoint(path, after, TABLE_PARAMS, 480, 20.0)
    monkeypatch.undo()

    assert path.read_bytes() == saved
    state, _, step_index, t = load_checkpoint(path)
    assert (step_index, t) == (240, 10.0)
    assert state.data.tobytes() == before.data.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.ck"]


def test_positivity_short_run():
    grid = (50, 1, 2.0, 1.0)
    state = initial_condition(*grid, stationary_solution(TABLE_PARAMS), 1e-3, seed=2)
    cfg = SolverConfig(dt=1.0 / 24.0, t_end=50.0, record_every=24)
    records, _ = simulate_records(state, TABLE_PARAMS, cfg)
    worst = min(min(rec.mins) for rec in records)
    assert worst >= -1e-12


def test_bounded_norms_insensitive_to_ic_amplitude():
    # Runs long enough for both trajectories to settle onto the same
    # attractor; the supremum of the summed squared norms over the
    # second half should then agree within twenty percent.
    grid = (64, 1, 2.0, 1.0)
    base = stationary_solution(TABLE_PARAMS)
    cfg = SolverConfig(dt=1.0 / 24.0, t_end=500.0, record_every=24)

    def tail_sup(amplitude):
        state = initial_condition(*grid, base, amplitude, seed=13)
        records, _ = simulate_records(state, TABLE_PARAMS, cfg)
        tail = [r for r in records if r.t >= cfg.t_end / 2]
        return max(sum(n**2 for n in r.l2_norms) for r in tail)

    small, large = tail_sup(1e-3), tail_sup(1e-1)
    assert math.isfinite(small) and math.isfinite(large)
    assert abs(small - large) <= 0.2 * max(small, large)
