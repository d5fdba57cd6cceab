"""The step kernel against the per-field stencil it replaced.

``ReferenceStencil``, ``reference_advance`` and ``reference_record`` are
the kernel as it was before the four fields shared one flat buffer: a
padded (4, nx, ny) stack, the Laplacian differenced field by field, and
the reaction formula written with operators.  The kernel must match
them byte for byte after every step, raise BlowUpError at the same step
with the same message, and leave every padding cell as ``np.pad`` would
make it, so the blow-up check never sees a value the fields do not hold.
"""

import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from b4 import solver
from b4.model import (
    BC_DIRICHLET0,
    BC_NEUMANN,
    GridState,
    Point4,
    SystemParams,
    stationary_solution,
)
from b4.solver import (
    BlowUpError,
    ObservableRecord,
    SolverConfig,
    _advance,
    _constants,
    _Stencil,
    simulate,
    stability_limit,
)


def reference_reaction(u, v, w, z, p):
    uuv = u * u * v
    wwz = w * w * z
    f = p.alpha - (p.beta + 1.0) * u + uuv + p.D1 * (w - u)
    g = p.beta * u - uuv + p.D2 * (z - v)
    h = p.alpha - (p.beta + 1.0) * w + wwz + p.D3 * (u - w)
    k = p.beta * w - wwz + p.D4 * (v - z)
    return f, g, h, k


class ReferenceStencil:
    """The padded (k, nx, ny) stack, differenced one field at a time."""

    def __init__(self, data, dx, dy, bc):
        k, nx, ny = data.shape
        gx, gy = int(nx > 1), int(ny > 1)
        p = np.zeros((k, nx + 2 * gx, ny + 2 * gy))
        self.fields = p[:, gx : gx + nx, gy : gy + ny]
        self.fields[...] = data
        self._lap = np.empty(data.shape)
        self._pair = np.empty((nx, ny))
        self._twice = np.empty((nx, ny))
        self._axes = []
        if nx > 1:
            inner = slice(gy, gy + ny)
            ghosts = ((p[:, 0, inner], p[:, 2, inner]), (p[:, -1, inner], p[:, -3, inner]))
            self._axes.append((p[:, 2:, inner], p[:, :-2, inner], dx**2, ghosts))
        if ny > 1:
            inner = slice(gx, gx + nx)
            ghosts = ((p[:, inner, 0], p[:, inner, 2]), (p[:, inner, -1], p[:, inner, -3]))
            self._axes.append((p[:, inner, 2:], p[:, inner, :-2], dy**2, ghosts))
        self._mirror = bc == BC_NEUMANN

    def laplacian(self):
        lap, pair, twice = self._lap, self._pair, self._twice
        lap.fill(0.0)
        for ahead, behind, h2, ghosts in self._axes:
            if self._mirror:
                for ghost, mirror in ghosts:
                    ghost[...] = mirror
            for acc, a, b, c in zip(lap, ahead, behind, self.fields):
                np.add(a, b, out=pair)
                np.multiply(c, 2.0, out=twice)
                np.subtract(pair, twice, out=pair)
                np.divide(pair, h2, out=pair)
                acc += pair
        return lap


def reference_advance(stencil, params, dt, k):
    fields = stencil.fields
    rates = reference_reaction(*fields, params)
    lap = stencil.laplacian()
    lap *= np.array((params.a, params.b, params.c, params.d)).reshape(4, 1, 1)
    for acc, rate in zip(lap, rates):
        acc += rate
    lap *= dt
    fields += lap
    peak = float(np.abs(fields, out=lap).max())
    if not peak <= solver.BLOWUP_LIMIT:
        maxima = tuple(float(np.max(np.abs(f))) for f in fields)
        raise BlowUpError(
            f"blow-up at t={k * dt:g} (step {k}): max |field| = {peak:.3e}, "
            f"per-field maxima {maxima}",
            t=k * dt,
            step_index=k,
            max_abs=peak,
            field_maxima=maxima,
        )


def _l2_norm(field, cell_area):
    return math.sqrt(float(np.sum(field * field)) * cell_area)


def _grad_l2_norm(field, dx, dy):
    acc = 0.0
    if field.shape[0] > 1:
        gx = np.diff(field, axis=0) / dx
        acc += float(np.sum(gx * gx))
    if field.shape[1] > 1:
        gy = np.diff(field, axis=1) / dy
        acc += float(np.sum(gy * gy))
    return math.sqrt(acc * dx * dy)


def reference_record(t, ix, iy, fields, dx, dy):
    cell = dx * dy
    return ObservableRecord(
        t=t,
        probe_values=Point4(*(float(f[ix, iy]) for f in fields)),
        l2_norms=tuple(_l2_norm(f, cell) for f in fields),
        grad_l2_norms=tuple(_grad_l2_norm(f, dx, dy) for f in fields),
        mins=tuple(float(f.min()) for f in fields),
        maxs=tuple(float(f.max()) for f in fields),
    )


def padded(fields, bc):
    """The fields as np.pad lays them out: the padding the kernel must keep."""
    _, nx, ny = fields.shape
    widths = [(0, 0), (int(nx > 1),) * 2, (int(ny > 1),) * 2]
    return np.pad(fields, widths, mode="reflect" if bc == BC_NEUMANN else "constant")


def blow_up_message(advance, stencil, params, dt, k):
    """None, or the BlowUpError of the step and its fields, NaNs compared as text."""
    try:
        advance(stencil, params, dt, k)
    except BlowUpError as err:
        return repr((str(err), err.t, err.step_index, err.max_abs, err.field_maxima))
    return None


extents = st.one_of(st.just(1), st.integers(3, 12))
positive = st.floats(1e-3, 10.0)
params_strategy = st.builds(
    SystemParams,
    **{name: positive for name in ("alpha", "beta", "D1", "D2", "D3", "D4")},
    **{name: st.floats(1e-4, 5.0) for name in "abcd"},
)
spacings = st.floats(0.05, 20.0)
# Signed zeros, subnormals and tiny values next to ordinary ones; the
# scale drawn below turns some fields into ones that blow up.
values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-300]),
    st.floats(-4.0, 4.0),
)


@st.composite
def runs(draw):
    nx, ny = draw(extents), draw(extents)
    bc = draw(st.sampled_from([BC_NEUMANN, BC_DIRICHLET0]))
    params = draw(params_strategy)
    dx, dy = draw(spacings), draw(spacings)
    limit = stability_limit(params, GridState(nx, ny, dx, dy, *np.zeros((4, nx, ny)), bc=bc))
    dt = limit * draw(st.floats(0.01, 1.0))
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e3, 1e6]))
    data = draw(arrays(np.float64, (4, nx, ny), elements=values)) * scale
    steps = draw(st.integers(1, 50))
    return data, dx, dy, bc, params, dt, steps


@settings(max_examples=200, deadline=None)
@given(run=runs())
def test_kernel_is_bit_equal_to_the_per_field_stencil(run):
    data, dx, dy, bc, params, dt, steps = run
    _, nx, ny = data.shape
    ix, iy = nx // 2, ny // 2
    old = ReferenceStencil(data, dx, dy, bc)
    new = _Stencil(data, dx, dy, bc)
    constants = _constants(params)
    assert new.buffer.tobytes() == padded(new.fields, bc).tobytes()
    with np.errstate(all="ignore"):
        for k in range(1, steps + 1):
            want = blow_up_message(reference_advance, old, params, dt, k)
            got = blow_up_message(_advance, new, constants, dt, k)
            assert got == want
            assert new.fields.tobytes() == old.fields.tobytes()
            assert new.buffer.tobytes() == padded(new.fields, bc).tobytes()
            if want is not None:
                break
            t = k * dt
            assert repr(astuple(new.record(t, ix, iy, dx, dy))) == repr(
                astuple(reference_record(t, ix, iy, old.fields, dx, dy))
            )


@settings(max_examples=100, deadline=None)
@given(run=runs())
def test_the_blow_up_check_sees_only_the_interior_peak(run):
    # With a negative limit every step raises, after its update, and
    # reports the peak the check saw; it must be the interior's.
    data, dx, dy, bc, params, dt, steps = run
    old = ReferenceStencil(data, dx, dy, bc)
    new = _Stencil(data, dx, dy, bc)
    constants = _constants(params)
    with np.errstate(all="ignore"), mock.patch.object(solver, "BLOWUP_LIMIT", -1.0):
        for k in range(1, steps + 1):
            want = blow_up_message(reference_advance, old, params, dt, k)
            got = blow_up_message(_advance, new, constants, dt, k)
            assert got == want
            assert new.fields.tobytes() == old.fields.tobytes()


@pytest.mark.parametrize("nx, ny", [(12, 9), (64, 1), (1, 1)])
def test_uniform_stationary_state_stays_exact_for_2000_steps(nx, ny):
    params = SystemParams()
    base = stationary_solution(params).as_tuple()
    state = GridState(nx, ny, 1.0, 1.0, *(np.full((nx, ny), c) for c in base))
    dt = stability_limit(params, state)
    cfg = SolverConfig(dt=dt, t_end=2000 * dt, record_every=1)
    # A padding cell above the stationary peak would raise a false blow-up.
    with mock.patch.object(solver, "BLOWUP_LIMIT", max(base)):
        result = simulate(state, params, cfg)
    assert len(result.records) == 2001
    assert result.final_state.data.tobytes() == state.data.tobytes()
    assert all(rec.probe_values.as_tuple() == base for rec in result.records)
    assert all(rec.mins == rec.maxs == base for rec in result.records)


def test_zero_walls_never_report_a_peak_above_the_interior():
    params = SystemParams(a=0.05, b=0.1, c=0.15, d=0.2)
    rng = np.random.default_rng(5)
    base = np.array(stationary_solution(params).as_tuple()).reshape(4, 1, 1)
    data = base * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, (4, 12, 9)))
    stencil = _Stencil(data, 1.0, 1.0, BC_DIRICHLET0)
    constants = _constants(params)
    dt = stability_limit(params, GridState(12, 9, 1.0, 1.0, *data, bc=BC_DIRICHLET0))
    with mock.patch.object(solver, "BLOWUP_LIMIT", -1.0):
        for k in range(1, 401):
            with pytest.raises(BlowUpError) as info:
                _advance(stencil, constants, dt, k)
            assert info.value.max_abs == float(np.abs(stencil.fields).max())


@pytest.mark.parametrize("nx, ny", [(200, 200), (200, 1), (1, 500), (333, 77)])
def test_stacked_record_is_bit_equal_on_large_grids(nx, ny):
    # Longer rows than the drawn grids, so the pairwise sums recurse deeper.
    rng = np.random.default_rng(nx * ny)
    for bc, scale in ((BC_NEUMANN, 1e-3), (BC_DIRICHLET0, 1e3)):
        stencil = _Stencil(rng.uniform(-1.0, 3.0, (4, nx, ny)) * scale, 0.37, 1.3, bc)
        got = stencil.record(0.5, nx // 3, ny // 2, 0.37, 1.3)
        want = reference_record(0.5, nx // 3, ny // 2, stencil.fields, 0.37, 1.3)
        assert repr(astuple(got)) == repr(astuple(want))
