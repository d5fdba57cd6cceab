"""The step kernel against the per-field stencil it replaced.

``ReferenceStencil``, ``reference_advance`` and ``reference_record`` are
the kernel as it was before the four fields shared one flat buffer: a
padded (4, nx, ny) stack, the Laplacian differenced field by field, and
the reaction formula written with operators.  The kernel must match
them byte for byte after every step, raise BlowUpError at the same step
with the same message, and leave every padding cell as ``np.pad`` would
make it, so the blow-up check never sees a value the fields do not hold.
That holds for any chunking of the step: ``STEP_BLOCK`` sets speed only.
"""

import contextlib
import math
from dataclasses import astuple
from types import SimpleNamespace
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
    _Stencil,
    stability_limit,
)
from test_model import pair_rates
from test_solver import simulate_records


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


def in_field_order(stencil):
    """The stencil's fields, which it keeps in role order (u, w, v, z), as (u, v, w, z)."""
    return stencil.fields[[0, 2, 1, 3]]


def padded(fields, bc):
    """The fields as np.pad lays them out: the padding the kernel must keep."""
    _, nx, ny = fields.shape
    widths = [(0, 0), (int(nx > 1),) * 2, (int(ny > 1),) * 2]
    return np.pad(fields, widths, mode="reflect" if bc == BC_NEUMANN else "constant")


def blow_up_message(step):
    """None, or the BlowUpError of the step and its fields, NaNs compared as text."""
    try:
        step()
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
    new = _Stencil(data, dx, dy, bc, params)
    assert new.buffer.tobytes() == padded(new.fields, bc).tobytes()
    with np.errstate(all="ignore"):
        for k in range(1, steps + 1):
            want = blow_up_message(lambda: reference_advance(old, params, dt, k))
            got = blow_up_message(lambda: _advance(new, dt, k))
            assert got == want
            assert in_field_order(new).tobytes() == old.fields.tobytes()
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
    new = _Stencil(data, dx, dy, bc, params)
    with np.errstate(all="ignore"), mock.patch.object(solver, "BLOWUP_LIMIT", -1.0):
        for k in range(1, steps + 1):
            want = blow_up_message(lambda: reference_advance(old, params, dt, k))
            got = blow_up_message(lambda: _advance(new, dt, k))
            assert got == want
            assert in_field_order(new).tobytes() == old.fields.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    params=params_strategy,
    shape=st.sampled_from([None, (), (1,), (7,), (3, 4)]),
    scale=st.sampled_from([1.0, 1e3, 1e6]),
    data=st.data(),
)
def test_stacked_reaction_is_bit_equal_to_the_per_field_formula(params, shape, scale, data):
    # shape None draws Python floats; the others arrays of that shape.
    fields = data.draw(arrays(np.float64, (4, *(shape or ())), elements=values)) * scale
    u, v, w, z = fields.tolist() if shape is None else fields
    want = reference_reaction(u, v, w, z, params)
    (f, h), (g, k) = pair_rates((u, w), (v, z), params)
    assert np.shape(f) == np.shape(u)
    assert np.array([f, g, h, k]).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("nx, ny", [(12, 9), (64, 1), (1, 1)])
def test_uniform_stationary_state_stays_exact_for_2000_steps(nx, ny):
    params = SystemParams()
    base = stationary_solution(params).as_tuple()
    state = GridState(nx, ny, 1.0, 1.0, *(np.full((nx, ny), c) for c in base))
    dt = stability_limit(params, state)
    cfg = SolverConfig(dt=dt, t_end=2000 * dt, record_every=1)
    # A padding cell above the stationary peak would raise a false blow-up.
    with mock.patch.object(solver, "BLOWUP_LIMIT", max(base)):
        records, final = simulate_records(state, params, cfg)
    assert len(records) == 2001
    assert final.data.tobytes() == state.data.tobytes()
    assert all(rec.probe_values.as_tuple() == base for rec in records)
    assert all(rec.mins == rec.maxs == base for rec in records)


def test_zero_walls_never_report_a_peak_above_the_interior():
    params = SystemParams(a=0.05, b=0.1, c=0.15, d=0.2)
    rng = np.random.default_rng(5)
    base = np.array(stationary_solution(params).as_tuple()).reshape(4, 1, 1)
    data = base * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, (4, 12, 9)))
    stencil = _Stencil(data, 1.0, 1.0, BC_DIRICHLET0, params)
    dt = stability_limit(params, GridState(12, 9, 1.0, 1.0, *data, bc=BC_DIRICHLET0))
    with mock.patch.object(solver, "BLOWUP_LIMIT", -1.0):
        for k in range(1, 401):
            with pytest.raises(BlowUpError) as info:
                _advance(stencil, dt, k)
            assert info.value.max_abs == float(np.abs(stencil.fields).max())


@pytest.mark.parametrize("nx, ny", [(200, 200), (200, 1), (1, 500), (333, 77)])
def test_stacked_record_is_bit_equal_on_large_grids(nx, ny):
    # Longer rows than the drawn grids, so the pairwise sums recurse deeper.
    rng = np.random.default_rng(nx * ny)
    for bc, scale in ((BC_NEUMANN, 1e-3), (BC_DIRICHLET0, 1e3)):
        stencil = _Stencil(rng.uniform(-1.0, 3.0, (4, nx, ny)) * scale, 0.37, 1.3, bc)
        got = stencil.record(0.5, nx // 3, ny // 2, 0.37, 1.3)
        want = reference_record(0.5, nx // 3, ny // 2, in_field_order(stencil), 0.37, 1.3)
        assert repr(astuple(got)) == repr(astuple(want))


def next_peak(old, params, dt, k, dx, dy, bc):
    """The largest magnitude the reference's next step gives its fields (NaN if any is)."""
    trial = ReferenceStencil(old.fields.copy(), dx, dy, bc)
    with mock.patch.object(solver, "BLOWUP_LIMIT", math.inf):
        blow_up_message(lambda: reference_advance(trial, params, dt, k))
    return float(np.abs(trial.fields).max())


@st.composite
def chunked_runs(draw):
    """A run, a STEP_BLOCK from one padded row up to the whole block, and
    for each step whether the blow-up limit sits just below its peak."""
    run = draw(runs())
    _, nx, ny = run[0].shape
    row = ny + 2 * int(ny > 1)
    block = draw(st.integers(row, (nx + 2 * int(nx > 1)) * row))
    tight = draw(st.lists(st.booleans(), min_size=run[-1], max_size=run[-1]))
    return run, block, tight


@settings(max_examples=200, deadline=None)
@given(run=chunked_runs())
def test_every_chunking_is_bit_equal_to_the_per_field_stencil(run):
    # Each step's limit is its true peak, or the float just below it, so
    # a check that misses the peak node, or sees a node's old value,
    # raises where the reference does not or the other way round.
    (data, dx, dy, bc, params, dt, steps), block, tight = run
    old = ReferenceStencil(data, dx, dy, bc)
    with mock.patch.object(solver, "STEP_BLOCK", block):
        new = _Stencil(data, dx, dy, bc, params)
        with np.errstate(all="ignore"):
            lap = solver.laplacian(data[0], dx, dy, bc)
            assert lap.tobytes() == ReferenceStencil(data, dx, dy, bc).laplacian()[0].tobytes()
    with np.errstate(all="ignore"):
        for k, below in enumerate(tight, 1):
            peak = next_peak(old, params, dt, k, dx, dy, bc)
            limit = np.nextafter(peak, -math.inf) if below else peak
            with mock.patch.object(solver, "BLOWUP_LIMIT", limit):
                want = blow_up_message(lambda: reference_advance(old, params, dt, k))
                got = blow_up_message(lambda: _advance(new, dt, k))
            assert got == want
            assert in_field_order(new).tobytes() == old.fields.tobytes()
            assert new.buffer.tobytes() == padded(new.fields, bc).tobytes()


@pytest.mark.parametrize("bc", [BC_NEUMANN, BC_DIRICHLET0])
def test_large_grid_chunks_are_bit_equal_to_one_chunk(bc):
    params = SystemParams(a=0.05, b=0.1, c=0.15, d=0.2)
    rng = np.random.default_rng(11)
    base = np.array(stationary_solution(params).as_tuple()).reshape(4, 1, 1)
    data = base * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, (4, 200, 200)))
    dt = stability_limit(params, GridState(200, 200, 1.0, 1.0, *data, bc=bc))
    chunked = _Stencil(data, 1.0, 1.0, bc, params)
    with mock.patch.object(solver, "STEP_BLOCK", chunked.buffer.size):
        whole = _Stencil(data, 1.0, 1.0, bc, params)
    assert len(chunked.chunks) > 1 and len(whole.chunks) == 1
    for k in range(1, 51):
        _advance(chunked, dt, k)
        _advance(whole, dt, k)
    assert chunked.buffer.tobytes() == whole.buffer.tobytes()


def arrays_in(value):
    """Every ndarray in value, through tuples, lists and namespaces."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, SimpleNamespace):
        value = list(vars(value).values())
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in arrays_in(item)]
    return []


@pytest.mark.parametrize("nx, ny", [(200, 1), (1, 1), (12, 9)])
def test_a_small_block_is_one_chunk_of_contiguous_views(nx, ny):
    # Strided views would cost every ufunc call of a small grid's step.
    stencil = _Stencil(np.ones((4, nx, ny)), 1.0, 1.0, BC_NEUMANN, SystemParams())
    (chunk,) = stencil.chunks
    # lap_nodes, the nodes without their padding, serves only ``laplacian``.
    views = [getattr(chunk, name) for name in chunk.__slots__ if name != "lap_nodes"]
    found = arrays_in(views)
    assert len(found) > 20
    assert all(a.flags.c_contiguous for a in found)
    # Nor does any ufunc call or dot of a step broadcast an operand, as a
    # (4, 1) column would; 0-d constants are scalars.
    shapes = []

    def spy(real):
        def call(*args):
            shapes.append({np.shape(a) for a in args if np.ndim(a) > 0})
            return real(*args)

        return call

    with contextlib.ExitStack() as stack:
        for name in ("multiply", "add", "subtract", "divide", "abs", "dot"):
            stack.enter_context(mock.patch.object(np, name, spy(getattr(np, name))))
        _advance(stencil, np.array(0.01), 1)
    assert len(shapes) > 15
    assert all(len(call) == 1 for call in shapes), shapes


def test_a_large_block_is_several_chunks():
    stencil = _Stencil(np.ones((4, 200, 200)), 1.0, 1.0, BC_DIRICHLET0, SystemParams())
    assert len(stencil.chunks) > 1
    assert all(c.state.shape[1] <= solver.STEP_BLOCK for c in stencil.chunks)
    # Full-size constants made the 200x200 step slower: its chunks
    # multiply by the (4, 1) columns and hold no constant of a block's size.
    assert stencil.diffusivities.shape == (4, 1)
    for chunk in stencil.chunks:
        constants = chunk.reaction[2][0]
        assert constants.coupling.shape == (4, 1)
        assert all(a.size <= 4 for a in arrays_in(constants))
    # However many chunks, a step's blow-up check is one dot product of
    # the refreshed buffer with itself: on 200x200, and on 12x9 with one
    # padded row per chunk.
    for nx, ny, block in ((200, 200, solver.STEP_BLOCK), (12, 9, 11)):
        for bc in (BC_NEUMANN, BC_DIRICHLET0):
            with mock.patch.object(solver, "STEP_BLOCK", block):
                stencil = _Stencil(np.ones((4, nx, ny)), 1.0, 1.0, bc, SystemParams())
            assert len(stencil.chunks) == (5 if nx == 200 else 12)
            # Every row of the chunks' scratch starts a 64-byte cache line,
            # whatever was allocated before: scratch that started mid-line
            # made the 200x200 step 15-20 % slower.
            for chunk in stencil.chunks:
                for scratch in (chunk.lap, chunk.twice, chunk.pair):
                    assert [row.ctypes.data % 64 for row in scratch] == [0] * 4
            operands = []

            def dot(a, b, real=np.dot):
                operands.append((a, b))
                return real(a, b)

            with mock.patch.object(np, "dot", dot):
                _advance(stencil, np.array(0.01), 1)
            assert len(operands) == 1
            assert all(a is stencil.buffer for a in operands[0])


def step_both(data, dx, dy, bc, params, dt):
    """The kernel's and the reference's first step from data, as blow-up
    messages, and the two stencils."""
    old = ReferenceStencil(data, dx, dy, bc)
    new = _Stencil(data, dx, dy, bc, params)
    with np.errstate(all="ignore"):
        want = blow_up_message(lambda: reference_advance(old, params, dt, 1))
        got = blow_up_message(lambda: _advance(new, dt, 1))
    return got, want, new, old


@pytest.mark.parametrize("nx, ny", [(1, 1), (200, 200)])
@pytest.mark.parametrize("square", ["overflows", "underflows"])
def test_a_limit_whose_square_overflows_or_underflows_is_checked_exactly(nx, ny, square):
    # Overflow: u^2 v = 1e212 in one step, a finite peak whose square, and
    # the limit's, overflow.  Underflow: every value near 1e-200, whose
    # square is zero.  A limit squared, or a sum of squares taken as
    # passing, would miss the float just below the peak.
    if square == "overflows":
        params = SystemParams()
        data = np.ones((4, nx, ny))
        data[0], data[1] = 1e100, 1e12
    else:
        params = SystemParams(alpha=1e-300)
        data = np.full((4, nx, ny), 1e-200)
    dt = 0.1
    peak = next_peak(ReferenceStencil(data, 1.0, 1.0, BC_NEUMANN), params, dt, 1, 1.0, 1.0, BC_NEUMANN)
    assert (1e154 < peak < math.inf) if square == "overflows" else (0 < peak < 1e-154)
    for limit, raises in ((peak, False), (np.nextafter(peak, -math.inf), True)):
        with mock.patch.object(solver, "BLOWUP_LIMIT", limit):
            got, want, new, old = step_both(data, 1.0, 1.0, BC_NEUMANN, params, dt)
        assert got == want
        assert (got is not None) == raises
        assert in_field_order(new).tobytes() == old.fields.tobytes()


@pytest.mark.parametrize("nx, ny", [(12, 9), (200, 200)])
@pytest.mark.parametrize("case", ["negative limit", "nan node"])
def test_a_negative_limit_or_a_nan_node_raises_as_the_reference(nx, ny, case):
    params = SystemParams(a=0.05, b=0.1, c=0.15, d=0.2)
    rng = np.random.default_rng(3)
    data = rng.uniform(0.5, 3.0, (4, nx, ny))
    limit = -1.0 if case == "negative limit" else solver.BLOWUP_LIMIT
    if case == "nan node":
        data[2, nx // 2, ny - 1] = math.nan
    dt = stability_limit(params, GridState(nx, ny, 1.0, 1.0, *data))
    with mock.patch.object(solver, "BLOWUP_LIMIT", limit):
        got, want, new, old = step_both(data, 1.0, 1.0, BC_NEUMANN, params, dt)
    assert want is not None
    assert got == want


def test_a_sum_of_squares_above_the_limit_squared_does_not_raise():
    # Every node is at most the limit, so the step passes, though the
    # root of the sum of squares is far above the limit.
    params = SystemParams()
    rng = np.random.default_rng(4)
    base = np.array(stationary_solution(params).as_tuple()).reshape(4, 1, 1)
    data = base * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, (4, 200, 1)))
    dt = 0.01
    peak = next_peak(ReferenceStencil(data, 1.0, 1.0, BC_NEUMANN), params, dt, 1, 1.0, 1.0, BC_NEUMANN)
    with mock.patch.object(solver, "BLOWUP_LIMIT", peak):
        got, want, new, old = step_both(data, 1.0, 1.0, BC_NEUMANN, params, dt)
    assert got is want is None
    assert math.sqrt(float(np.sum(new.fields**2))) > 10 * peak
    assert in_field_order(new).tobytes() == old.fields.tobytes()


def test_a_hard_diffused_ramp_passes_on_one_dot_over_the_refreshed_buffer():
    # A ramp across each row, diffused hard: every node ends near 1e10,
    # and the padding inside each chunk takes sums near 1e12 during the
    # step.  Checked once, after ``refresh``, the padding holds only
    # zeros and copies of nodes, so one dot over the whole buffer passes
    # the step with no node by node check.
    params = SystemParams(a=1e6)
    data = np.zeros((4, 200, 200))
    data[0] = np.linspace(0.0, 1e8, 200)
    old = ReferenceStencil(data, 1.0, 1.0, BC_NEUMANN)
    new = _Stencil(data, 1.0, 1.0, BC_NEUMANN, params)
    assert blow_up_message(lambda: reference_advance(old, params, 1e-2, 1)) is None
    roots, exact = [], []

    def dot(a, b, real=np.dot):
        total = real(a, b)
        roots.append((a is b is new.buffer, math.sqrt(total)))
        return total

    def spy(nodes, magnitudes):
        exact.append(nodes.shape)
        return np.absolute(nodes, magnitudes)

    with mock.patch.object(np, "dot", dot), mock.patch.object(np, "abs", spy):
        _advance(new, 1e-2, 1)
    assert in_field_order(new).tobytes() == old.fields.tobytes()
    assert len(new.chunks) == 5 and exact == []
    ((whole, root),) = roots
    assert whole and root <= solver.BLOWUP_LIMIT * (1.0 - solver._PRECHECK_MARGIN)
