"""Symmetries the model has by construction, as oracles that need no
reference code.

- Pair swap: (u, v, a, b, D1, D2) <-> (w, z, c, d, D3, D4) maps the
  system to itself.
- Mirror: reversing a grid axis, under either boundary condition.
- Transpose, with dx and dy swapped too, n x 1 <-> 1 x n included.
- Scaling: lengths times 2 with diffusivities times 4 leaves every
  d_i * mu_j unchanged, so the mode census counts the same modes;
  diffusivities times 4 leave every coupling constant, so the
  feasibility row, which depends on them alone, unchanged; and a series
  times 2^k leaves the analysis unchanged.

Each transformed run does the same float operations on the same
operands as the plain one, so its states, snapshots and probe values
must be bit-equal, and a run that blows up must blow up at the same
step.  Only the record norms sum the nodes in another order.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from b4.cli import parse_config, run_feasibility
from b4.model import BC_TAGS, GridState, SystemParams, stationary_solution
from b4.solver import BlowUpError, SolverConfig, initial_condition, simulate, stability_limit
from b4.spectral import unstable_mode_count
from b4.tsa import albano_dimension, largest_lyapunov
from test_golden import henon_series


@st.composite
def system_params(draw, diffusivity):
    rates = st.floats(0.01, 1.0)
    return SystemParams(
        alpha=draw(st.floats(1.0, 3.0)),
        beta=draw(st.floats(1.0, 7.0)),
        D1=draw(rates),
        D2=draw(rates),
        D3=draw(rates),
        D4=draw(rates),
        a=draw(diffusivity),
        b=draw(diffusivity),
        c=draw(diffusivity),
        d=draw(diffusivity),
    )


@st.composite
def runs(draw):
    """A perturbed uniform state on a small grid, its parameters, and a
    run of 1 to 40 steps at half the stable step, recording every 1 to 5
    steps at a probe node: (state, params, cfg, snapshot_every)."""
    params = draw(system_params(st.floats(1e-3, 0.1)))
    extent = st.sampled_from([3, 4, 5, 6, 7, 1])
    nx, ny = draw(extent), draw(extent)
    spacing = st.floats(0.05, 1.0)
    dx, dy = draw(spacing), draw(spacing)
    state = initial_condition(
        nx,
        ny,
        dx,
        dy,
        stationary_solution(params),
        draw(st.floats(0.01, 0.2)),
        draw(st.integers(0, 2**32)),
        draw(st.sampled_from(BC_TAGS)),
    )
    dt = 0.5 * stability_limit(params, state)
    cfg = SolverConfig(
        dt=dt,
        t_end=draw(st.integers(1, 40)) * dt,
        record_every=draw(st.integers(1, 5)),
        probe=(draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))),
    )
    return state, params, cfg, draw(st.integers(1, 5))


def final(state, params, cfg, snapshot_every):
    """The final fields, or None if the run blows up, with the step it
    blows up at, and the (step, record, snapshot) emissions before."""
    emitted = []

    def emit(*emission):
        emitted.append(emission)

    try:
        fields, step = simulate(state, params, cfg, 0, snapshot_every, emit).data, None
    except BlowUpError as exc:
        fields, step = None, exc.step_index
    return fields, step, emitted


# A sum of n <= 49 non-negative squares taken in another order moves by
# at most (n - 1) 2^-53 relative, under 6e-15, and its root by half
# that; mirror and transpose reorder the record sums (measured: 3e-16).
NORM_ROUNDING = 1e-14


def assert_same_run(got, want, transform, order=(0, 1, 2, 3)):
    """got is the transform of want: final fields, snapshots, probe values,
    minima and maxima bit for bit, with fields in the given order, and the
    record norms within NORM_ROUNDING."""
    (fields, step, emitted), (plain, plain_step, plain_emitted) = got, want
    assert step == plain_step
    if plain is None:
        assert fields is None
    else:
        assert fields.tobytes() == transform(plain).tobytes()
    assert [e[0] for e in emitted] == [e[0] for e in plain_emitted]
    for (_, record, snapshot), (_, plain_record, plain_snapshot) in zip(emitted, plain_emitted):
        assert (snapshot is None) == (plain_snapshot is None)
        if snapshot is not None:
            assert snapshot.data.tobytes() == transform(plain_snapshot.data).tobytes()
        assert (record is None) == (plain_record is None)
        if record is None:
            continue
        assert record.t == plain_record.t
        for name in ("probe_values", "mins", "maxs"):
            assert getattr(record, name) == tuple(getattr(plain_record, name)[i] for i in order)
        for name in ("l2_norms", "grad_l2_norms"):
            want_norms = [getattr(plain_record, name)[i] for i in order]
            assert getattr(record, name) == pytest.approx(want_norms, rel=NORM_ROUNDING, abs=0)


def rebuilt(state, data, transpose=False):
    """A state of data on state's grid, or on its transpose."""
    spacings = (state.dy, state.dx) if transpose else (state.dx, state.dy)
    return GridState(*data.shape[1:], *spacings, *data, bc=state.bc)


@settings(max_examples=40, deadline=None)
@given(run=runs())
def test_pair_swap_gives_the_swapped_state(run):
    state, params, cfg, every = run
    p = params
    swapped = replace(p, D1=p.D3, D2=p.D4, D3=p.D1, D4=p.D2, a=p.c, b=p.d, c=p.a, d=p.b)
    order = [2, 3, 0, 1]
    got = final(rebuilt(state, state.data[order]), swapped, cfg, every)
    assert_same_run(got, final(state, params, cfg, every), lambda data: data[order], order)


@settings(max_examples=40, deadline=None)
@given(run=runs())
def test_mirror_gives_the_mirrored_state(run):
    state, params, cfg, every = run
    plain = final(state, params, cfg, every)
    for axis, extent in ((1, state.nx), (2, state.ny)):
        probe = list(cfg.probe)
        probe[axis - 1] = extent - 1 - probe[axis - 1]
        mirrored = replace(cfg, probe=tuple(probe))
        got = final(rebuilt(state, np.flip(state.data, axis)), params, mirrored, every)
        assert_same_run(got, plain, lambda data: np.flip(data, axis))


@settings(max_examples=40, deadline=None)
@given(run=runs())
def test_transpose_gives_the_transposed_state(run):
    state, params, cfg, every = run
    transposed = rebuilt(state, state.data.transpose(0, 2, 1), transpose=True)
    got = final(transposed, params, replace(cfg, probe=cfg.probe[::-1]), every)
    plain = final(state, params, cfg, every)
    assert_same_run(got, plain, lambda data: data.transpose(0, 2, 1))


@settings(max_examples=15, deadline=None)
@given(
    params=system_params(st.floats(-4.0, -1.0).map(lambda e: 10.0**e)),
    L=st.floats(0.3, 3.1),
    two_d=st.booleans(),
    modes=st.integers(1, 3000),
)
def test_census_counts_are_unchanged_by_scaling(params, L, two_d, modes):
    p = params
    scaled = replace(p, a=4.0 * p.a, b=4.0 * p.b, c=4.0 * p.c, d=4.0 * p.d)
    plain = unstable_mode_count(params, L, L if two_d else None, modes)
    assert unstable_mode_count(scaled, 2.0 * L, 2.0 * L if two_d else None, modes) == plain


@settings(max_examples=20, deadline=None)
@given(abcd=st.lists(st.floats(-8.0, 2.0).map(lambda e: 10.0**e), min_size=4, max_size=4))
# A sweep of the 35 order-6 form matrices read true for these and false
# for them times 4: a 4x4 minor left float64 range.
@example(abcd=[1e-8, 100.0, 0.039982713326139854, 100.0])
# The one unit-diagonal matrix all of them are congruent to has smallest
# eigenvalue 2e-16 here, below the rounding of its entries, and a
# float64 Sylvester check of it read false.
@example(abcd=[100.0, 1.000000000000002e-08, 1.000000000000002e-08, 100.0])
@example(abcd=[0.3327833562072812, 1.4708668709602794e-08, 0.001816693261079634, 86.76583374488847])
def test_feasibility_row_is_unchanged_by_scaling(abcd):
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, factor in enumerate((1.0, 4.0)):
            keys = "".join(f"{name} = {factor * x!r}\n" for name, x in zip("abcd", abcd))
            (path,) = run_feasibility(parse_config(f"{keys}out_dir = {tmp}/{k}\n"))
            rows.append(Path(path).read_bytes())
    assert rows[0] == rows[1]
    # The triple meets all three conditions, which are the signs of the
    # leading minors, so the row is true.
    assert rows[0].endswith(b",true\n")


@pytest.mark.parametrize("samples, seed", [(3000, 1), (2000, 2)])
def test_analysis_is_unchanged_by_scaling_the_series(samples, seed):
    # Times 2^k, every value keeps its mantissa, so the autocorrelation,
    # the pair counts and the chosen m and tau are bit-equal.  The
    # radii, d and lambda1 pass through logs and fits, which round
    # differently (measured: at most 5e-15 relative, d).
    x = henon_series(samples, seed)
    plain = albano_dimension(x)
    plain_lam = largest_lyapunov(plain.embedding)
    for k in (2, -3, 5):
        scaled = albano_dimension(x * 2.0**k)
        assert scaled.C.tobytes() == plain.C.tobytes(), k
        assert scaled.acf.tobytes() == plain.acf.tobytes(), k
        assert (scaled.m_used, scaled.tau) == (plain.m_used, plain.tau), k
        assert scaled.radii == pytest.approx(plain.radii * 2.0**k, rel=1e-13, abs=0), k
        assert scaled.d == pytest.approx(plain.d, rel=1e-13, abs=0), k
        lam = largest_lyapunov(scaled.embedding)
        assert lam == pytest.approx(plain_lam, rel=1e-13, abs=0), k
