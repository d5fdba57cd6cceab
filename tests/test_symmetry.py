"""Symmetries the model has by construction, as oracles that need no
reference code.

- Pair swap: (u, v, a, b, D1, D2) <-> (w, z, c, d, D3, D4) maps the
  system to itself.
- Mirror: reversing a grid axis, under either boundary condition.
- Transpose, with dx and dy swapped too, n x 1 <-> 1 x n included.
- Scaling: lengths times 2 with diffusivities times 4 leaves every
  d_i * mu_j unchanged, so the mode census counts the same modes; and
  diffusivities times 4 leave every coupling constant, so the
  feasibility row, which depends on them alone, unchanged.

Each transformed run does the same float operations on the same
operands as the plain one, so the results must be bit-equal, and a run
that blows up must blow up at the same step.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from b4.cli import parse_config, run_feasibility
from b4.functionals import coupling_constants, feasible_triple, form_matrix
from b4.model import BC_TAGS, GridState, SystemParams, stationary_solution
from b4.solver import BlowUpError, SolverConfig, initial_condition, simulate, stability_limit
from b4.spectral import unstable_mode_count


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
    run of 1 to 40 steps at half the stable step: (state, params, cfg)."""
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
    return state, params, SolverConfig(dt=dt, t_end=draw(st.integers(1, 40)) * dt)


def final(state, params, cfg):
    """The final fields, or None if the run blows up, with the step it
    blows up at."""
    try:
        return simulate(state, params, cfg).data, None
    except BlowUpError as exc:
        return None, exc.step_index


def same_run(got, want, transform):
    """Whether got is the transform of want, bit for bit."""
    (fields, step), (plain, plain_step) = got, want
    if plain is None:
        return fields is None and step == plain_step
    return fields is not None and fields.tobytes() == transform(plain).tobytes()


def rebuilt(state, data, transpose=False):
    """A state of data on state's grid, or on its transpose."""
    spacings = (state.dy, state.dx) if transpose else (state.dx, state.dy)
    return GridState(*data.shape[1:], *spacings, *data, bc=state.bc)


@settings(max_examples=40, deadline=None)
@given(run=runs())
def test_pair_swap_gives_the_swapped_state(run):
    state, params, cfg = run
    p = params
    swapped = replace(p, D1=p.D3, D2=p.D4, D3=p.D1, D4=p.D2, a=p.c, b=p.d, c=p.a, d=p.b)
    order = [2, 3, 0, 1]
    got = final(rebuilt(state, state.data[order]), swapped, cfg)
    assert same_run(got, final(state, params, cfg), lambda data: data[order])


@settings(max_examples=40, deadline=None)
@given(run=runs())
def test_mirror_gives_the_mirrored_state(run):
    state, params, cfg = run
    plain = final(state, params, cfg)
    for axis in (1, 2):
        got = final(rebuilt(state, np.flip(state.data, axis)), params, cfg)
        assert same_run(got, plain, lambda data: np.flip(data, axis)), axis


@settings(max_examples=40, deadline=None)
@given(run=runs())
def test_transpose_gives_the_transposed_state(run):
    state, params, cfg = run
    got = final(rebuilt(state, state.data.transpose(0, 2, 1), transpose=True), params, cfg)
    assert same_run(got, final(state, params, cfg), lambda data: data.transpose(0, 2, 1))


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=20, deadline=None)
@given(abcd=st.lists(st.floats(-8.0, 2.0).map(lambda e: 10.0**e), min_size=4, max_size=4))
# The sweep of 35 order-6 matrices that form_matrix replaced read true
# for these and false for them times 4: a 4x4 minor left float64 range.
@example(abcd=[1e-8, 100.0, 0.039982713326139854, 100.0])
# Here the smallest eigenvalue of N is 2e-16, below the rounding of its
# entries, and the row reads false.
@example(abcd=[100.0, 1.000000000000002e-08, 1.000000000000002e-08, 100.0])
def test_feasibility_row_is_unchanged_by_scaling(abcd):
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, factor in enumerate((1.0, 4.0)):
            keys = "".join(f"{name} = {factor * x!r}\n" for name, x in zip("abcd", abcd))
            (path,) = run_feasibility(parse_config(f"{keys}out_dir = {tmp}/{k}\n"))
            rows.append(Path(path).read_bytes())
    assert rows[0] == rows[1]
    # The triple is feasible, so the row is true wherever float64 can
    # tell: each entry of N is off by a few units in 1e-16, which moves
    # its eigenvalues by at most about 2e-15.
    A = coupling_constants(*abcd)
    smallest = np.linalg.eigvalsh(form_matrix(A, feasible_triple(A)))[0]
    assert rows[0].endswith(b",true\n") or smallest < 1e-14
