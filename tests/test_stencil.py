"""Property test: the solver's stencil against the np.pad reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from b4.model import BC_DIRICHLET0, BC_NEUMANN, SystemParams
from b4.solver import _advance, _Stencil, laplacian


def _axis_second_difference(field, axis, spacing, bc):
    pad = [(0, 0), (0, 0)]
    pad[axis] = (1, 1)
    if bc == BC_NEUMANN:
        padded = np.pad(field, pad, mode="reflect")
    else:
        padded = np.pad(field, pad, mode="constant")
    if axis == 0:
        diff = padded[2:, :] + padded[:-2, :] - 2.0 * padded[1:-1, :]
    else:
        diff = padded[:, 2:] + padded[:, :-2] - 2.0 * padded[:, 1:-1]
    return diff / spacing**2


def reference_laplacian(field, dx, dy, bc):
    """Pad each axis on its own and sum the scaled differences onto zero."""
    out = np.zeros_like(field)
    if field.shape[0] > 1:
        out += _axis_second_difference(field, 0, dx, bc)
    if field.shape[1] > 1:
        out += _axis_second_difference(field, 1, dy, bc)
    return out


extents = st.one_of(st.just(1), st.integers(3, 12))
spacings = st.floats(1e-4, 1e4, allow_nan=False, allow_infinity=False)
values = st.floats(allow_nan=False, allow_infinity=False)
fields = st.tuples(extents, extents).flatmap(
    lambda shape: arrays(np.float64, shape, elements=values)
)


@settings(max_examples=300, deadline=None)
@given(field=fields, dx=spacings, dy=spacings, bc=st.sampled_from([BC_NEUMANN, BC_DIRICHLET0]))
def test_laplacian_is_bit_equal_to_the_pad_reference(field, dx, dy, bc):
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        got = laplacian(field, dx, dy, bc)
        want = reference_laplacian(field, dx, dy, bc)
    assert got.shape == field.shape
    assert got.tobytes() == want.tobytes()


# Small enough that one step of the reference parameters stays finite.
moderate_fields = st.tuples(extents, extents).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))
)


@settings(max_examples=150, deadline=None)
@given(
    field=moderate_fields,
    dx=spacings,
    dy=spacings,
    bc=st.sampled_from([BC_NEUMANN, BC_DIRICHLET0]),
)
def test_a_laplacian_after_a_step_is_bit_equal_to_the_pad_reference(field, dx, dy, bc):
    # A fresh stencil's scratch is zeroed, so only a later call can show
    # the first direction summing onto what ``lap`` held before: here,
    # the step's increment.
    stencil = _Stencil(np.broadcast_to(field, (4, *field.shape)), dx, dy, bc, SystemParams())
    _advance(stencil, 0.01, 1)
    got = np.empty(stencil.fields.shape)
    for chunk in stencil.chunks:
        stencil.laplacian(chunk)
        got[:, chunk.rows] = chunk.lap_nodes
    want = np.array([reference_laplacian(f, dx, dy, bc) for f in stencil.fields])
    assert got.tobytes() == want.tobytes()
