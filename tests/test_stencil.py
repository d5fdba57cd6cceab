"""Property test: the solver's stencil against the np.pad reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from b4.model import BC_DIRICHLET0, BC_NEUMANN
from b4.solver import laplacian


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
