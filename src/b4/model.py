"""Model definition: parameters, states, and reaction terms.

The system couples two Brusselator pairs (u, v) and (w, z) through
linear exchange terms with rates D1..D4, on top of diffusion with
per-field diffusivities a, b, c, d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

BC_NEUMANN = "neumann"
BC_DIRICHLET0 = "dirichlet0"
BC_TAGS = (BC_NEUMANN, BC_DIRICHLET0)


@dataclass(frozen=True)
class SystemParams:
    """The ten model constants.

    alpha is the constant feed rate, beta the control parameter, D1..D4
    the inter-compartment exchange rates and a..d the diffusivities of
    u, v, w, z respectively.  Defaults are the reference oscillatory
    parameter set used throughout the test suite.
    """

    alpha: float = 2.0
    beta: float = 5.5
    D1: float = 0.0126
    D2: float = 0.126
    D3: float = 0.0125
    D4: float = 0.125
    a: float = 1e-6
    b: float = 1e-6
    c: float = 1e-6
    d: float = 1e-6


def check_geometry(nx, ny, dx, dy, bc):
    """Raise ValueError unless the extents, spacings and boundary tag are usable."""
    if nx < 1 or ny < 1:
        raise ValueError("grid extents must be at least 1")
    if not (dx > 0 and math.isfinite(dx)):
        raise ValueError("dx must be positive and finite")
    if not (dy > 0 and math.isfinite(dy)):
        raise ValueError("dy must be positive and finite")
    if bc not in BC_TAGS:
        raise ValueError(f"unknown boundary tag {bc!r}")


@dataclass(frozen=True, init=False)
class GridState:
    """Four scalar fields sampled on an nx-by-ny grid.

    dx and dy are the sample spacings; each sample carries quadrature
    weight dx*dy.  Set ny=1 for one-dimensional runs.  The fields are
    copied into one read-only (4, nx, ny) array, ``data``, so states can
    be shared safely; u, v, w and z are views of its rows.
    """

    nx: int
    ny: int
    dx: float
    dy: float
    data: np.ndarray
    bc: str

    def __init__(self, nx, ny, dx, dy, u, v, w, z, bc=BC_NEUMANN):
        check_geometry(nx, ny, dx, dy, bc)
        data = np.empty((4, nx, ny))
        for i, (name, field) in enumerate(zip("uvwz", (u, v, w, z))):
            field = np.asarray(field, dtype=np.float64)
            if field.shape != (nx, ny):
                raise ValueError(
                    f"field {name!r} has shape {field.shape}, expected {(nx, ny)}"
                )
            data[i] = field
        data.flags.writeable = False
        for name, value in zip(
            ("nx", "ny", "dx", "dy", "data", "bc"), (nx, ny, dx, dy, data, bc)
        ):
            object.__setattr__(self, name, value)

    u = property(lambda self: self.data[0])
    v = property(lambda self: self.data[1])
    w = property(lambda self: self.data[2])
    z = property(lambda self: self.data[3])


def check_params(params):
    """Raise ValueError naming every constant that is not positive and finite."""
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    bad = [name for name, v in values.items() if not (math.isfinite(v) and v > 0)]
    if bad:
        raise ValueError(f"invalid parameters: {', '.join(bad)}")


def reaction_buffers(activators, inhibitors, rates, work, params, coupling):
    """Everything a ``reaction_fields`` pass over these stacks reads or
    writes besides the stacks, so a pass that gets it slices nothing.

    ``rates`` and ``work`` are (4, ...) arrays of the stacks' element
    shape: the rates go into ``rates`` in role order (f, h, g, k), and
    ``work`` is scratch.  ``coupling`` holds the exchange rate of each
    block in role order, (D1, D3, D2, D4), in any shape that broadcasts
    against ``work``.  The other constants of ``params`` are held in the
    form ufuncs take fastest: alpha, beta and beta + 1 as 0-d arrays.
    The partner differences are taken one block at a time, as (partner,
    own, difference) views: a reversed stack would cost each ufunc call
    an iterator, which on small grids costs more than the two extra calls.
    """
    constants = SimpleNamespace(
        alpha=np.array(params.alpha),
        beta=np.array(params.beta),
        beta_1=np.array(params.beta + 1.0),
        coupling=coupling,
    )
    x_diff, y_diff = work[:2], work[2:]
    partners = tuple(
        (stack[1 - i : 2 - i], stack[i : i + 1], diff[i : i + 1])
        for stack, diff in ((activators, x_diff), (inhibitors, y_diff))
        for i in (0, 1)
    )
    return constants, partners, rates, rates[:2], rates[2:], work, x_diff


def reaction_fields(activators, inhibitors, buffers):
    """Elementwise reaction rates of both pairs in one pass: ((f, h), (g, k)).

    ``activators`` stacks (u, w) and ``inhibitors`` stacks (v, z), each
    as two arrays of one shape.  The pair (w, z) follows the formula of
    (u, v) with the pairs' roles swapped and D3, D4 in place of D1, D2,
    so one pass over the stacks x and y, against the stacks reversed,
    gives all four rates:

        (f, h) = alpha - (beta + 1) x + x^2 y + (D1, D3) (x[::-1] - x)
        (g, k) = beta x - x^2 y + (D2, D4) (y[::-1] - y)

    each evaluated left to right, in 13 ufunc calls.  ``buffers`` is the
    ``reaction_buffers`` of these stacks, built once: the call reads the
    constants from it, writes the rates into it and allocates nothing.
    Outputs are passed positionally, which is cheaper per call.
    """
    x, y = activators, inhibitors
    p, partners, rates, feed, drain, work, x_diff = buffers
    # The local terms build up in the rates themselves and the scratch
    # holds beta x, then the differences: few arrays in cache on large grids.
    np.multiply(x, x, feed)
    np.multiply(feed, y, drain)  # x^2 y
    np.multiply(x, p.beta_1, feed)
    np.subtract(p.alpha, feed, feed)
    np.add(feed, drain, feed)
    np.multiply(x, p.beta, x_diff)
    np.subtract(x_diff, drain, drain)
    for partner, own, diff in partners:
        np.subtract(partner, own, diff)
    np.multiply(work, p.coupling, work)
    np.add(rates, work, rates)
    return feed, drain


def stationary_solution(params):
    """The spatially uniform steady state (alpha, beta/alpha, alpha, beta/alpha),
    as a (u, v, w, z) tuple of finite values."""
    if params.alpha <= 0:
        raise ValueError("alpha must be positive")
    point = (params.alpha, params.beta / params.alpha) * 2
    for name, value in zip("uvwz", point):
        if not math.isfinite(value):
            raise ValueError(f"non-finite component {name!r}")
    return point
