"""Model definition: parameters, states, and reaction terms.

The system couples two Brusselator pairs (u, v) and (w, z) through
linear exchange terms with rates D1..D4, on top of diffusion with
per-field diffusivities a, b, c, d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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


@dataclass(frozen=True)
class Point4:
    """One concentration state (u, v, w, z).  Entries must be finite;
    negative values are allowed so the type can also hold perturbations."""

    u: float
    v: float
    w: float
    z: float

    def __post_init__(self):
        for name in ("u", "v", "w", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite component {name!r}")

    def as_tuple(self):
        return (self.u, self.v, self.w, self.z)


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

    def fields(self):
        return tuple(self.data)


def validate_params(params):
    """Return the names of constants that violate strict positivity.

    An empty list means the parameter set is valid.  NaNs fail too.
    """
    bad = []
    for f in fields(params):
        value = getattr(params, f.name)
        if not (math.isfinite(value) and value > 0):
            bad.append(f.name)
    return bad


def _pair_rates(x, y, x_partner, y_partner, p, ex, ey, feed, drain, work):
    """Rates of one pair (x, y) coupled to its partner pair, in place.

    feed = alpha - (beta + 1) x + x^2 y + ex (x_partner - x) and
    drain = beta x - x^2 y + ey (y_partner - y), each evaluated left to
    right; ``work`` is scratch of the same shape.  Outputs are passed
    positionally and rotate through the three arrays so that few
    operations write over an input: either costs extra per call, the
    second one sharply for one-node arrays.
    """
    np.multiply(x, x, work)
    np.multiply(work, y, drain)  # x^2 y
    np.multiply(x, p.beta + 1.0, work)
    np.subtract(p.alpha, work, feed)
    np.add(feed, drain, work)
    np.subtract(x_partner, x, feed)
    np.multiply(feed, ex, feed)
    np.add(work, feed, feed)
    np.multiply(x, p.beta, work)
    np.subtract(work, drain, work)
    np.subtract(y_partner, y, drain)
    np.multiply(drain, ey, drain)
    np.add(work, drain, drain)


def reaction_fields(u, v, w, z, params, out=None):
    """Elementwise reaction rates (f, g, h, k) of u, v, w, z.

    The fields are scalars or arrays that broadcast together.  ``out``,
    if given, is five arrays of their shape (or one array with five
    rows): the rates go into the first four, the fifth is scratch, and
    nothing is allocated.  Without it the rates come back as new
    values.  The pair (w, z) follows the formula of (u, v) with the
    pairs' roles swapped and D3, D4 in place of D1, D2, so the formula
    is written once, in ``_pair_rates``.
    """
    p = params
    if out is None:
        shape = np.broadcast(u, v, w, z).shape
        f, g, h, k, work = (np.empty(shape) for _ in range(5))
    else:
        f, g, h, k, work = out
    _pair_rates(u, v, w, z, p, p.D1, p.D2, f, g, work)
    _pair_rates(w, z, u, v, p, p.D3, p.D4, h, k, work)
    if out is None:
        return f[()], g[()], h[()], k[()]
    return f, g, h, k


def reaction_terms(point, params):
    """Reaction rates at a single state, as a Point4."""
    rates = reaction_fields(point.u, point.v, point.w, point.z, params)
    return Point4(*map(float, rates))


def stationary_solution(params):
    """The spatially uniform steady state (alpha, beta/alpha, alpha, beta/alpha)."""
    if params.alpha <= 0:
        raise ValueError("alpha must be positive")
    ratio = params.beta / params.alpha
    return Point4(params.alpha, ratio, params.alpha, ratio)
