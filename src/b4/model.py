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


def reaction_fields(u, v, w, z, params):
    """Elementwise reaction rates for array or scalar fields.

    Returns the four rates (f, g, h, k) of u, v, w, z in that order.
    """
    p = params
    uuv = u * u * v
    wwz = w * w * z
    f = p.alpha - (p.beta + 1.0) * u + uuv + p.D1 * (w - u)
    g = p.beta * u - uuv + p.D2 * (z - v)
    h = p.alpha - (p.beta + 1.0) * w + wwz + p.D3 * (u - w)
    k = p.beta * w - wwz + p.D4 * (v - z)
    return f, g, h, k


def reaction_terms(point, params):
    """Reaction rates at a single state, as a Point4."""
    f, g, h, k = reaction_fields(point.u, point.v, point.w, point.z, params)
    return Point4(f, g, h, k)


def stationary_solution(params):
    """The spatially uniform steady state (alpha, beta/alpha, alpha, beta/alpha)."""
    if params.alpha <= 0:
        raise ValueError("alpha must be positive")
    ratio = params.beta / params.alpha
    return Point4(params.alpha, ratio, params.alpha, ratio)
