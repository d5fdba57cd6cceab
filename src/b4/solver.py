"""Explicit finite-difference solver for the four-compartment model.

The scheme is forward Euler in time with a five-point Laplacian in
space.  All four fields advance simultaneously from the previous
state.  No-flux boundaries use ghost-node reflection (the ghost value
mirrors the first interior node), zero boundaries use zero ghosts.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .model import (
    BC_DIRICHLET0,
    BC_NEUMANN,
    BC_TAGS,
    GridState,
    Point4,
    SystemParams,
    check_geometry,
    reaction_fields,
    validate_params,
)

BLOWUP_LIMIT = 1e12

_CHECKPOINT_MAGIC = b"B4CK"
_CHECKPOINT_VERSION = 1
_CHECKPOINT_HEADER = struct.Struct("<4sI10d2q2dBqd")
_BC_CODES = {BC_NEUMANN: 0, BC_DIRICHLET0: 1}
_BC_NAMES = {code: tag for tag, code in _BC_CODES.items()}
_PARAM_ORDER = ("alpha", "beta", "D1", "D2", "D3", "D4", "a", "b", "c", "d")


class BlowUpError(RuntimeError):
    """A field left the trusted range (non-finite or above BLOWUP_LIMIT)."""

    def __init__(self, message, t=None, step_index=None, max_abs=None, field_maxima=None):
        super().__init__(message)
        self.t = t
        self.step_index = step_index
        self.max_abs = max_abs
        self.field_maxima = field_maxima


@dataclass(frozen=True)
class Grid:
    """Grid geometry: extents, spacings and the boundary treatment."""

    nx: int
    ny: int
    dx: float
    dy: float
    bc: str = BC_NEUMANN

    def __post_init__(self):
        check_geometry(self.nx, self.ny, self.dx, self.dy, self.bc)


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    record_every: int = 1
    probe: tuple = (0, 0)

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        ix, iy = self.probe
        if ix < 0 or iy < 0:
            raise ValueError("probe indices must be nonnegative")

    @property
    def total_steps(self):
        """The step index of the last state: t_end over dt, to the nearest step."""
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class ObservableRecord:
    t: float
    probe_values: Point4
    l2_norms: tuple
    grad_l2_norms: tuple
    mins: tuple
    maxs: tuple


@dataclass(frozen=True)
class SimulationResult:
    """Trajectory records plus the probe series at solver resolution."""

    records: list
    probe_series: np.ndarray
    final_state: GridState
    final_step: int


def _check_extent(n):
    if n != 1 and n < 3:
        raise ValueError("simulated directions need at least 3 grid points")


class _Stencil:
    """Five-point Laplacian of a (k, nx, ny) stack of fields.

    The fields live in ``fields``, the interior of a buffer with one
    ghost layer on each side of every direction of extent above one.
    Zero ghosts are never written; no-flux ghosts are refreshed on each
    call to mirror the first interior node.  A direction of extent one
    is skipped.  Each direction's second difference is formed and
    scaled on its own and summed onto zero, in the order of padding
    each field and differencing it axis by axis, so the result is the
    same bit for bit.
    """

    def __init__(self, data, dx, dy, bc):
        k, nx, ny = data.shape
        _check_extent(nx)
        _check_extent(ny)
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
        """The Laplacian of the current fields, in an array reused by every call."""
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


def laplacian(field, dx, dy, bc=BC_NEUMANN):
    """Five-point Laplacian; directions of extent one are skipped."""
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise ValueError("field must be 2-d (use extent 1 for a flat direction)")
    if bc not in BC_TAGS:
        raise ValueError(f"unknown boundary tag {bc!r}")
    return _Stencil(field[None], dx, dy, bc).laplacian()[0]


def stability_limit(params, dx, dy=math.inf):
    """Largest admissible forward-Euler step for these parameters.

    The diffusive bound is the usual one for the five-point stencil;
    the reaction bound is a conservative linearization scale.
    """
    bad = validate_params(params)
    if bad:
        raise ValueError(f"invalid parameters: {', '.join(bad)}")
    inv_h2 = (0.0 if math.isinf(dx) else 1.0 / dx**2) + (
        0.0 if math.isinf(dy) else 1.0 / dy**2
    )
    if inv_h2 == 0.0:
        diffusive = math.inf
    else:
        diffusive = 1.0 / (2.0 * max(params.a, params.b, params.c, params.d) * inv_h2)
    reaction = 0.5 / (params.beta + 1.0 + max(params.D1, params.D2, params.D3, params.D4))
    return min(diffusive, reaction)


def _advance(stencil, params, dt, k):
    """Step k of forward Euler, in place on the stencil's fields.

    All four fields update from the same state.  One reduction over
    the stack checks the result: a NaN anywhere, or a magnitude above
    BLOWUP_LIMIT, raises BlowUpError.
    """
    fields = stencil.fields
    rates = reaction_fields(*fields, params)
    lap = stencil.laplacian()
    lap *= np.array((params.a, params.b, params.c, params.d)).reshape(4, 1, 1)
    for acc, rate in zip(lap, rates):
        acc += rate
    lap *= dt
    fields += lap
    peak = float(np.abs(fields, out=lap).max())
    if not peak <= BLOWUP_LIMIT:
        maxima = tuple(float(np.max(np.abs(f))) for f in fields)
        raise BlowUpError(
            f"blow-up at t={k * dt:g} (step {k}): max |field| = {peak:.3e}, "
            f"per-field maxima {maxima}",
            t=k * dt,
            step_index=k,
            max_abs=peak,
            field_maxima=maxima,
        )


def _state_like(state, data):
    return GridState(state.nx, state.ny, state.dx, state.dy, *data, bc=state.bc)


def step(state, params, dt):
    """One explicit step; all four fields update from the same state."""
    stencil = _Stencil(state.data, state.dx, state.dy, state.bc)
    _advance(stencil, params, dt, 1)
    return _state_like(state, stencil.fields)


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


def _make_record(t, ix, iy, fields, dx, dy):
    cell = dx * dy
    return ObservableRecord(
        t=t,
        probe_values=Point4(*(float(f[ix, iy]) for f in fields)),
        l2_norms=tuple(_l2_norm(f, cell) for f in fields),
        grad_l2_norms=tuple(_grad_l2_norm(f, dx, dy) for f in fields),
        mins=tuple(float(f.min()) for f in fields),
        maxs=tuple(float(f.max()) for f in fields),
    )


def simulate(state0, params, cfg, step_offset=0, snapshot_every=0, on_snapshot=None):
    """Advance state0 to cfg.t_end, recording observables along the way.

    Times are step_index * dt with absolute step indices, so a run
    resumed from step_offset reproduces the uninterrupted trajectory
    bit for bit.  The probe series covers every step from step_offset
    to the final one, inclusive.  t_end is mapped to the nearest whole
    step count, which must lie past step_offset.  With snapshot_every
    set, on_snapshot(state, step_index) receives the state at every
    later step index that it divides, as soon as that step is taken.
    """
    limit = stability_limit(
        params,
        state0.dx if state0.nx > 1 else math.inf,
        state0.dy if state0.ny > 1 else math.inf,
    )
    if cfg.dt > limit:
        raise ValueError(f"dt {cfg.dt:g} exceeds the stability limit {limit:g}")
    ix, iy = cfg.probe
    if not (0 <= ix < state0.nx and 0 <= iy < state0.ny):
        raise ValueError(f"probe {cfg.probe} outside the {state0.nx}x{state0.ny} grid")
    total_steps = cfg.total_steps
    if total_steps <= step_offset:
        raise ValueError(
            f"t_end {cfg.t_end:g} is not past the starting step {step_offset}"
        )

    nsteps = total_steps - step_offset
    dx, dy = state0.dx, state0.dy
    stencil = _Stencil(state0.data, dx, dy, state0.bc)
    fields = stencil.fields
    probe = np.empty((nsteps + 1, 5))
    records = []
    for i in range(nsteps + 1):
        k = step_offset + i
        if i:
            _advance(stencil, params, cfg.dt, k)
        t = k * cfg.dt
        probe[i, 0] = t
        probe[i, 1:] = fields[:, ix, iy]
        if k % cfg.record_every == 0:
            records.append(_make_record(t, ix, iy, fields, dx, dy))
        if i and snapshot_every and k % snapshot_every == 0:
            on_snapshot(_state_like(state0, fields), k)

    return SimulationResult(records, probe, _state_like(state0, fields), total_steps)


def initial_condition(grid, base, amplitude, seed):
    """Uniform base plus seeded uniform noise in [-amplitude, amplitude].

    Values are floored at zero so nonnegative bases stay nonnegative.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-1.0, 1.0, size=(4, grid.nx, grid.ny))
    fields = [
        np.maximum(component + amplitude * noise[i], 0.0)
        for i, component in enumerate(base.as_tuple())
    ]
    return GridState(grid.nx, grid.ny, grid.dx, grid.dy, *fields, bc=grid.bc)


def save_checkpoint(path, state, params, step_index, t):
    """Binary snapshot sufficient for exact resume.

    Layout (little endian): magic "B4CK", version u32, ten parameter
    doubles (alpha, beta, D1..D4, a..d), nx/ny i64, dx/dy doubles,
    boundary code u8, step index i64, time double, then the four field
    arrays as raw row-major doubles.
    """
    header = _CHECKPOINT_HEADER.pack(
        _CHECKPOINT_MAGIC,
        _CHECKPOINT_VERSION,
        *(getattr(params, name) for name in _PARAM_ORDER),
        state.nx,
        state.ny,
        state.dx,
        state.dy,
        _BC_CODES[state.bc],
        step_index,
        t,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(state.data.tobytes())


def load_checkpoint(path):
    """Inverse of save_checkpoint: (state, params, step_index, t)."""
    header_size = _CHECKPOINT_HEADER.size
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < header_size:
        raise ValueError("checkpoint truncated")
    parts = _CHECKPOINT_HEADER.unpack_from(raw)
    magic, version = parts[0], parts[1]
    if magic != _CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file")
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    values = parts[2:12]
    nx, ny = parts[12], parts[13]
    dx, dy = parts[14], parts[15]
    bc_code, step_index, t = parts[16], parts[17], parts[18]
    if bc_code not in _BC_NAMES:
        raise ValueError(f"unknown boundary code {bc_code}")
    count = 4 * nx * ny
    if len(raw) != header_size + count * 8:
        raise ValueError("checkpoint payload size mismatch")
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=header_size)
    params = SystemParams(**dict(zip(_PARAM_ORDER, values)))
    state = GridState(nx, ny, dx, dy, *data.reshape(4, nx, ny), bc=_BC_NAMES[bc_code])
    return state, params, step_index, t
