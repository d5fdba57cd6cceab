"""Explicit finite-difference solver for the four-compartment model.

The scheme is forward Euler in time with a five-point Laplacian in
space.  All four fields advance simultaneously from the previous
state.  No-flux boundaries use ghost-node reflection (the ghost value
mirrors the first interior node), zero boundaries use zero ghosts.

The four fields live in one contiguous buffer, one ghost-padded grid
after the other (``_Stencil``), and a step allocates nothing: each
elementwise pass runs once over the flat span of all four, or once
per field for the reaction.  The padding inside the span, corners
included, is reset after every update, so the blow-up check sees only
interior values, their mirrors and zeros.  Every operation keeps its
operand order (the Laplacian sums onto zero, x before y), so values
are those of differencing each field on its own, bit for bit.
"""

import contextlib
import math
import os
import struct
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import (
    BC_DIRICHLET0,
    BC_NEUMANN,
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
    """The records at the record cadence and the state at the last step."""

    records: list
    final_state: GridState


def _check_extent(n):
    if n != 1 and n < 3:
        raise ValueError("simulated directions need at least 3 grid points")


class _Stencil:
    """A (k, nx, ny) stack of fields in one flat ghost-padded buffer.

    Each field owns P = (nx + 2 gx)(ny + 2 gy) consecutive entries of
    ``buffer``: a row-major grid with one ghost layer on each side of
    every direction of extent above one (gx, gy are 0 or 1).
    ``fields`` is the interior view.  ``span`` runs from the first
    interior node of the first field to the last of the last field, so
    a neighbour is the entry ±1 or ±(ny + 2 gy) away and one call
    covers all fields.  A pass over the span also writes the padding
    cells inside it; ``refresh`` restores them, so that every padding
    cell holds zero or a copy of an interior value.

    ``laplacian`` sums each direction's scaled second difference onto
    zero, x before y, in the operation order of padding each field and
    differencing it axis by axis, so the result is that one bit for bit
    (signed zeros included).  The Laplacian and its two scratch arrays
    are allocated here, once; the step kernel and ``record`` reuse the
    scratch.  Ufuncs get their outputs positionally and constants as
    0-d arrays: either is cheaper per call than the alternative.
    """

    def __init__(self, data, dx, dy, bc):
        k, nx, ny = data.shape
        _check_extent(nx)
        _check_extent(ny)
        gx, gy = int(nx > 1), int(ny > 1)
        row = ny + 2 * gy
        size = (nx + 2 * gx) * row
        start = gx * row + gy
        span = slice(start, k * size - start)
        self.buffer = np.zeros(k * size)
        grid = self.buffer.reshape(k, nx + 2 * gx, row)
        self.fields = grid[:, gx : gx + nx, gy : gy + ny]
        self.fields[...] = data
        self.span = self.buffer[span]
        lap, twice, pair = (np.zeros(k * size) for _ in range(3))
        self.lap = lap[span]
        self.lap_fields = lap.reshape(grid.shape)[:, gx : gx + nx, gy : gy + ny]
        self.lap_rows = lap.reshape(k, size)[:, start : size - start]
        # The first scratch array holds twice the fields in ``laplacian``
        # and the reaction rates after it, in each field's run: its
        # interior rows as one contiguous run (with the y ghosts between
        # them).  A run of the second is the reaction's own scratch.
        self.rates, self._pair = twice[span], pair[span]
        runs = [slice(i * size + start, (i + 1) * size - start) for i in range(k)]
        self.runs = tuple(self.buffer[r] for r in runs)
        self.rate_runs = tuple(twice[r] for r in runs) + (pair[runs[0]],)
        self._axes = [
            (self.buffer[start + step : span.stop + step],
             self.buffer[start - step : span.stop - step],
             np.array(h**2))
            for n, step, h in ((nx, row, dx), (ny, 1, dy))
            if n > 1
        ]
        self._two, self._zero = np.array(2.0), np.array(0.0)
        # Both walls of a direction as one strided view, and the lines
        # they mirror: the second node from each end (one line if n = 3).
        self._walls = []
        if nx > 1:
            self._walls.append((grid[:, :: nx + 1, :], grid[:, 2 : nx : max(nx - 3, 1), :]))
        if ny > 1:
            self._walls.append((grid[:, :, :: ny + 1], grid[:, :, 2 : ny : max(ny - 3, 1)]))
        self._mirror = bc == BC_NEUMANN
        self.refresh()

    def refresh(self):
        """Reset the padding: zero ghosts, or mirrors of the second node.

        The x walls are whole rows of the padded grid and the y walls
        whole columns, written in that order, so a corner ends up zero
        or, for no-flux walls, the mirror of an x ghost.
        """
        for ghosts, mirrors in self._walls:
            if self._mirror:
                ghosts[...] = mirrors
            else:
                ghosts.fill(0.0)

    def laplacian(self):
        """The Laplacian over the span, in ``lap``, reused by every call."""
        lap, twice, pair = self.lap, self.rates, self._pair
        if not self._axes:
            lap.fill(0.0)
            return lap
        np.multiply(self.span, self._two, twice)
        for i, (ahead, behind, h2) in enumerate(self._axes):
            np.add(ahead, behind, pair)
            np.subtract(pair, twice, pair)
            np.divide(pair, h2, pair)
            np.add(lap if i else self._zero, pair, lap)
        return lap

    def record(self, t, ix, iy, dx, dy):
        """The observables of the current fields, from stacked passes.

        The squares and differences go into the scratch arrays, one
        contiguous row per field, and each row sums the way ``np.sum``
        sums that field alone, so every value is the per-field one bit
        for bit.
        """
        fields = self.fields
        k = len(fields)
        twice, pair = self.rates, self._pair

        def sum_of_squares(values, scratch):
            rows = scratch[: values.size].reshape(values.shape)
            np.multiply(values, values, rows)
            return rows.reshape(k, -1).sum(axis=1)

        l2 = sum_of_squares(fields, twice)
        grad = [0.0] * k
        for h, ahead, behind in (
            (dx, fields[:, 1:], fields[:, :-1]),
            (dy, fields[:, :, 1:], fields[:, :, :-1]),
        ):
            if ahead.size:
                diff = np.subtract(ahead, behind, pair[: ahead.size].reshape(ahead.shape))
                np.divide(diff, h, diff)
                for i, total in enumerate(sum_of_squares(diff, twice).tolist()):
                    grad[i] += total
        cell = dx * dy
        return ObservableRecord(
            t=t,
            probe_values=Point4(*fields[:, ix, iy].tolist()),
            l2_norms=tuple(math.sqrt(s * cell) for s in l2.tolist()),
            grad_l2_norms=tuple(math.sqrt(g * dx * dy) for g in grad),
            mins=tuple(fields.min(axis=(1, 2)).tolist()),
            maxs=tuple(fields.max(axis=(1, 2)).tolist()),
        )


def laplacian(field, dx, dy, bc=BC_NEUMANN):
    """Five-point Laplacian; directions of extent one are skipped."""
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise ValueError("field must be 2-d (use extent 1 for a flat direction)")
    check_geometry(*field.shape, dx, dy, bc)
    stencil = _Stencil(field[None], dx, dy, bc)
    stencil.laplacian()
    return stencil.lap_fields[0].copy()


def stability_limit(params, state):
    """Largest admissible forward-Euler step for these parameters on state's grid.

    The diffusive bound is the usual one for the five-point stencil,
    summed over the directions of extent above one: a direction of
    extent one has no neighbours, so it adds no bound.  The reaction
    bound is a conservative linearization scale.
    """
    bad = validate_params(params)
    if bad:
        raise ValueError(f"invalid parameters: {', '.join(bad)}")
    inv_h2 = (1.0 / state.dx**2 if state.nx > 1 else 0.0) + (
        1.0 / state.dy**2 if state.ny > 1 else 0.0
    )
    if inv_h2 == 0.0:
        diffusive = math.inf
    else:
        diffusive = 1.0 / (2.0 * max(params.a, params.b, params.c, params.d) * inv_h2)
    reaction = 0.5 / (params.beta + 1.0 + max(params.D1, params.D2, params.D3, params.D4))
    return min(diffusive, reaction)


def _constants(params):
    """The parameters as 0-d arrays, which ufuncs take faster than floats,
    plus the diffusivities a, b, c, d as a column: one per field."""
    constants = {name: np.array(getattr(params, name)) for name in _PARAM_ORDER}
    diffusivities = np.array([[params.a], [params.b], [params.c], [params.d]])
    return SimpleNamespace(**constants, diffusivities=diffusivities)


def _advance(stencil, params, dt, k):
    """Step k of forward Euler, in place on the stencil's buffer.

    ``params`` comes from ``_constants``.  All four fields update from
    the same state: the Laplacian over the span, each field's rows
    times its diffusivity, plus the reaction rates, which
    ``reaction_fields`` writes into the first scratch array; that sum
    times dt is added onto the span.  Nothing is allocated.
    ``refresh`` then resets the padding, so one reduction over the
    span sees only interior values, their copies and zeros: a NaN
    anywhere, or a magnitude above BLOWUP_LIMIT, raises BlowUpError.
    """
    lap = stencil.laplacian()
    np.multiply(stencil.lap_rows, params.diffusivities, stencil.lap_rows)
    reaction_fields(*stencil.runs, params, out=stencil.rate_runs)
    np.add(lap, stencil.rates, lap)
    np.multiply(lap, dt, lap)
    np.add(stencil.span, lap, stencil.span)
    stencil.refresh()
    peak = float(np.maximum.reduce(np.abs(stencil.span, lap)))
    if not peak <= BLOWUP_LIMIT:
        maxima = tuple(float(np.max(np.abs(f))) for f in stencil.fields)
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
    _advance(stencil, _constants(params), dt, 1)
    return _state_like(state, stencil.fields)


def simulate(state0, params, cfg, step_offset=0, snapshot_every=0, on_snapshot=None):
    """Advance state0 to cfg.t_end, recording observables along the way.

    Times are step_index * dt with absolute step indices, so a run
    resumed from step_offset reproduces the uninterrupted trajectory
    bit for bit.  Records, the probe values among them, are taken at
    the step indices that record_every divides.  With snapshot_every
    set, on_snapshot(state, step_index) receives a copy of the state at
    every step index that it divides, as soon as that step is taken.
    Both start at step 0 of a fresh run, and at the first step after
    step_offset of a resumed one, whose start the earlier run emitted:
    the records of a run and of its resumption concatenate to those of
    the uninterrupted run.  t_end is mapped to the nearest whole step
    count, cfg.total_steps, which must lie past step_offset.  Nothing
    is emitted before every check has passed.
    """
    limit = stability_limit(params, state0)
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

    dx, dy = state0.dx, state0.dy
    stencil = _Stencil(state0.data, dx, dy, state0.bc)
    constants = _constants(params)
    fields = stencil.fields
    records = []
    for k in range(step_offset, total_steps + 1):
        if k > step_offset:
            _advance(stencil, constants, cfg.dt, k)
        elif k:
            # The run that stopped at step_offset has emitted this step.
            continue
        if k % cfg.record_every == 0:
            records.append(stencil.record(k * cfg.dt, ix, iy, dx, dy))
        if snapshot_every and k % snapshot_every == 0:
            on_snapshot(_state_like(state0, fields), k)

    return SimulationResult(records, _state_like(state0, fields))


def initial_condition(nx, ny, dx, dy, base, amplitude, seed, bc=BC_NEUMANN):
    """Uniform base plus seeded uniform noise in [-amplitude, amplitude].

    Values are floored at zero so nonnegative bases stay nonnegative.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-1.0, 1.0, size=(4, nx, ny))
    fields = [
        np.maximum(component + amplitude * noise[i], 0.0)
        for i, component in enumerate(base.as_tuple())
    ]
    return GridState(nx, ny, dx, dy, *fields, bc=bc)


def save_checkpoint(path, state, params, step_index, t):
    """Binary snapshot sufficient for exact resume.

    Layout (little endian): magic "B4CK", version u32, ten parameter
    doubles (alpha, beta, D1..D4, a..d), nx/ny i64, dx/dy doubles,
    boundary code u8, step index i64, time double, then the four field
    arrays as raw row-major doubles.

    The bytes go to ``<path>.tmp`` in the same directory, are synced,
    and then replace ``path`` in one rename, so a write that fails
    partway leaves any previous checkpoint at ``path`` as it was.
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
    path = os.fspath(path)
    partial = path + ".tmp"
    try:
        with open(partial, "wb") as fh:
            fh.write(header)
            fh.write(state.data.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


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
    check_geometry(nx, ny, dx, dy, _BC_NAMES[bc_code])
    count = 4 * nx * ny
    if len(raw) != header_size + count * 8:
        raise ValueError("checkpoint payload size mismatch")
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=header_size)
    params = SystemParams(**dict(zip(_PARAM_ORDER, values)))
    state = GridState(nx, ny, dx, dy, *data.reshape(4, nx, ny), bc=_BC_NAMES[bc_code])
    return state, params, step_index, t
