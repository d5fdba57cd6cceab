"""Explicit finite-difference solver for the four-compartment model.

The scheme is forward Euler in time with a five-point Laplacian in
space.  All four fields advance simultaneously from the previous
state.  No-flux boundaries use ghost-node reflection (the ghost value
mirrors the first interior node), zero boundaries use zero ghosts.

The step kernel's design, stated here once:

- Layout.  The four fields live in one buffer, one ghost-padded grid
  after the other (``_Stencil``), in role order (u, w, v, z), so one
  ``reaction_fields`` pass covers both Brusselator pairs; everything
  outside ``_Stencil`` sees (u, v, w, z).  A step is a fixed run of
  ufunc calls on views built once per run, outputs passed positionally
  and constants as 0-d arrays: it slices and allocates nothing.
- Chunks and lag.  A step runs over chunks, the same whole padded rows
  of all four blocks, about STEP_BLOCK entries of each, so that a large
  grid's passes stay in cache.  A chunk reads one row past each end,
  so its increment is added one chunk late, once the next chunk has
  read the old state; two increment arrays alternate.
- The lone chunk.  A block of at most STEP_BLOCK entries is one chunk,
  one flat span from the first node of the first block to the last of
  the last, whose per-block constants are full (4, P) arrays: small
  ufunc calls take them faster than a broadcast (4, 1) column.  Longer
  blocks keep the columns, which stay in cache (full arrays made the
  200x200 step 9-16 % slower).
- Blow-up precheck.  A chunk's passes also write the padding cells in
  it; ``refresh`` resets them after the step, so that each holds zero
  or a copy of a node and the root of one dot product of the buffer
  with itself bounds every node.  A sum of n squares is off by at most
  n 2**-53 of itself, under 1e-9 for any buffer in memory, so a root at
  most BLOWUP_LIMIT less _PRECHECK_MARGIN of it passes the step.
  Squares below 2**-1000 may underflow, so a limit below
  _PRECHECK_FLOOR gets no precheck.  Any other root leaves the answer
  to an exact check of the nodes.
- Bit identity.  Every operation is elementwise and keeps its operand
  order (the Laplacian sums onto zero, x before y, as differencing a
  padded field axis by axis does), and each increment is the
  expression of the old state that one pass over whole blocks takes.
  So every value is that of each field on its own, bit for bit (signed
  zeros included), whatever the chunks.
"""

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .model import (
    BC_DIRICHLET0,
    BC_NEUMANN,
    GridState,
    SystemParams,
    check_geometry,
    check_params,
    reaction_buffers,
    reaction_fields,
)

BLOWUP_LIMIT = 1e12
STEP_BLOCK = 8192  # about the entries of each block that one chunk of a step covers

# The blow-up precheck's margin, as a share of BLOWUP_LIMIT, and the
# smallest limit it serves (see the module docstring).
_PRECHECK_MARGIN = 1e-6
_PRECHECK_FLOOR = 2.0**-500

_CHECKPOINT_MAGIC = b"B4CK"
_CHECKPOINT_VERSION = 1
_CHECKPOINT_HEADER = struct.Struct("<4sI10d2q2dBqd")
_BC_CODES = {BC_NEUMANN: 0, BC_DIRICHLET0: 1}
_BC_NAMES = {code: tag for tag, code in _BC_CODES.items()}
_PARAM_ORDER = ("alpha", "beta", "D1", "D2", "D3", "D4", "a", "b", "c", "d")


def _swap_roles(values):
    """Four values in the stencil's role order (u, w, v, z) as field order
    (u, v, w, z): the swap of the middle two is its own inverse."""
    return values[0], values[2], values[1], values[3]


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
    probe_values: tuple
    l2_norms: tuple
    grad_l2_norms: tuple
    mins: tuple
    maxs: tuple


def _line_aligned_zeros(shape):
    """Zeros whose first entry starts a 64-byte cache line.

    numpy aligns to 16 bytes only.  The passes of a 200x200 step over
    chunk scratch that starts mid-line took 15-20 % longer, so whether a
    run was fast hung on what the process had allocated before.
    """
    size = math.prod(shape)
    raw = np.zeros(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size].reshape(shape)


def _check_extent(n):
    if n != 1 and n < 3:
        raise ValueError("simulated directions need at least 3 grid points")


@dataclass(slots=True)
class _Chunk:
    """Whole padded rows of all four blocks, and every view a step takes on them.

    ``state`` is the chunk's nodes in the buffer.  ``lap`` gets their
    Laplacian, then their increment; ``blocks`` is the same memory as
    (4, ...) blocks.  ``twice`` and ``pair`` are the Laplacian's scratch,
    and the reaction writes its rates into ``twice``.  ``axes`` holds
    (ahead, behind, h^2, onto) per direction of extent above one, where
    ``onto`` is a 0-d zero for the first and ``lap`` after it.
    ``reaction`` holds the arguments of the chunk's ``reaction_fields``
    pass (None without params).  ``rows`` are the field rows the chunk
    holds and ``lap_nodes`` their nodes in ``lap``.
    """

    state: np.ndarray
    lap: np.ndarray
    blocks: np.ndarray
    twice: np.ndarray
    pair: np.ndarray
    axes: list
    reaction: tuple
    rows: slice
    lap_nodes: np.ndarray


class _Stencil:
    """The four fields of a (4, nx, ny) stack in one flat ghost-padded buffer.

    The stack is in field order (u, v, w, z); the buffer holds it in
    role order (u, w, v, z).  Each field owns a block of P = (nx +
    2 gx)(ny + 2 gy) consecutive entries: a row-major grid with one
    ghost layer on each side of every direction of extent above one
    (gx, gy are 0 or 1).  ``fields`` is the interior view, in role
    order.  A neighbour is the entry ±1 or ±(ny + 2 gy) away.

    ``chunks`` are the step's chunks (see the module docstring), which
    share two increments, used in turn, and the Laplacian's two scratch
    arrays.  Given ``params``, the stencil holds ``diffusivities``, (a,
    c, b, d), and each chunk the ``reaction_buffers`` of its rows, with
    (D1, D3, D2, D4) in that layout.  ``record`` and the exact blow-up
    check share one array.
    """

    def __init__(self, data, dx, dy, bc, params=None):
        _, nx, ny = data.shape
        _check_extent(nx)
        _check_extent(ny)
        gx, gy = int(nx > 1), int(ny > 1)
        row = ny + 2 * gy
        size = (nx + 2 * gx) * row
        self.buffer = np.zeros(4 * size)
        grid = self.buffer.reshape(4, nx + 2 * gx, row)
        self.fields = grid[:, gx : gx + nx, gy : gy + ny]
        self.fields[...] = _swap_roles(data)
        self._two, self._zero = np.array(2.0), np.array(0.0)
        self._record = np.empty(4 * nx * ny)

        # The chunks as ranges of padded rows: the whole block, or the
        # interior rows split as evenly as whole rows allow.
        count = 1 if size <= STEP_BLOCK else -(-nx // max(STEP_BLOCK // row, 1))

        def per_block(column):
            return np.repeat(column, size, axis=1) if count == 1 else column

        if params is not None:
            self.diffusivities = per_block(
                np.array([[params.a], [params.c], [params.b], [params.d]])
            )
            coupling = per_block(np.array([[params.D1], [params.D3], [params.D2], [params.D4]]))
        if count == 1:
            ranges = [(0, nx + 2 * gx)]
        else:
            ranges = [(gx + nx * j // count, gx + nx * (j + 1) // count) for j in range(count)]
        width = max(r1 - r0 for r0, r1 in ranges) * row
        if count > 1:
            width += -width % 8
        *incs, twice, pair = _line_aligned_zeros((4, 4, width))
        blocks = self.buffer.reshape(4, size)
        steps = [(step, np.array(h**2)) for n, step, h in ((nx, row, dx), (ny, 1, dy)) if n > 1]
        self.chunks = []
        for j, (r0, r1) in enumerate(ranges):
            lo, hi = r0 * row, r1 * row
            # The chunk's rows of every block, in the buffer and in scratch.
            whole = [blocks[:, lo:hi]] + [a[:, : hi - lo] for a in (incs[j % 2], twice, pair)]
            if count == 1:
                # Whole blocks: the nodes of all four, and the padding
                # between them, are one flat span.
                base, lo = self.buffer, gx * row + gy
                hi = base.size - lo
                state, lap, rates, work = (a.reshape(-1)[lo:hi] for a in whole)
            else:
                base = blocks
                state, lap, rates, work = whole
            n0, n1 = max(r0, gx), min(r1, gx + nx)
            lap_nodes = whole[1].reshape(4, r1 - r0, row)[:, n0 - r0 : n1 - r0, gy : gy + ny]
            reaction = None
            if params is not None:
                x, y = whole[0][:2], whole[0][2:]
                buffers = reaction_buffers(x, y, whole[2], whole[3], params, coupling)
                reaction = (x, y, buffers)
            self.chunks.append(
                _Chunk(
                    state=state,
                    lap=lap,
                    blocks=whole[1],
                    twice=rates,
                    pair=work,
                    axes=[
                        (base[..., lo + s : hi + s], base[..., lo - s : hi - s], h2, onto)
                        for (s, h2), onto in zip(steps, (self._zero, lap))
                    ],
                    reaction=reaction,
                    rows=slice(n0 - gx, n1 - gx),
                    lap_nodes=lap_nodes,
                )
            )

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

    def laplacian(self, chunk):
        """The Laplacian of a chunk's nodes, in its ``lap``."""
        lap, twice, pair = chunk.lap, chunk.twice, chunk.pair
        if not chunk.axes:
            lap.fill(0.0)
            return lap
        np.multiply(chunk.state, self._two, twice)
        for ahead, behind, h2, onto in chunk.axes:
            np.add(ahead, behind, pair)
            np.subtract(pair, twice, pair)
            np.divide(pair, h2, pair)
            np.add(onto, pair, lap)
        return lap

    def record(self, t, ix, iy, dx, dy):
        """The observables of the current fields, from stacked passes.

        The squares and differences go into the record array, one
        contiguous row per field, and each row sums the way ``np.sum``
        sums that field alone, so every value is the per-field one bit
        for bit.  Each tuple is in field order.
        """
        fields, scratch = self.fields, self._record

        def sum_of_squares(values):
            rows = scratch[: values.size].reshape(values.shape)
            np.multiply(values, values, rows)
            return rows.reshape(4, -1).sum(axis=1)

        l2 = sum_of_squares(fields)
        grad = [0.0] * 4
        for h, ahead, behind in (
            (dx, fields[:, 1:], fields[:, :-1]),
            (dy, fields[:, :, 1:], fields[:, :, :-1]),
        ):
            if ahead.size:
                # The differences are squared where they are.
                diff = np.subtract(ahead, behind, scratch[: ahead.size].reshape(ahead.shape))
                np.divide(diff, h, diff)
                for i, total in enumerate(sum_of_squares(diff).tolist()):
                    grad[i] += total
        cell = dx * dy
        return ObservableRecord(
            t=t,
            probe_values=_swap_roles(fields[:, ix, iy].tolist()),
            l2_norms=_swap_roles([math.sqrt(s * cell) for s in l2.tolist()]),
            grad_l2_norms=_swap_roles([math.sqrt(g * dx * dy) for g in grad]),
            mins=_swap_roles(fields.min(axis=(1, 2)).tolist()),
            maxs=_swap_roles(fields.max(axis=(1, 2)).tolist()),
        )


def laplacian(field, dx, dy, bc=BC_NEUMANN):
    """Five-point Laplacian; directions of extent one are skipped."""
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise ValueError("field must be 2-d (use extent 1 for a flat direction)")
    check_geometry(*field.shape, dx, dy, bc)
    # The stencil holds four fields; here each of them is this one.
    stencil = _Stencil(np.broadcast_to(field, (4, *field.shape)), dx, dy, bc)
    out = np.empty(field.shape)
    for chunk in stencil.chunks:
        stencil.laplacian(chunk)
        out[chunk.rows] = chunk.lap_nodes[0]
    return out


def stability_limit(params, state):
    """Largest admissible forward-Euler step for these parameters on state's grid.

    The diffusive bound is the usual one for the five-point stencil,
    summed over the directions of extent above one: a direction of
    extent one has no neighbours, so it adds no bound.  The reaction
    bound is a conservative linearization scale.
    """
    check_params(params)
    inv_h2 = (1.0 / state.dx**2 if state.nx > 1 else 0.0) + (
        1.0 / state.dy**2 if state.ny > 1 else 0.0
    )
    if inv_h2 == 0.0:
        diffusive = math.inf
    else:
        diffusive = 1.0 / (2.0 * max(params.a, params.b, params.c, params.d) * inv_h2)
    reaction = 0.5 / (params.beta + 1.0 + max(params.D1, params.D2, params.D3, params.D4))
    return min(diffusive, reaction)


def _advance(stencil, dt, k):
    """Step k of forward Euler, in place on the stencil's buffer.

    The stencil must have been built with the run's params; ``dt`` is a
    float or a 0-d array.  Each chunk's increment, (diffusivity times
    Laplacian plus reaction rates) times dt, is added one chunk late.
    A NaN node, or one above BLOWUP_LIMIT (read at every call), after
    the step raises BlowUpError.
    """
    column, behind = stencil.diffusivities, None
    for chunk in stencil.chunks:
        lap = stencil.laplacian(chunk)
        np.multiply(chunk.blocks, column, chunk.blocks)
        reaction_fields(*chunk.reaction)
        np.add(lap, chunk.twice, lap)
        np.multiply(lap, dt, lap)
        if behind is not None:
            np.add(behind.state, behind.lap, behind.state)
        behind = chunk
    np.add(behind.state, behind.lap, behind.state)
    stencil.refresh()
    if not _in_range(stencil):
        t = k * float(dt)
        maxima = _swap_roles([float(np.max(np.abs(f))) for f in stencil.fields])
        peak = float(np.max(maxima))
        raise BlowUpError(
            f"blow-up at t={t:g} (step {k}): max |field| = {peak:.3e}, "
            f"per-field maxima {maxima}",
            t=t,
            step_index=k,
            max_abs=peak,
            field_maxima=maxima,
        )


def _in_range(stencil):
    """Whether no node is NaN or above BLOWUP_LIMIT in magnitude, after
    ``refresh``: the dot-product precheck, else an exact check of the nodes."""
    limit, buffer = BLOWUP_LIMIT, stencil.buffer
    bound = limit * (1.0 - _PRECHECK_MARGIN)
    if limit >= _PRECHECK_FLOOR and math.sqrt(np.dot(buffer, buffer)) <= bound:
        return True
    magnitudes = stencil._record
    np.abs(stencil.fields, magnitudes.reshape(stencil.fields.shape))
    return float(np.maximum.reduce(magnitudes)) <= limit


def _state_like(state, stencil):
    fields = _swap_roles(stencil.fields)
    return GridState(state.nx, state.ny, state.dx, state.dy, *fields, bc=state.bc)


def simulate(state0, params, cfg, step_offset=0, snapshot_every=0, emit=None):
    """Advance state0 to cfg.t_end and return the state at the last step.

    Times are step_index * dt with absolute step indices, so a run
    resumed from step_offset reproduces the uninterrupted trajectory
    bit for bit.  Records, the probe values among them, are taken at
    the step indices that record_every divides, and with snapshot_every
    set, snapshots at those it divides.  Each goes to
    emit(step_index, record, snapshot) as soon as its step is taken,
    one call per step: record is an ObservableRecord, snapshot a copy
    of the state, and either is None off its cadence.  Nothing is kept,
    so memory does not grow with the run; without emit, nothing is
    taken.  Both start at step 0 of a fresh run, and at the first step
    after step_offset of a resumed one, whose start the earlier run
    emitted: the emissions of a run and of its resumption concatenate
    to those of the uninterrupted run.  t_end is mapped to the nearest
    whole step count, cfg.total_steps, which must lie past step_offset,
    itself at least 0.  Nothing is emitted before every check has passed.
    """
    limit = stability_limit(params, state0)
    if cfg.dt > limit:
        raise ValueError(f"dt {cfg.dt:g} exceeds the stability limit {limit:g}")
    ix, iy = cfg.probe
    if not (0 <= ix < state0.nx and 0 <= iy < state0.ny):
        raise ValueError(f"probe {cfg.probe} outside the {state0.nx}x{state0.ny} grid")
    if step_offset < 0:
        raise ValueError(f"step_offset {step_offset} is negative")
    total_steps = cfg.total_steps
    if total_steps <= step_offset:
        raise ValueError(f"t_end {cfg.t_end:g} is not past the starting step {step_offset}")

    dx, dy = state0.dx, state0.dy
    stencil = _Stencil(state0.data, dx, dy, state0.bc, params)
    dt = np.array(cfg.dt)
    for k in range(step_offset, total_steps + 1):
        if k > step_offset:
            _advance(stencil, dt, k)
        elif k:
            # The run that stopped at step_offset has emitted this step.
            continue
        recorded = k % cfg.record_every == 0
        snapped = snapshot_every and k % snapshot_every == 0
        if emit is not None and (recorded or snapped):
            emit(
                k,
                stencil.record(k * cfg.dt, ix, iy, dx, dy) if recorded else None,
                _state_like(state0, stencil) if snapped else None,
            )
    return _state_like(state0, stencil)


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
        for i, component in enumerate(base)
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
    """Inverse of save_checkpoint: (state, params, step_index, t).

    A file that save_checkpoint could not have written from a run
    raises ValueError: a bad header, geometry or size, a negative step
    index, or a field value that is NaN or infinite.
    """
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
    if step_index < 0:
        raise ValueError(f"checkpoint step index {step_index} is negative")
    count = 4 * nx * ny
    if len(raw) != header_size + count * 8:
        raise ValueError("checkpoint payload size mismatch")
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=header_size).reshape(4, nx, ny)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        field, ix, iy = bad[0].tolist()
        raise ValueError(f"checkpoint field {'uvwz'[field]!r} is not finite at node ({ix}, {iy})")
    params = SystemParams(**dict(zip(_PARAM_ORDER, values)))
    state = GridState(nx, ny, dx, dy, *data, bc=_BC_NAMES[bc_code])
    return state, params, step_index, t
