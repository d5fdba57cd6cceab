"""Config parsing, batch runners, and the ``b4`` command line.

The runners read a flat ``key = value`` config file, drive the solver
and analysis modules, and write plain CSV files with 17 significant
digits, so repeated serial runs with the same config and seed produce
byte-identical output.
"""

import os


def _cap_threads():
    """Apply B4_THREADS before numpy (and its BLAS) is imported."""
    cap = os.environ.get("B4_THREADS")
    if cap is None:
        return None
    if not (cap.isascii() and cap.isdigit()) or int(cap) < 1:
        return f"B4_THREADS must be a positive integer, got {cap!r}"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, cap)
    return None


_THREAD_CAP_ERROR = _cap_threads()

import argparse
import contextlib
import math
import sys
import types
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .functionals import coupling_constants, feasible_triple, form_matrix, sylvester_minors
# Not called here: perfbench/layertrace.py patches both names on this module.
from .functionals import brqp_matrix, sequences_for_triple
from .model import BC_NEUMANN, BC_TAGS, SystemParams, stationary_solution
from .solver import (
    BlowUpError,
    SolverConfig,
    initial_condition,
    load_checkpoint,
    save_checkpoint,
    simulate,
    stability_limit,
)
from .spectral import dimension_bounds
from .tsa import albano_dimension, largest_lyapunov


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range config input."""


_CHECKS = {
    "positive": (lambda v: v > 0, "must be positive"),
    "nonneg": (lambda v: v >= 0, "must be non-negative"),
    "ge1": (lambda v: v >= 1, "must be at least 1"),
    "u64": (lambda v: 0 <= v < 2**64, "must fit in an unsigned 64-bit integer"),
    "bc": (lambda v: v in BC_TAGS, f"must be one of {sorted(BC_TAGS)}"),
    "column": (lambda v: v in ("u", "v", "w", "z"), "must be one of u, v, w, z"),
    "n123": (lambda v: v in (1, 2, 3), "must be 1, 2, or 3"),
}


def _key(default, check):
    """A RunConfig field whose parsed values must pass ``_CHECKS[check]``."""
    return field(default=default, metadata={"check": check})


@dataclass(frozen=True)
class RunConfig:
    """Flat bag of every run setting, one attribute per config key.

    Each field declares its key once: the annotation is the value type
    (``T | None`` also accepts ``auto``, parsed as None), the default is
    the default, and ``_key`` names the range check.  ``dt = None``
    means "choose automatically from the stability limit".  The
    analysis settings and the bound prefactors are not keys: they are
    fixed in ``b4.tsa`` and ``b4.spectral``.
    """

    # reaction and diffusion parameters, defaulting to the reference table
    alpha: float = _key(SystemParams.alpha, "positive")
    beta: float = _key(SystemParams.beta, "positive")
    D1: float = _key(SystemParams.D1, "positive")
    D2: float = _key(SystemParams.D2, "positive")
    D3: float = _key(SystemParams.D3, "positive")
    D4: float = _key(SystemParams.D4, "positive")
    a: float = _key(SystemParams.a, "positive")
    b: float = _key(SystemParams.b, "positive")
    c: float = _key(SystemParams.c, "positive")
    d: float = _key(SystemParams.d, "positive")
    # grid and boundary condition
    nx: int = _key(200, "ge1")
    ny: int = _key(200, "ge1")
    Lx: float = _key(500.0, "positive")
    Ly: float = _key(500.0, "positive")
    bc: str = _key(BC_NEUMANN, "bc")
    # time stepping and output
    dt: float | None = _key(None, "positive")
    t_end: float = _key(10000.0, "positive")
    record_every: int = _key(24, "ge1")
    probe_ix: int = _key(0, "nonneg")
    probe_iy: int = _key(0, "nonneg")
    ic_amplitude: float = _key(1e-3, "nonneg")
    ic_seed: int = _key(0, "u64")
    snapshot_every: int = _key(0, "nonneg")
    resume_from: str = ""
    out_dir: str = "b4_out"
    # time-series analysis
    series_file: str = ""
    series_column: str = _key("u", "column")
    # dimension bounds and feasibility
    N: int = _key(2, "n123")
    max_modes: int = _key(1000, "ge1")

    def system_params(self):
        return SystemParams(**{f.name: getattr(self, f.name) for f in fields(SystemParams)})

    def spacings(self):
        # Nodes sit on the domain ends, so spacing is L/(n-1); a
        # single-node direction keeps the full length as a placeholder.
        dx = self.Lx / (self.nx - 1) if self.nx > 1 else self.Lx
        dy = self.Ly / (self.ny - 1) if self.ny > 1 else self.Ly
        return dx, dy


_KEYS = {f.name: f for f in fields(RunConfig)}


def _convert(spec, raw):
    """Parse one raw value for the key whose RunConfig field is ``spec``."""
    name, kind = spec.name, spec.type
    if isinstance(kind, types.UnionType):
        if raw == "auto":
            return None
        kind, _ = typing.get_args(kind)
    if kind is float:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"cannot parse {raw!r} as a number for {name}")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {raw!r}")
    elif kind is int:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"cannot parse {raw!r} as an integer for {name}")
    else:
        value = raw
    check = spec.metadata.get("check")
    if check:
        ok, message = _CHECKS[check]
        if not ok(value):
            raise ValueError(f"{name} {message}, got {raw!r}")
    return value


def parse_config(text):
    """Parse ``key = value`` lines into a RunConfig.

    Blank lines and ``#`` comments are ignored.  Unknown keys,
    malformed lines, and out-of-range values raise ConfigError naming
    the line number.  Missing keys fall back to the defaults: the
    reference parameter table on a 200x200 grid of side 500, with dt
    picked automatically from the stability limit.  A repeated key
    keeps its last value.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        try:
            spec = _KEYS[key]
        except KeyError:
            raise ConfigError(f"line {lineno}: unknown key {key!r}") from None
        try:
            values[key] = _convert(spec, value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return RunConfig(**values)


def serialize(config):
    """Render a RunConfig as config text; parse_config round-trips it.

    A str value that would not parse back, one with a ``#``, a line
    break or surrounding blanks, raises ValueError naming its key.
    """
    lines = []
    for name in _KEYS:
        value = getattr(config, name)
        if value is None:
            text = "auto"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        if "#" in text or text.strip() != text or len(text.splitlines()) > 1:
            raise ValueError(f"{name} = {text!r} does not survive a round trip as config text")
        lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"


def _spec(kind):
    if issubclass(kind, (bool, str)):
        return "%s"
    return "%d" if issubclass(kind, (int, np.integer)) else "%.17g"


def _kept_end(path, keep, t=None, probe=None):
    """The byte offset just past the header and the first ``keep`` rows of path.

    None if there is no file.  A file with fewer complete rows raises
    ConfigError, and so does one whose last kept row is not at time t,
    when t is given, or does not hold the values of probe, an (ix, iy,
    values) triple, after its time, when probe is given.
    """
    if not path.exists():
        return None
    with open(path, "rb") as fh:
        for _ in range(keep + 1):
            row = fh.readline()
            if not row.endswith(b"\n"):
                raise ConfigError(f"{path} holds fewer than the {keep} rows to keep")
        # Rows were written with 17 significant digits, so they read back exactly.
        if t is not None:
            found = float(row.split(b",", 1)[0])
            if found != t:
                raise ConfigError(
                    f"{path} row {keep + 1} is at t = {found!r}, not at t = {t!r}, the "
                    "last record up to the checkpoint; resume with the dt and "
                    "record_every of the run that wrote the files"
                )
        if probe is not None:
            ix, iy, want = probe
            found = [float(v) for v in row.split(b",")[1:]]
            if found != want:
                raise ConfigError(
                    f"{path} row {keep + 1} holds {found}, not {want}, the checkpoint's "
                    f"fields at the probe ({ix}, {iy}); resume with the probe_ix and "
                    "probe_iy of the run that wrote the files"
                )
        return fh.tell()


@contextlib.contextmanager
def _csv_rows(path, header, at=None):
    """Open path under a header, and yield a function that writes one row.

    The file is new, and its directory is made if need be; or, with
    ``at`` set (from ``_kept_end``), it keeps its first ``at`` bytes, is
    cut there, and gets the rows after them.

    Each value is typed on its own, not by its column: a bool is written
    as true or false, a str as it is, an integer (numpy's too) in full,
    anything else as a float with 17 significant digits.  Rows go out
    through one ``%`` format per sequence of types, built once.
    """
    formats = {}

    def write(row):
        kinds = tuple(map(type, row))
        if kinds not in formats:
            formats[kinds] = ",".join(map(_spec, kinds)) + "\n"
        if bool in kinds:
            row = [("false", "true")[v] if type(v) is bool else v for v in row]
        fh.write(formats[kinds] % tuple(row))

    if at is None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    else:
        os.truncate(path, at)
    with open(path, "w" if at is None else "a") as fh:
        if at is None:
            fh.write(",".join(header) + "\n")
        yield write


def _write_csv(path, header, rows):
    """Write rows under a header into a new file (``_csv_rows``) and return its path."""
    with _csv_rows(path, header) as write:
        for row in rows:
            write(row)
    return path


def _snapshot_name(t):
    return f"snapshot_{t:g}.csv"


def _snapshot_time(name):
    """The time a ``_snapshot_name`` rounds to, or None for another name."""
    if name.startswith("snapshot_") and name.endswith(".csv"):
        try:
            t = float(name[len("snapshot_") : -len(".csv")])
        except ValueError:
            return None
        if _snapshot_name(t) == name:
            return t
    return None


def _check_snapshot_names(run, start_step, every):
    """Raise ConfigError if two snapshot steps would share a file name.

    The check runs from the last snapshot at or before start_step, which
    a resumed run's directory already holds, to the run's last step.
    The name rounds t to 6 significant digits, which keeps the order of
    t, so only neighbouring snapshots can collide.
    """
    previous = None
    for step_index in range(start_step - start_step % every, run.total_steps + 1, every):
        name = _snapshot_name(step_index * run.dt)
        if name == previous:
            raise ConfigError(
                f"snapshots at steps {step_index - every} and {step_index} "
                f"(dt = {run.dt!r}) would both be written to {name}"
            )
        previous = name


def _snapshot_rows(state):
    """(x, y, u, v, w, z) for every node, x major, one grid line at a time.

    The coordinates come as text, formatted as ``_write_csv`` formats a
    float: x once per grid line, the y column once per snapshot.
    """
    fmt = _spec(float)
    ys = [fmt % y for y in (np.arange(state.ny) * state.dy).tolist()]
    for x, line in zip((np.arange(state.nx) * state.dx).tolist(), state.data.transpose(1, 0, 2)):
        yield from zip([fmt % x] * len(ys), ys, *line.tolist())


def run_simulate(config):
    """Integrate the configured system and write its CSV outputs.

    Files land in ``config.out_dir``: probe.csv and norms.csv hold one
    row per record_every steps, snapshot_<t>.csv field dumps appear
    when snapshot_every is set, and checkpoint.ck captures the final
    state.  Each row and snapshot is written at the step it is taken,
    so memory does not grow with the run, and a run that blows up
    leaves the rows of the record steps before the failing one.  With
    resume_from pointing at a checkpoint, probe.csv and norms.csv keep
    their rows up to the checkpoint step and get the new rows after
    them, so the files are byte-identical to those of an uninterrupted
    run, also when the same resume runs again.  Snapshot files whose
    time, as their names round it, is past the run's last step are
    removed once it has integrated.  A resume whose dt or record_every
    differs from the run that wrote the files raises ConfigError before
    it integrates, and so does one from a checkpoint at a record step
    whose probe is not where that run's was.  Returns the written paths.
    """
    out = Path(config.out_dir)
    probe_path = out / "probe.csv"
    norms_path = out / "norms.csv"
    written = [probe_path, norms_path]
    writers = []

    def open_rows():
        # probe.csv and norms.csv open once: at the first emission, which
        # comes after every check, or when the run ends without one.
        if not writers:
            for path, header, at in (
                (probe_path, "t,u,v,w,z", probe_end),
                (
                    norms_path,
                    "t,l2_u,l2_v,l2_w,l2_z,grad_l2_u,grad_l2_v,grad_l2_w,grad_l2_z,"
                    "L2_functional,K2_functional",
                    norms_end,
                ),
            ):
                writers.append(files.enter_context(_csv_rows(path, header.split(","), at)))

    def emit(step_index, record, snapshot):
        open_rows()
        if record is not None:
            t, l2 = record.t, record.l2_norms
            k2 = l2[1] ** 2 + delta * l2[3] ** 2
            writers[0]((t, *record.probe_values))
            writers[1]((t, *l2, *record.grad_l2_norms, sum(x * x for x in l2), k2))
        if snapshot is not None:
            path = out / _snapshot_name(step_index * dt)
            written.append(_write_csv(path, "x,y,u,v,w,z".split(","), _snapshot_rows(snapshot)))

    resuming = bool(config.resume_from)
    try:
        if resuming:
            state, params, start_step, start_t = load_checkpoint(config.resume_from)
            found = (state.nx, state.ny, state.bc)
            wanted = (config.nx, config.ny, config.bc)
            if found != wanted:
                raise ConfigError(
                    f"checkpoint grid {found} does not match the config grid {wanted}"
                )
        else:
            params = config.system_params()
            dx, dy = config.spacings()
            base = stationary_solution(params)
            state = initial_condition(
                config.nx, config.ny, dx, dy, base, config.ic_amplitude, config.ic_seed, config.bc
            )
            start_step = 0
        dt = config.dt
        if dt is None:
            dt = min(1.0 / 24.0, stability_limit(params, state))
        if resuming and start_step * dt != start_t:
            raise ConfigError(
                f"dt = {dt!r} puts the checkpoint's step {start_step} at "
                f"t = {start_step * dt!r}, but the checkpoint is at t = {start_t!r}; "
                "resume with the dt and record_every of the run that wrote it"
            )
        run = SolverConfig(
            dt=dt,
            t_end=config.t_end,
            record_every=config.record_every,
            probe=(config.probe_ix, config.probe_iy),
        )
        if config.snapshot_every > 0:
            _check_snapshot_names(run, start_step, config.snapshot_every)
        # A resume keeps the rows up to the checkpoint step, which the run
        # that wrote it has written; None writes a new file.  A start at
        # step 0 emits step 0 itself, so it keeps none, as a fresh run.
        probe_end = norms_end = None
        if resuming and start_step > 0:
            kept = start_step // config.record_every
            t_kept = kept * config.record_every * dt
            # At a record step, the last kept probe row holds the checkpoint's
            # fields, so a resume that moves the probe shows there.  A probe
            # off the grid is left to ``simulate`` to reject.
            ix, iy = run.probe
            probe = None
            if start_step % config.record_every == 0 and ix < state.nx and iy < state.ny:
                probe = (ix, iy, state.data[:, ix, iy].tolist())
            probe_end = _kept_end(probe_path, kept + 1, t_kept, probe)
            norms_end = _kept_end(norms_path, kept + 1, t_kept)
        # Weight of the second oscillator pair in the paired-norm monitor.
        delta = params.D2 / params.D4
        with contextlib.ExitStack() as files:
            try:
                final = simulate(state, params, run, start_step, config.snapshot_every, emit)
            except BlowUpError:
                # A resume that blows up before its first record step, like
                # one that ends before it, leaves the files cut to their
                # kept rows.
                open_rows()
                raise
            open_rows()
    except ValueError as exc:
        # A bad checkpoint, and the solver's stability, probe and step-count
        # checks, all point at the config.
        raise ConfigError(str(exc)) from None

    # Snapshots past the last step are left from a longer run that this
    # one replaces; a run writes none past its own end, and every other
    # file stays.
    end = _snapshot_time(_snapshot_name(run.total_steps * dt))
    for path in out.glob("snapshot_*.csv"):
        t = _snapshot_time(path.name)
        if t is not None and t > end:
            path.unlink()

    ck_path = out / "checkpoint.ck"
    save_checkpoint(ck_path, final, params, run.total_steps, run.total_steps * dt)
    written.append(ck_path)
    return written


def _all_floats(tokens):
    try:
        for tok in tokens:
            float(tok)
    except ValueError:
        return False
    return True


def _read_series(path, column):
    """Read one column of a series file as (values, sample spacing).

    Accepts a headered CSV (column picked by name, spacing taken from a
    ``t`` column when present) or a headerless single-column file.
    Non-numeric or non-finite data, and a ``t`` that does not rise,
    raise ConfigError naming the offending row.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read series file: {exc}") from None
    numbered = [(n, line.strip()) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not numbered:
        raise ConfigError(f"series file {path} is empty")

    header = [tok.strip() for tok in numbered[0][1].split(",")]
    if _all_floats(header):
        if len(header) != 1:
            raise ConfigError(f"{path}: headerless series files must have a single column")
        columns, data = [0], numbered
    else:
        if column not in header:
            raise ConfigError(f"column {column!r} not found in {path} header {header}")
        columns = [header.index(c) for c in (column, "t") if c in header]
        data = numbered[1:]

    # The value column, then t if the file has one; column-major, so
    # each column is one contiguous series.
    table = np.empty((len(data), len(columns)), order="F")
    for k, (lineno, line) in enumerate(data):
        tokens = line.split(",")
        if len(tokens) != len(header):
            raise ConfigError(
                f"{path} row {lineno}: expected {len(header)} columns, got {len(tokens)}"
            )
        try:
            table[k] = [float(tokens[c]) for c in columns]
        except ValueError:
            raise ConfigError(f"{path} row {lineno}: non-numeric value in {line!r}") from None
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        lineno, line = data[int(np.argmin(finite))]
        raise ConfigError(f"{path} row {lineno}: non-finite value in {line!r}")

    interval = 1.0
    if len(columns) == 2 and len(data) >= 2:
        steps = np.diff(table[:, 1])
        if not (steps > 0).all():
            lineno, line = data[int(np.argmin(steps > 0)) + 1]
            raise ConfigError(
                f"{path} row {lineno}: time column must be strictly increasing, got {line!r}"
            )
        interval = float(np.median(steps))
    return table[:, 0], interval


def run_analyze(config):
    """Run the full series pipeline and write acf/cint/report CSVs.

    The series is ``config.series_file``, or probe.csv in the output
    directory when that is empty, and must hold at least 1000 samples.
    Both estimates are made before the first file is written, so a
    failure of either leaves the output directory as it was.  Returns
    the written paths.
    """
    out = Path(config.out_dir)
    x, file_dt = _read_series(Path(config.series_file or out / "probe.csv"), config.series_column)
    if x.size < 1000:
        raise ConfigError(f"need at least 1000 samples to analyze, got {x.size}")

    report = albano_dimension(x)
    lam = largest_lyapunov(report.embedding, file_dt)
    cint_rows = [
        (r, c, math.log10(r), math.log10(c) if c > 0 else math.nan)
        for r, c in zip(report.radii.tolist(), report.C.tolist())
    ]
    written = [
        _write_csv(out / "acf.csv", ["lag", "acf"], enumerate(report.acf.tolist())),
        _write_csv(out / "cint.csv", ["r", "C", "log10_r", "log10_C"], cint_rows),
    ]
    r_lo, r_hi = report.scaling_region
    row = (report.d, report.m_used, report.tau, r_lo, r_hi, report.fit_r2, lam)
    header = ["d", "m", "tau", "r_lo", "r_hi", "fit_r2", "lambda1"]
    return written + [_write_csv(out / "report.csv", header, [row])]


def run_bounds(config):
    """Write the attractor-dimension bracket for the configured system.

    The mode census linearizes about the uniform equilibrium, which
    exists only with no-flux walls, so bc must be neumann.
    """
    if config.bc != BC_NEUMANN:
        raise ConfigError(
            f"bc = {config.bc}: bounds needs bc = {BC_NEUMANN}, since under "
            f"{config.bc} the uniform state is not an equilibrium"
        )
    Ly = None if config.N == 1 else config.Ly
    report = dimension_bounds(config.system_params(), config.N, config.Lx, Ly, config.max_modes)
    row = (
        float(report.lower_bound_base),
        float(report.lower),
        report.trace_unstable_count,
        report.full_unstable_count,
        report.upper,
    )
    header = ["base", "lower", "trace_count", "full_count", "upper"]
    return [_write_csv(Path(config.out_dir) / "bounds.csv", header, [row])]


def run_feasibility(config):
    """Write the coupling report and quadratic-form positivity check.

    Every order-6 form matrix of the generator triple found from the
    diffusion ratios is congruent to form_matrix(A, triple), so one
    Sylvester check of that matrix decides them all.
    """
    params = config.system_params()
    A = coupling_constants(params.a, params.b, params.c, params.d)
    triple = feasible_triple(A)
    # all(), not min(): a NaN minor writes false.
    ok = all(m > 0 for m in sylvester_minors(form_matrix(A, triple)))
    row = (A.A12, A.A13, A.A14, A.A23, A.A24, A.A34, *triple, ok)
    header = "A12,A13,A14,A23,A24,A34,theta2,sigma2,rho2,all_minors_positive".split(",")
    return [_write_csv(Path(config.out_dir) / "feasibility.csv", header, [row])]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="b4",
        description=(
            "Four-species reaction-diffusion toolbox: simulation, "
            "time-series analysis, and attractor-dimension bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "integrate the system and write probe/norm CSV files",
        "analyze": "estimate delay, dimension, and the top Lyapunov exponent",
        "bounds": "write the attractor-dimension bracket",
        "feasibility": "write the coupling report and positivity sweep",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", help="output directory (overrides out_dir)")
        p.add_argument("--seed", help="initial-condition seed (overrides ic_seed)")
    return parser


def main(argv=None):
    if _THREAD_CAP_ERROR is not None:
        print(f"b4: {_THREAD_CAP_ERROR}", file=sys.stderr)
        return 1
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage problems; fold that into the
        # single usage/config failure code and keep 0 for --help.
        return 0 if exc.code == 0 else 1

    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        try:
            overrides["ic_seed"] = _convert(_KEYS["ic_seed"], args.seed)
        except ValueError as exc:
            print(f"b4: --seed: {exc}", file=sys.stderr)
            return 1

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"b4: cannot read config: {exc}", file=sys.stderr)
        return 1
    # Built at each call, so the runners are looked up when they run.
    runners = {
        "simulate": run_simulate,
        "analyze": run_analyze,
        "bounds": run_bounds,
        "feasibility": run_feasibility,
    }
    try:
        files = runners[args.command](replace(parse_config(text), **overrides))
    except (ConfigError, OSError) as exc:
        print(f"b4: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"b4: numerical failure: {exc}", file=sys.stderr)
        return 2

    for path in files:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
