"""Workload definitions, seeded input generation and output checks.

Every workload is a fixed list of ``b4`` invocations built from the
seed alone: the same seed writes byte-identical config files (and, for
``analyze``, a byte-identical input series), another seed writes
different ones.  The program receives only these generated files.
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Both simulated grids run with the automatic step: the reaction limit
# (about 0.071 and 0.075) lies above the 1/24 cap, so dt = 1/24.
DT = 1.0 / 24.0
NEG_TOLERANCE = -1e-12

# The coupled chain of the cycle-versus-chaos acceptance test.
CHAIN1D = {
    "nx": 200,
    "ny": 1,
    "bc": "neumann",
    "beta": 5.9,
    "a": 1e-6,
    "b": 2e-6,
    "c": 3e-6,
    "d": 4e-6,
    "Lx": 0.2985,
    "probe_ix": 100,
    "ic_amplitude": 0.1,
    "t_end": 2100.0,
    "record_every": 12,
    "snapshot_every": 0,
}

# The default 200x200 sheet with zero walls and five field dumps.
SHEET2D = {
    "nx": 200,
    "ny": 200,
    "bc": "dirichlet0",
    "t_end": 100.0,
    "record_every": 24,
    "snapshot_every": 600,
}

SCAN_DRAWS = 8
SCAN_MODES = 120000


def config_text(keys):
    """Render ``key = value`` lines; floats use repr so they round-trip."""
    return "".join(
        f"{k} = {repr(v) if isinstance(v, float) else v}\n" for k, v in keys.items()
    )


def scan_draws(seed):
    """The seeded parameter draws of the scan workload."""
    rng = random.Random(seed)
    draws = []
    for _ in range(SCAN_DRAWS):
        keys = {"beta": rng.uniform(5.6, 6.2)}
        for name in ("a", "b", "c", "d"):
            keys[name] = rng.uniform(1e-6, 1e-5)
        keys.update(Lx=math.pi, Ly=math.pi, max_modes=SCAN_MODES)
        draws.append(keys)
    return draws


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Invocation:
    """One ``b4`` process: its subcommand, config file and output directory.

    ``staged`` maps file names to inputs copied into the output directory
    before the run (``analyze`` reads ``<out>/probe.csv``), so configs
    carry no run-specific paths.
    """

    command: str
    config: Path
    out: str
    keys: dict
    staged: dict = field(default_factory=dict)

    def stage(self, out_root):
        """Create the output directory, copy staged inputs, return b4's arguments."""
        out = out_root / self.out
        out.mkdir(parents=True, exist_ok=True)
        for name, source in self.staged.items():
            shutil.copyfile(source, out / name)
        return [self.command, "--config", str(self.config), "--out", str(out)]


@dataclass
class Prepared:
    """A workload's generated inputs, ready to run any number of times."""

    name: str
    invocations: list
    work: float
    work_unit: str
    shape: dict
    inputs: dict


def _write_config(path, keys):
    path.write_text(config_text(keys))
    return path


def prepare(name, seed, indir, runner):
    """Write the workload's inputs under ``indir`` and list its invocations.

    Only ``analyze`` uses ``runner`` (run.B4Runner), for one untimed
    ``b4`` process: its input series is the probe.csv that the chain1d
    config writes for the same seed.
    """
    indir.mkdir(parents=True, exist_ok=True)
    if name in ("chain1d", "sheet2d"):
        keys = dict(CHAIN1D if name == "chain1d" else SHEET2D, ic_seed=seed)
        cfg = _write_config(indir / f"{name}.cfg", keys)
        steps = round(keys["t_end"] / DT)
        nodes = keys["nx"] * keys["ny"]
        shape = {
            "grid": f"{keys['nx']}x{keys['ny']}",
            "bc": keys["bc"],
            "steps": steps,
            "state_bytes_computed": 4 * nodes * 8,
        }
        return Prepared(
            name,
            [Invocation("simulate", cfg, "sim", keys)],
            work=nodes * steps,
            work_unit="node_steps",
            shape=shape,
            inputs={cfg.name: sha256_file(cfg)},
        )
    if name == "analyze":
        keys = dict(CHAIN1D, ic_seed=seed)
        cfg = _write_config(indir / "chain1d.cfg", keys)
        problems = runner.invoke(Invocation("simulate", cfg, "series", keys), indir)[0]
        if problems:
            raise RuntimeError(f"generating the analyze input failed: {problems}")
        series = indir / "series" / "probe.csv"
        samples = round(keys["t_end"] / DT) // keys["record_every"] + 1
        shape = {"series_samples": samples, "series_bytes_computed": samples * 8}
        inputs = {cfg.name: sha256_file(cfg), series.name: sha256_file(series)}
        return Prepared(
            name,
            [Invocation("analyze", cfg, "analysis", keys, {"probe.csv": series})],
            work=samples,
            work_unit="samples",
            shape=shape,
            inputs=inputs,
        )
    if name == "scan":
        invocations, inputs = [], {}
        for k, keys in enumerate(scan_draws(seed)):
            cfg = _write_config(indir / f"draw{k}.cfg", keys)
            inputs[cfg.name] = sha256_file(cfg)
            invocations.append(Invocation("bounds", cfg, f"draw{k}", keys))
            invocations.append(Invocation("feasibility", cfg, f"draw{k}", keys))
        shape = {
            "draws": SCAN_DRAWS,
            "modes_per_draw": SCAN_MODES,
            "mode_stack_bytes_computed": SCAN_MODES * 16 * 8,
        }
        return Prepared(
            name, invocations, work=SCAN_DRAWS, work_unit="draws", shape=shape, inputs=inputs
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("chain1d", "sheet2d", "analyze", "scan")


# ---------------------------------------------------------------- checks


def _table(path, expected_rows=None, nan_columns=()):
    """Load a headered numeric CSV; return (header, rows, problems)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems = []
    if expected_rows is not None and data.shape[0] != expected_rows:
        problems.append(f"{path.name}: {data.shape[0]} rows, expected {expected_rows}")
    checked = [i for i, name in enumerate(header) if name not in nan_columns]
    if not np.all(np.isfinite(data[:, checked])):
        problems.append(f"{path.name}: non-finite values")
    return header, data, problems


def _check_fields(name, values, problems):
    if values.size and float(values.min()) < NEG_TOLERANCE:
        problems.append(f"{name}: field value {float(values.min()):.3e} below {NEG_TOLERANCE}")


def _check_checkpoint(path, nx, ny, problems):
    header_size = 4 + 4 + 10 * 8 + 2 * 8 + 2 * 8 + 1 + 8 + 8
    raw = path.read_bytes()
    if len(raw) != header_size + 4 * nx * ny * 8:
        problems.append(f"{path.name}: {len(raw)} bytes, expected {header_size + 4 * nx * ny * 8}")
        return
    fields = np.frombuffer(raw, dtype="<f8", offset=header_size)
    if not np.all(np.isfinite(fields)):
        problems.append(f"{path.name}: non-finite field values")
    _check_fields(path.name, fields, problems)


def check_outputs(inv, out):
    """Problems with one invocation's output files (empty when correct)."""
    try:
        return _check_outputs(inv, out)
    except (OSError, ValueError) as exc:  # unreadable or malformed output
        return [f"{inv.command} output unreadable: {exc}"]


def _check_outputs(inv, out):
    keys = inv.keys
    problems = []

    def need(fname):
        path = out / fname
        if not path.is_file():
            problems.append(f"{fname} missing")
            return None
        return path

    if inv.command == "simulate":
        steps = round(keys["t_end"] / DT)
        rows = steps // keys["record_every"] + 1
        probe, norms, ck = need("probe.csv"), need("norms.csv"), need("checkpoint.ck")
        if probe:
            _, data, p = _table(probe, rows)
            problems += p
            _check_fields("probe.csv", data[:, 1:], problems)
            if data.shape[0] and not math.isclose(data[-1, 0], steps * DT):
                problems.append(f"probe.csv ends at t={data[-1, 0]}, expected {steps * DT}")
        if norms:
            problems += _table(norms, rows)[2]
        if ck:
            _check_checkpoint(ck, keys["nx"], keys["ny"], problems)
        snaps = sorted(out.glob("snapshot_*.csv"))
        every = keys["snapshot_every"]
        expected = steps // every + 1 if every else 0
        if len(snaps) != expected:
            problems.append(f"{len(snaps)} snapshots, expected {expected}")
        for snap in snaps:
            _, data, p = _table(snap, keys["nx"] * keys["ny"])
            problems += p
            _check_fields(snap.name, data[:, 2:], problems)
    elif inv.command == "analyze":
        for fname in ("acf.csv", "cint.csv"):
            path = need(fname)
            if path:
                problems += _table(path, nan_columns=("log10_C",))[2]
        report = need("report.csv")
        if report:
            problems += _table(report, 1)[2]
    elif inv.command == "bounds":
        path = need("bounds.csv")
        if path:
            problems += _table(path, 1)[2]
    elif inv.command == "feasibility":
        path = need("feasibility.csv")
        if path:
            lines = path.read_text().splitlines()
            row = lines[1].split(",") if len(lines) == 2 else []
            if len(row) != 10:
                problems.append("feasibility.csv: expected one row of 10 columns")
            elif not all(math.isfinite(float(v)) for v in row[:9]):
                problems.append("feasibility.csv: non-finite values")
            elif row[9] != "true":
                problems.append(f"feasibility.csv: all_minors_positive = {row[9]}")
    return problems


def output_digests(out_root):
    """SHA-256 of every file under ``out_root``, keyed by relative path."""
    return {
        str(p.relative_to(out_root)): sha256_file(p)
        for p in sorted(out_root.rglob("*"))
        if p.is_file()
    }
