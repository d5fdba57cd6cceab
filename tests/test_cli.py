import dataclasses
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from b4 import cli, tsa
from b4.cli import (
    ConfigError,
    RunConfig,
    main,
    parse_config,
    run_analyze,
    run_bounds,
    run_feasibility,
    run_simulate,
    serialize,
)
from b4.functionals import check_conditions, coupling_constants
from b4.model import GridState, SystemParams, stationary_solution
from b4.solver import initial_condition, load_checkpoint, save_checkpoint
from b4.spectral import dimension_bounds


def small_run_text(out_dir, t_end=50, extra=""):
    return (
        "nx = 64\nny = 1\nLx = 63\nLy = 1\nrecord_every = 24\n"
        f"t_end = {t_end}\nout_dir = {out_dir}\n" + extra
    )


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    body = [line.split(",") for line in lines[1:]]
    return header, body


def test_runconfig_fields_match_key_table():
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert names == list(cli._KEYS)


def test_parse_defaults_and_round_trip():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.alpha == 2.0 and cfg.beta == 5.5
    assert (cfg.nx, cfg.ny, cfg.Lx, cfg.Ly) == (200, 200, 500.0, 500.0)
    assert cfg.dt is None
    assert parse_config(serialize(cfg)) == cfg

    text = "alpha = 1.5\n# comment\nnx = 32   # inline comment\ndt = 0.01\nmax_modes = 7\n"
    cfg2 = parse_config(text)
    assert (cfg2.alpha, cfg2.nx, cfg2.dt, cfg2.max_modes) == (1.5, 32, 0.01, 7)
    assert parse_config(serialize(cfg2)) == cfg2


def test_parse_repeated_key_keeps_last():
    cfg = parse_config("alpha = 1.0\nalpha = 2.5\n")
    assert cfg.alpha == 2.5


def test_parse_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("alpha = banana")
    with pytest.raises(ConfigError, match="line 2.*key = value"):
        parse_config("alpha = 1\nalpha 2\n")
    with pytest.raises(ConfigError, match="line 1.*at least 1"):
        parse_config("nx = 0")
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config("bc = slippery")
    with pytest.raises(ConfigError, match="finite"):
        parse_config("alpha = inf")


# The analysis settings and bound prefactors that are fixed, not keys.
FIXED_SETTINGS = ["threshold", "m_max", "theiler", "K_prime", "K1", "C_upper"]


# N is not a key either: bounds takes its domain's dimension from the grid.
@pytest.mark.parametrize("key", ["whatever", "N", *FIXED_SETTINGS])
def test_unknown_key_names_its_line(tmp_path, capsys, key):
    with pytest.raises(ConfigError, match=rf"^line 3: unknown key '{key}'$"):
        parse_config(f"alpha = 1\nbeta = 2\n{key} = 3\n")
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"max_modes = 10\n{key} = 3\nout_dir = {out}\n")
    for command in ("analyze", "bounds"):
        assert main([command, "--config", str(cfg)]) == 1
        assert "line 2: unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_exchange_rates_must_be_positive(tmp_path, capsys):
    with pytest.raises(ConfigError, match="line 1.*positive"):
        parse_config("D1 = 0")
    cfg = tmp_path / "d1.cfg"
    cfg.write_text(f"D1 = 0\nout_dir = {tmp_path / 'out'}\n")
    assert main(["bounds", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "D1 must be positive" in err and "numerical failure" not in err


def test_grid_spacing_puts_nodes_on_the_ends():
    cfg = parse_config("nx = 201\nny = 1\nLx = 200\n")
    dx, dy = cfg.spacings()
    assert dx == 1.0
    assert dy == cfg.Ly  # single-node direction keeps the length


def test_run_simulate_counting_contract(tmp_path):
    cfg = parse_config(small_run_text(tmp_path / "out"))
    files = run_simulate(cfg)
    names = [p.name for p in files]
    assert names == ["probe.csv", "norms.csv", "checkpoint.ck"]
    header, body = read_csv(tmp_path / "out" / "probe.csv")
    assert header == ["t", "u", "v", "w", "z"]
    # 50 / (1/24) = 1200 steps at record cadence 24
    assert len(body) == 1200 // 24 + 1
    assert all(len(row) == 5 for row in body)

    header, body = read_csv(tmp_path / "out" / "norms.csv")
    assert header == [
        "t",
        "l2_u",
        "l2_v",
        "l2_w",
        "l2_z",
        "grad_l2_u",
        "grad_l2_v",
        "grad_l2_w",
        "grad_l2_z",
        "L2_functional",
        "K2_functional",
    ]
    assert len(body) == 1200 // 24 + 1
    row = [float(x) for x in body[-1]]
    l2 = row[1:5]
    assert row[9] == pytest.approx(sum(x * x for x in l2), rel=1e-15)
    delta = 0.126 / 0.125
    assert row[10] == pytest.approx(l2[1] ** 2 + delta * l2[3] ** 2, rel=1e-15)
    assert all(math.isfinite(v) for v in row)


def test_run_simulate_snapshots(tmp_path):
    cfg = parse_config(small_run_text(tmp_path / "out", extra="snapshot_every = 600\n"))
    files = run_simulate(cfg)
    snaps = sorted(p.name for p in files if p.name.startswith("snapshot"))
    assert snaps == ["snapshot_0.csv", "snapshot_25.csv", "snapshot_50.csv"]
    header, body = read_csv(tmp_path / "out" / "snapshot_0.csv")
    assert header == ["x", "y", "u", "v", "w", "z"]
    assert len(body) == 64
    assert float(body[1][0]) == 1.0  # x spacing 63/63


def test_run_simulate_rejects_colliding_snapshot_names(tmp_path, capsys):
    # Past t = 1e4 the 6-digit name no longer tells 10000 from 10000.04.
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"nx = 1\nny = 1\ndt = 0.04\nt_end = 10001\nsnapshot_every = 1\nout_dir = {out}\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "snapshot_10000.csv" in capsys.readouterr().err
    assert not out.exists()

    # A resume from step 1000001 must not overwrite the snapshot of step
    # 1000000 (t = 10000) with that of step 1000004 (t = 10000.04).
    params = SystemParams()
    state = initial_condition(1, 1, 1.0, 1.0, stationary_solution(params), 0.0, 0)
    ck = tmp_path / "late.ck"
    save_checkpoint(ck, state, params, 1000001, 1000001 * 0.01)
    resume = parse_config(
        "nx = 1\nny = 1\nLx = 1\nLy = 1\ndt = 0.01\nt_end = 10000.04\n"
        f"snapshot_every = 4\nresume_from = {ck}\nout_dir = {out}\n"
    )
    with pytest.raises(ConfigError, match="steps 1000000 and 1000004"):
        run_simulate(resume)


def test_run_simulate_is_deterministic(tmp_path):
    cfg_a = parse_config(small_run_text(tmp_path / "a"))
    cfg_b = parse_config(small_run_text(tmp_path / "b"))
    run_simulate(cfg_a)
    run_simulate(cfg_b)
    for name in ("probe.csv", "norms.csv", "checkpoint.ck"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_simulate_resume_matches_uninterrupted(tmp_path):
    full = parse_config(small_run_text(tmp_path / "full", t_end=50))
    run_simulate(full)

    half = parse_config(small_run_text(tmp_path / "split", t_end=25))
    run_simulate(half)
    ck = tmp_path / "split" / "half.ck"
    shutil.copy(tmp_path / "split" / "checkpoint.ck", ck)
    rest = parse_config(
        small_run_text(tmp_path / "split", t_end=50, extra=f"resume_from = {ck}\n")
    )
    run_simulate(rest)

    for name in ("probe.csv", "norms.csv", "checkpoint.ck"):
        assert (tmp_path / "full" / name).read_bytes() == (
            tmp_path / "split" / name
        ).read_bytes()


def test_run_simulate_resume_grid_mismatch(tmp_path):
    cfg = parse_config(small_run_text(tmp_path / "out", t_end=2))
    run_simulate(cfg)
    bad = parse_config(
        "nx = 32\nny = 1\nLx = 31\nLy = 1\nt_end = 4\n"
        f"out_dir = {tmp_path / 'out'}\nresume_from = {tmp_path / 'out' / 'checkpoint.ck'}\n"
    )
    with pytest.raises(ConfigError, match="does not match"):
        run_simulate(bad)


def test_resume_from_bad_checkpoint_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(small_run_text(tmp_path / "out", t_end=2))
    assert main(["simulate", "--config", str(cfg)]) == 0
    ck = tmp_path / "out" / "checkpoint.ck"
    raw = bytearray(ck.read_bytes())
    raw[104:112] = np.float64(np.nan).tobytes()  # dx
    bad = tmp_path / "nan_dx.ck"
    bad.write_bytes(bytes(raw))
    resume = tmp_path / "resume.cfg"
    resume.write_text(small_run_text(tmp_path / "out", t_end=4, extra=f"resume_from = {bad}\n"))
    capsys.readouterr()
    assert main(["simulate", "--config", str(resume)]) == 1
    assert "dx" in capsys.readouterr().err


def test_run_simulate_config_guards(tmp_path):
    with pytest.raises(ConfigError, match="stability"):
        run_simulate(parse_config(small_run_text(tmp_path / "o1", extra="dt = 0.2\n")))
    with pytest.raises(ConfigError, match="probe"):
        run_simulate(
            parse_config(small_run_text(tmp_path / "o2", extra="probe_ix = 64\n"))
        )


def chain_text(out_dir, t_end, extra=""):
    return (
        "nx = 20\nny = 1\nLx = 19\nLy = 1\nrecord_every = 24\nprobe_ix = 10\n"
        f"t_end = {t_end}\nout_dir = {out_dir}\n" + extra
    )


def directory_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


@pytest.mark.parametrize("bad", ["probe_ix = 500", "nx = 2", "dt = 5"])
def test_rejected_simulate_writes_no_file(tmp_path, capsys, bad):
    # A probe off the grid, or a step past the stability limit, fails
    # before the snapshot of step 0 is written, and before the snapshots
    # of a longer run in the same directory, past this run's end, go.
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(chain_text(out, 10, extra=f"snapshot_every = 12\n{bad}\n"))
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "numerical failure" not in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())

    run_simulate(parse_config(chain_text(out, 20, "snapshot_every = 120\n")))
    before = directory_bytes(out)
    assert "snapshot_15.csv" in before and "snapshot_20.csv" in before
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert directory_bytes(out) == before


def test_resume_that_ends_before_its_checkpoint_changes_no_file(tmp_path, capsys):
    out = tmp_path / "out"
    run_simulate(parse_config(chain_text(out, 10, "snapshot_every = 120\n")))
    before = directory_bytes(out)
    cfg = tmp_path / "resume.cfg"
    cfg.write_text(
        chain_text(out, 5, f"snapshot_every = 120\nresume_from = {out / 'checkpoint.ck'}\n")
    )
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "t_end 5 is not past the starting step 240" in capsys.readouterr().err
    assert directory_bytes(out) == before


def test_retried_resume_matches_uninterrupted(tmp_path):
    snapshots = "snapshot_every = 120\n"
    run_simulate(parse_config(chain_text(tmp_path / "full", 20, snapshots)))
    run_simulate(parse_config(chain_text(tmp_path / "split", 10, snapshots)))
    ck = tmp_path / "ten.ck"
    shutil.copy(tmp_path / "split" / "checkpoint.ck", ck)
    rest = parse_config(chain_text(tmp_path / "split", 20, f"{snapshots}resume_from = {ck}\n"))
    # The same resume twice, as a retry after a crash would run it.
    run_simulate(rest)
    run_simulate(rest)

    names = sorted(p.name for p in (tmp_path / "full").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "split").iterdir())
    assert len(names) == 8  # probe, norms, checkpoint, snapshots at t = 0, 5, ..., 20
    for name in names:
        assert (tmp_path / "full" / name).read_bytes() == (
            tmp_path / "split" / name
        ).read_bytes()
    assert len((tmp_path / "split" / "probe.csv").read_text().splitlines()) == 22


def test_resume_with_no_record_step_after_its_checkpoint_cuts_the_rows(tmp_path):
    # t = 10 is step 240 and t = 10.5 step 252, so the resume takes no record
    # step; the rows the longer run left after step 240 must still go.
    out = tmp_path / "out"
    run_simulate(parse_config(chain_text(out, 10)))
    ck = tmp_path / "ten.ck"
    shutil.copy(out / "checkpoint.ck", ck)
    run_simulate(parse_config(chain_text(out, 20)))
    run_simulate(parse_config(chain_text(out, 10.5, f"resume_from = {ck}\n")))
    full = tmp_path / "full"
    run_simulate(parse_config(chain_text(full, 10.5)))
    assert directory_bytes(out) == directory_bytes(full)
    assert len((out / "probe.csv").read_text().splitlines()) == 12


def test_resume_from_step_zero_writes_the_files_afresh(tmp_path):
    # A start at step 0 emits step 0 itself, so the resume keeps none of
    # the rows that the directory holds and writes the t = 0 row once.
    out, empty = tmp_path / "out", tmp_path / "empty"
    cfg = parse_config(chain_text(out, 2))
    run_simulate(cfg)
    params = cfg.system_params()
    dx, dy = cfg.spacings()
    state = initial_condition(
        cfg.nx, cfg.ny, dx, dy, stationary_solution(params), cfg.ic_amplitude, cfg.ic_seed
    )
    ck = tmp_path / "zero.ck"
    save_checkpoint(ck, state, params, 0, 0.0)
    for directory in (out, empty):
        run_simulate(parse_config(chain_text(directory, 2, f"resume_from = {ck}\n")))
    for name in ("probe.csv", "norms.csv"):
        assert (out / name).read_bytes() == (empty / name).read_bytes()
    assert len((out / "probe.csv").read_text().splitlines()) == 4  # header, t = 0, 1, 2


def test_resume_from_a_negative_step_is_a_config_error(tmp_path, capsys):
    # Step -48 at dt = 1/24 is t = -2, so only the step index itself is wrong.
    out = tmp_path / "out"
    run_simulate(parse_config(chain_text(out, 2)))
    before = directory_bytes(out)
    state, params, _, _ = load_checkpoint(out / "checkpoint.ck")
    ck = tmp_path / "negative.ck"
    save_checkpoint(ck, state, params, -48, -2.0)
    cfg = tmp_path / "resume.cfg"
    cfg.write_text(chain_text(out, 4, f"resume_from = {ck}\n"))
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "step index -48 is negative" in capsys.readouterr().err
    assert directory_bytes(out) == before


@pytest.mark.parametrize("step", [240, 0])
def test_resume_from_a_non_finite_checkpoint_is_a_config_error(tmp_path, capsys, step):
    # Left to the solver, a NaN node reads as a blow-up (exit 2), and from
    # step 0 only after probe.csv and norms.csv have been written afresh.
    out = tmp_path / "out"
    run_simulate(parse_config(chain_text(out, 10)))
    before = directory_bytes(out)
    state, params, _, _ = load_checkpoint(out / "checkpoint.ck")
    data = state.data.copy()
    data[1, 7, 0] = np.nan
    ck = tmp_path / "nan.ck"
    state = GridState(20, 1, state.dx, state.dy, *data)
    save_checkpoint(ck, state, params, step, step * (1.0 / 24.0))
    cfg = tmp_path / "resume.cfg"
    cfg.write_text(chain_text(out, 20, f"resume_from = {ck}\n"))
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "field 'v' is not finite at node (7, 0)" in capsys.readouterr().err
    assert directory_bytes(out) == before


def test_blow_up_leaves_the_rows_before_the_failing_step(tmp_path, capsys):
    # The 1x1 kinetics at beta = 9 and dt = 1/24 blow up at step 200, so the
    # record steps 0, 24, ..., 192 and the snapshot steps 0, 96, 192 are kept.
    kinetics = (
        "nx = 1\nny = 1\nLx = 1\nLy = 1\nbeta = 9\nrecord_every = 24\nsnapshot_every = 96\n"
    )
    cfg = tmp_path / "run.cfg"

    def simulate_to(out, t_end, extra=""):
        cfg.write_text(f"{kinetics}t_end = {t_end}\nout_dir = {out}\n{extra}")
        return main(["simulate", "--config", str(cfg)])

    blown = tmp_path / "blown"
    assert simulate_to(blown, 100) == 2
    assert "(step 200)" in capsys.readouterr().err
    assert len((blown / "probe.csv").read_text().splitlines()) == 1 + 9
    # The same config ended at step 192 writes the same files, and its checkpoint.
    short = tmp_path / "short"
    assert simulate_to(short, 8) == 0
    ended = directory_bytes(short)
    assert ended.pop("checkpoint.ck")
    assert directory_bytes(blown) == ended

    # A resume from step 192 blows up before its first record step, and
    # still cuts away rows a longer run left.
    ck = tmp_path / "short.ck"
    shutil.copy(short / "checkpoint.ck", ck)
    for name in ("probe.csv", "norms.csv"):
        with open(short / name, "a") as fh:
            fh.write("9,9,9,9,9\n")
    assert simulate_to(short, 100, f"resume_from = {ck}\n") == 2
    for name in ("probe.csv", "norms.csv"):
        assert (short / name).read_bytes() == ended[name]


def test_resume_to_an_earlier_end_removes_the_later_snapshots(tmp_path):
    snapshots = "snapshot_every = 120\n"
    run_simulate(parse_config(chain_text(tmp_path / "full", 15, snapshots)))
    run_simulate(parse_config(chain_text(tmp_path / "split", 10, snapshots)))
    ck = tmp_path / "ten.ck"
    shutil.copy(tmp_path / "split" / "checkpoint.ck", ck)
    resume = f"{snapshots}resume_from = {ck}\n"
    run_simulate(parse_config(chain_text(tmp_path / "split", 20, resume)))
    # Names a run never writes stay, whatever time they seem to hold.
    others = {"snapshot_020.csv": "a", "snapshot_20.csv.bak": "b", "snapshot_x.csv": "c"}
    for name, text in others.items():
        (tmp_path / "split" / name).write_text(text)
    run_simulate(parse_config(chain_text(tmp_path / "split", 15, resume)))

    for name, text in others.items():
        assert (tmp_path / "split" / name).read_text() == text
    names = sorted(p.name for p in (tmp_path / "full").iterdir())
    assert names == sorted(set(p.name for p in (tmp_path / "split").iterdir()) - set(others))
    assert "snapshot_15.csv" in names and "snapshot_20.csv" not in names
    for name in names:
        assert (tmp_path / "full" / name).read_bytes() == (
            tmp_path / "split" / name
        ).read_bytes()


def test_resume_checks_the_kept_rows_before_it_integrates(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_simulate(parse_config(chain_text(out, 10, "snapshot_every = 120\n")))
    norms = out / "norms.csv"
    norms.write_text("".join(norms.read_text().splitlines(keepends=True)[:5]))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(cli, "simulate", lambda *args, **kwargs: pytest.fail("simulate ran"))
    rest = parse_config(
        chain_text(out, 20, f"snapshot_every = 120\nresume_from = {out / 'checkpoint.ck'}\n")
    )
    with pytest.raises(ConfigError, match="norms.csv holds fewer than the 11 rows"):
        run_simulate(rest)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_resume_that_moves_the_probe_fails_before_it_integrates(tmp_path, monkeypatch, capsys):
    # t = 10 is step 240, a record step, so probe.csv's last kept row holds
    # the checkpoint's fields at the probe of the run that wrote it.
    out = tmp_path / "out"
    run_simulate(parse_config(chain_text(out, 10, "probe_ix = 3\n")))
    before = directory_bytes(out)
    cfg = tmp_path / "resume.cfg"
    resume = f"resume_from = {out / 'checkpoint.ck'}\n"
    cfg.write_text(chain_text(out, 14, f"probe_ix = 15\n{resume}"))
    with monkeypatch.context() as patch:
        patch.setattr(cli, "simulate", lambda *args, **kwargs: pytest.fail("simulate ran"))
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "probe.csv row 12 holds" in err and "at the probe (15, 0)" in err, err
    assert directory_bytes(out) == before

    # The probe of the run that wrote the files resumes as before.
    cfg.write_text(chain_text(out, 14, f"probe_ix = 3\n{resume}"))
    assert main(["simulate", "--config", str(cfg)]) == 0
    full = tmp_path / "full"
    run_simulate(parse_config(chain_text(full, 14, "probe_ix = 3\n")))
    assert (out / "probe.csv").read_bytes() == (full / "probe.csv").read_bytes()


@pytest.mark.parametrize(
    "changed, message",
    [
        (
            "dt = 0.02",
            r"dt = 0\.02 puts the checkpoint's step 250 at t = 5\.0, "
            r"but the checkpoint is at t = 10\.0; resume with the dt and record_every",
        ),
        (
            "record_every = 100",
            r"probe\.csv row 4 is at t = 4\.0, not at t = 8\.0, .*; "
            r"resume with the dt and record_every",
        ),
    ],
    ids=["dt", "record_every"],
)
def test_resume_with_another_step_or_cadence_fails_before_it_integrates(
    tmp_path, monkeypatch, capsys, changed, message
):
    out = tmp_path / "out"
    run = "Lx = 0.2985\nbeta = 5.9\nic_amplitude = 0.1\nrecord_every = 50\ndt = 0.04\n"
    run_simulate(parse_config(chain_text(out, 10, run)))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(cli, "simulate", lambda *args, **kwargs: pytest.fail("simulate ran"))
    cfg = tmp_path / "resume.cfg"
    cfg.write_text(chain_text(out, 12, f"{run}{changed}\nresume_from = {out / 'checkpoint.ck'}\n"))
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert re.search(message, err), err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def sine_file(path, n=2000, sample_dt=1.0, period=100.0):
    t = np.arange(n) * sample_dt
    x = np.sin(2.0 * np.pi * t / period)
    rows = ["t,u"] + [f"{a:.17g},{b:.17g}" for a, b in zip(t, x)]
    path.write_text("\n".join(rows) + "\n")


def analyze_file(series, cfg):
    return run_analyze(dataclasses.replace(cfg, series_file=str(series)))


def test_run_analyze_sine_outputs(tmp_path):
    series = tmp_path / "sine.csv"
    sine_file(series, n=2500)
    cfg = parse_config(f"out_dir = {tmp_path / 'an'}\n")
    files = analyze_file(series, cfg)
    assert [p.name for p in files] == ["acf.csv", "cint.csv", "report.csv"]

    header, body = read_csv(tmp_path / "an" / "acf.csv")
    assert header == ["lag", "acf"]
    assert float(body[0][1]) == 1.0
    assert len(body) == min(1000, 2500 - 1) + 1

    header, body = read_csv(tmp_path / "an" / "cint.csv")
    assert header == ["r", "C", "log10_r", "log10_C"]
    finite = [row for row in body if row[3] != "nan"]
    assert len(finite) >= 8
    r, c = float(finite[0][0]), float(finite[0][1])
    assert float(finite[0][2]) == pytest.approx(math.log10(r))
    assert float(finite[0][3]) == pytest.approx(math.log10(c))

    header, body = read_csv(tmp_path / "an" / "report.csv")
    assert header == ["d", "m", "tau", "r_lo", "r_hi", "fit_r2", "lambda1"]
    row = dict(zip(header, (float(x) for x in body[0])))
    assert abs(row["d"] - 1.0) < 0.2
    assert row["tau"] == 20.0
    assert abs(row["lambda1"]) < 0.02
    assert 0.0 < row["r_lo"] < row["r_hi"]


def test_run_analyze_computes_each_result_once(tmp_path, monkeypatch):
    calls = dict.fromkeys(("autocorrelation", "embed", "correlation_integral"), 0)
    for name in calls:
        original = getattr(tsa, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in (tsa, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    series = tmp_path / "sine.csv"
    sine_file(series, n=2500)
    analyze_file(series, parse_config(f"out_dir = {tmp_path / 'an'}\n"))
    assert calls["autocorrelation"] == 1
    assert calls["embed"] == calls["correlation_integral"] > 0


def test_run_analyze_scales_lyapunov_by_sample_interval(tmp_path):
    fast = tmp_path / "fast.csv"
    slow = tmp_path / "slow.csv"
    x = np.empty(1500)
    x[0] = 0.3
    for i in range(1, x.size):
        x[i] = 4.0 * x[i - 1] * (1.0 - x[i - 1])
    for path, dt in ((fast, 1.0), (slow, 0.5)):
        t = np.arange(x.size) * dt
        rows = ["t,u"] + [f"{a:.17g},{b:.17g}" for a, b in zip(t, x)]
        path.write_text("\n".join(rows) + "\n")
    cfg = parse_config(f"out_dir = {tmp_path / 'an'}\n")
    analyze_file(fast, cfg)
    lam_fast = float(read_csv(tmp_path / "an" / "report.csv")[1][0][6])
    analyze_file(slow, cfg)
    lam_slow = float(read_csv(tmp_path / "an" / "report.csv")[1][0][6])
    assert lam_slow == pytest.approx(2.0 * lam_fast, rel=1e-12)
    assert abs(lam_fast - math.log(2.0)) < 0.05


def test_run_analyze_headerless_single_column(tmp_path):
    series = tmp_path / "raw.txt"
    x = np.sin(2.0 * np.pi * np.arange(1500) / 100.0)
    series.write_text("\n".join(f"{v:.17g}" for v in x) + "\n")
    cfg = parse_config(f"out_dir = {tmp_path / 'an'}\n")
    files = analyze_file(series, cfg)
    assert (tmp_path / "an" / "report.csv") in files


def test_run_analyze_input_errors(tmp_path):
    cfg = parse_config(f"out_dir = {tmp_path / 'an'}\n")

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        analyze_file(empty, cfg)

    short = tmp_path / "short.csv"
    short.write_text("u\n" + "\n".join(str(i) for i in range(10)) + "\n")
    with pytest.raises(ConfigError, match="1000 samples"):
        analyze_file(short, cfg)

    bad_row = tmp_path / "bad.csv"
    bad_row.write_text("t,u\n0,1.0\n1,oops\n2,2.0\n")
    with pytest.raises(ConfigError, match="row 3"):
        analyze_file(bad_row, cfg)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,u\n0,1.0\n1\n")
    with pytest.raises(ConfigError, match="row 3.*2 columns"):
        analyze_file(ragged, cfg)

    missing_col = tmp_path / "cols.csv"
    missing_col.write_text("t,v\n0,1.0\n")
    with pytest.raises(ConfigError, match="column 'u' not found"):
        analyze_file(missing_col, cfg)

    multi = tmp_path / "multi.txt"
    multi.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ConfigError, match="single column"):
        analyze_file(multi, cfg)

    backwards = tmp_path / "backwards.csv"
    t = 0.5 * np.arange(1200)
    t[600:] -= 100.0
    rows = [f"{a!r},{math.sin(a)!r}" for a in t.tolist()]
    backwards.write_text("t,u\n" + "\n".join(rows) + "\n")
    with pytest.raises(ConfigError, match="row 602: time column must be strictly increasing"):
        analyze_file(backwards, cfg)

    for row in ("1,nan", "1,inf", "1,-inf", "nan,1.0"):
        non_finite = tmp_path / "non_finite.csv"
        non_finite.write_text(f"t,u\n0,1.0\n{row}\n2,2.0\n")
        with pytest.raises(ConfigError, match=f"row 3: non-finite value in '{row}'"):
            analyze_file(non_finite, cfg)


def test_failed_lyapunov_step_changes_no_file(tmp_path, capsys):
    # Two slow tones take tau = 113 and keep 568 points at m = 5, so the
    # Theiler window of 565 leaves no reference point a neighbor: the
    # dimension fit succeeds and the exponent fails.
    t = np.arange(1020.0)
    x = np.sin(2.0 * np.pi * t / 600.0) + 0.05 * np.sin(2.0 * np.pi * t / 222.0)
    series = tmp_path / "tones.csv"
    series.write_text("t,u\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), x.tolist())))
    out = tmp_path / "an"
    sine_file(tmp_path / "sine.csv", n=2500)
    analyze_file(tmp_path / "sine.csv", parse_config(f"out_dir = {out}\n"))
    before = directory_bytes(out)
    assert sorted(before) == ["acf.csv", "cint.csv", "report.csv"]

    cfg = tmp_path / "an.cfg"
    cfg.write_text(f"series_file = {series}\nout_dir = {out}\n")
    assert main(["analyze", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: only 0 reference points" in err, err
    assert "Theiler window of 565 among 568 points" in err, err
    assert directory_bytes(out) == before


def test_run_bounds_matches_library_call(tmp_path):
    cfg = parse_config(f"max_modes = 150\nout_dir = {tmp_path}\n")
    run_bounds(cfg)
    header, body = read_csv(tmp_path / "bounds.csv")
    assert header == ["base", "lower", "trace_count", "full_count", "upper"]
    report = dimension_bounds(SystemParams(), 500.0, 500.0, 150)
    row = body[0]
    assert float(row[0]) == float(report.lower_bound_base)
    assert float(row[1]) == float(report.lower)
    assert int(row[2]) == report.trace_unstable_count
    assert int(row[3]) == report.full_unstable_count
    assert float(row[4]) == report.upper


def test_bounds_rejects_zero_walls(tmp_path, capsys):
    cfg = tmp_path / "walls.cfg"
    cfg.write_text(f"bc = dirichlet0\nmax_modes = 150\nout_dir = {tmp_path / 'out'}\n")
    assert main(["bounds", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "bc = dirichlet0" in err and "numerical failure" not in err
    assert not (tmp_path / "out").exists()


# The coupled chain of the cycle-versus-chaos acceptance test and of the
# benchmark's chain1d workload.
CHAIN_KEYS = "nx = 200\nny = 1\nbeta = 5.9\na = 1e-6\nb = 2e-6\nc = 3e-6\nd = 4e-6\nLx = 0.2985\n"


def bounds_row(tmp_path, name, text):
    """The bounds.csv row that ``b4 bounds`` writes for config text."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text + f"out_dir = {tmp_path / name}\n")
    assert main(["bounds", "--config", str(cfg)]) == 0
    return (tmp_path / name / "bounds.csv").read_text().splitlines()[1]


def test_bounds_on_a_chain_counts_its_interval(tmp_path, capsys):
    # A 200 x 1 chain is the interval of Lx (N = 1): lower = sqrt(base),
    # upper = Lx + 1, and the census counts the interval's modes.  On the
    # chain of Lx = 1e-60 every mode but the first lies past mu_G, up to
    # 1e127, where c4 and the Hurwitz determinant would overflow.
    for name, keys, want in (
        ("chain", CHAIN_KEYS, "152390.00000000009,390.37161782076333,38,88,1.2985"),
        ("short", "nx = 200\nny = 1\nLx = 1e-60\n", "180975,425.41156542811575,1,1,1"),
    ):
        assert bounds_row(tmp_path, name, keys) == want


def test_bounds_of_a_chain_along_x_or_y_agree(tmp_path, capsys):
    column = CHAIN_KEYS.replace("nx = 200\nny = 1", "nx = 1\nny = 200").replace("Lx", "Ly")
    assert bounds_row(tmp_path, "column", column) == bounds_row(tmp_path, "chain", CHAIN_KEYS)


def test_bounds_on_a_single_node_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "node.cfg"
    cfg.write_text(f"nx = 1\nny = 1\nout_dir = {tmp_path / 'out'}\n")
    assert main(["bounds", "--config", str(cfg)]) == 1
    assert "nx = ny = 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bounds_out_of_memory_exits_1_and_writes_nothing(tmp_path, capsys):
    # The interval's mode list of 1e15 modes is a 7 PiB array, and the
    # 500 x 500 square's box of lattice values a 9 PiB one, which numpy
    # refuses at once, before any value is computed.
    cfg = tmp_path / "huge.cfg"
    for shape in ("ny = 1\n", ""):
        cfg.write_text(f"{shape}max_modes = 1000000000000000\nout_dir = {tmp_path / 'out'}\n")
        assert main(["bounds", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("b4: out of memory: ") and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()


def test_bounds_on_thin_rectangles_takes_the_modes_along_the_long_side(tmp_path, capsys):
    # 1e150 x 500 and 1e-6 x 500: the first 1,000 modes lie on the line
    # along the long side, and the box of lattice values is that line.
    assert bounds_row(tmp_path, "long", "Lx = 1e150\n") == "180975,180975,1000,1000,5e+152"
    thin = bounds_row(tmp_path, "thin", "Lx = 1e-6\nLy = 500\n")
    assert thin == "180975,180975,1000,1000,1.0004999999999999"


def test_run_bounds_clamps_at_stability_threshold(tmp_path):
    cfg = parse_config(f"beta = 1\nalpha = 2\nout_dir = {tmp_path}\n")
    run_bounds(cfg)
    _, body = read_csv(tmp_path / "bounds.csv")
    assert float(body[0][1]) == 0.0


def test_run_feasibility_equal_diffusivities(tmp_path):
    cfg = parse_config(f"out_dir = {tmp_path}\n")
    run_feasibility(cfg)
    header, body = read_csv(tmp_path / "feasibility.csv")
    assert header == [
        "A12",
        "A13",
        "A14",
        "A23",
        "A24",
        "A34",
        "theta2",
        "sigma2",
        "rho2",
        "all_minors_positive",
    ]
    row = body[0]
    assert all(float(x) == 1.0 for x in row[:6])
    assert row[9] == "true"
    assert float(row[6]) > 1.0


def test_feasibility_writes_false_when_the_conditions_fail(tmp_path, monkeypatch, capsys):
    # all_minors_positive is check_conditions' verdict on the triple, and
    # a false one is a result, not a failure.
    failing = check_conditions(coupling_constants(1, 2, 3, 4), 1.0, 1.0, 1.0)
    assert not failing.all_pass
    monkeypatch.setattr(cli, "check_conditions", lambda *args: failing)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out_dir = {tmp_path}\n")
    assert main(["feasibility", "--config", str(cfg)]) == 0
    _, body = read_csv(tmp_path / "feasibility.csv")
    assert body[0][9] == "false"


def test_feasibility_names_a_ratio_float64_cannot_hold(tmp_path, capsys):
    # a:b = 1e-17 makes A12 = 1.58e8, so theta2 - A12^2 rounds to 0.
    cfg = tmp_path / "ratio.cfg"
    cfg.write_text(f"a = 1e-10\nb = 1e7\nout_dir = {tmp_path / 'out'}\n")
    assert main(["feasibility", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: A12 = 1.58114e+08" in err, err
    assert "a and b differ by a factor of about 1e+17" in err, err
    assert not (tmp_path / "out" / "feasibility.csv").exists()


def test_main_exit_codes(tmp_path, capsys):
    assert main(["--help"]) == 0
    assert main(["simulate"]) == 1
    assert main(["frobnicate", "--config", "x"]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1

    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha = banana\n")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err

    ok = tmp_path / "ok.cfg"
    ok.write_text(small_run_text(tmp_path / "out", t_end=2))
    assert main(["simulate", "--config", str(ok)]) == 0
    out = capsys.readouterr().out
    assert "probe.csv" in out and "checkpoint.ck" in out

    assert main(["simulate", "--config", str(ok), "--seed", "-1"]) == 1

    blow = tmp_path / "blow.cfg"
    blow.write_text(small_run_text(tmp_path / "boom", t_end=5, extra="ic_amplitude = 1e6\n"))
    assert main(["simulate", "--config", str(blow)]) == 2
    assert "blow-up" in capsys.readouterr().err


def test_main_out_and_seed_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(small_run_text(tmp_path / "ignored", t_end=2))
    out = tmp_path / "actual"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "probe.csv").exists()
    assert not (tmp_path / "ignored").exists()

    other = tmp_path / "seeded"
    assert main(["simulate", "--config", str(cfg), "--out", str(other), "--seed", "9"]) == 0
    capsys.readouterr()
    assert (out / "probe.csv").read_bytes() != (other / "probe.csv").read_bytes()


def test_thread_cap(monkeypatch):
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("B4_THREADS", "3")
    assert cli._cap_threads() is None
    import os

    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"

    # Only ASCII digits: int() rejects "²" and reads "٣" as 3.
    monkeypatch.delenv("OMP_NUM_THREADS")
    for cap in ("zero", "\u00b2", "\u0663"):
        monkeypatch.setenv("B4_THREADS", cap)
        assert "positive integer" in cli._cap_threads()
    assert "OMP_NUM_THREADS" not in os.environ
    proc = run_module(["--help"], B4_THREADS="\u00b2")
    assert proc.returncode == 1
    assert proc.stderr == "b4: B4_THREADS must be a positive integer, got '\u00b2'\n"

    monkeypatch.setattr(cli, "_THREAD_CAP_ERROR", "bad cap")
    assert main(["--help"]) == 1


def run_module(args, **env):
    """``python -m b4.cli`` with args, in a child that imports the b4 under
    test, installed or not, with env added to its environment."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "b4.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def test_module_entry_point():
    proc = run_module(["--help"])
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
