"""The layer trace of ``perfbench/`` against the names it patches.

``perfbench/layertrace.py`` replaces b4 functions by module attribute
(``solver.laplacian``, ``cli.stability_limit``, ``cli.feasible_triple``,
...), so a renamed or deleted function breaks ``perfbench/run.py
--trace 1``.  This test installs the tracer and restores it, and fails
on a missing name instead.
"""

import ast
import sys
from pathlib import Path

import b4.cli
import b4.solver
import b4.spectral
import b4.tsa

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layertrace  # noqa: E402

MODULES = (b4.cli, b4.solver, b4.spectral, b4.tsa)


def callables(module):
    return {name: obj for name, obj in vars(module).items() if callable(obj)}


def test_tracer_patches_its_names_and_restores_every_callable():
    before = [callables(module) for module in MODULES]
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert tracer.patched
        for module, attr, fn in tracer.patched:
            assert getattr(module, attr) is not fn, f"{module.__name__}.{attr} not wrapped"
    finally:
        tracer.restore()
    for module, saved in zip(MODULES, before):
        assert callables(module) == saved, module.__name__


def test_cli_reads_every_functionals_import_the_tracer_does_not_patch():
    # b4.cli keeps some b4.functionals names only for the tracer to patch
    # there.  Any other name it imports and never reads is dead, and so
    # is a tracer-only name the tracer stops patching.
    tree = ast.parse(Path(b4.cli.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "functionals"
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        patched = {attr for module, attr, _ in tracer.patched if module is b4.cli}
    finally:
        tracer.restore()
    tracer_only = {"brqp_matrix", "sequences_for_triple", "sylvester_minors"}
    assert imported - read == patched - read == tracer_only


def test_reaction_calls_count_the_integrated_steps(tmp_path, capsys):
    # perfbench reads model.reaction_fields.calls as the step count, so the
    # solver must call it once per step it takes, fresh or resumed.
    config = tmp_path / "chain.cfg"
    out = tmp_path / "out"

    def traced_simulate(t_end, extra=""):
        config.write_text(
            "nx = 20\nny = 1\nLx = 19\nLy = 1\nrecord_every = 24\n"
            f"t_end = {t_end}\nout_dir = {out}\n{extra}"
        )
        tracer = layertrace.Tracer()
        try:
            tracer.install()
            assert b4.cli.main(["simulate", "--config", str(config)]) == 0
        finally:
            tracer.restore()
        calls, _ = tracer.summary()
        return calls["model.reaction_fields"]

    # dt is 1/24, so t = 10 is step 240.
    assert traced_simulate(10) == 240
    assert traced_simulate(15, f"resume_from = {out / 'checkpoint.ck'}\n") == 120


def test_main_looks_its_runners_up_when_it_runs(tmp_path, capsys):
    # The tracer wraps cli.run_bounds after b4.cli is imported; a main that
    # bound its runners at import would call the unwrapped one, and the
    # cli.run_* spans and cli.bytes_written would read 0.
    config = tmp_path / "bounds.cfg"
    config.write_text(f"max_modes = 50\nout_dir = {tmp_path / 'out'}\n")
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert b4.cli.main(["bounds", "--config", str(config)]) == 0
    finally:
        tracer.restore()
    calls, _ = tracer.summary()
    assert calls["cli.run_bounds"] == 1
    written = (tmp_path / "out" / "bounds.csv").stat().st_size
    assert tracer.counters["cli.bytes_written"] == written
