"""Outside-in per-layer trace of the b4 modules.

Timing wrappers replace layer functions at the module attribute where
each caller looks them up, so nothing under ``src/`` changes:

- ``b4.solver``: ``laplacian``, ``reaction_fields`` (a ``b4.model``
  function, counted for that layer) and ``stability_limit``;
- ``b4.cli``: the ``run_*`` runners, and the ``simulate``,
  ``save_checkpoint``, ``initial_condition``, ``stability_limit`` and
  ``dimension_bounds`` names it imported;
- every public ``b4.tsa`` function, under both ``b4.tsa`` and ``b4.cli``;
- ``b4.spectral.unstable_mode_count``;
- the ``b4.functionals`` names bound in ``b4.cli``.

Each call records a span (name, start, end, parent) in memory; spans
are written out after the run and the original functions restored.  A
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import os
import time
from array import array
from collections import defaultdict

import numpy as np

import workloads

# Per-layer metrics in output order, with their units.
UNITS = {
    "model.reaction_fields.calls": "count",
    "model.reaction_fields.self_s": "s",
    "solver.laplacian.calls": "count",
    "solver.laplacian.self_s": "s",
    "solver.simulate.calls": "count",
    "solver.simulate.self_s": "s",
    "solver.stability_limit.calls": "count",
    "solver.save_checkpoint.self_s": "s",
    "solver.checkpoint_bytes": "B",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "tsa.correlation_integral.calls": "count",
    "tsa.correlation_integral.self_s": "s",
    "tsa.correlation_integral.pairs": "count",
    "tsa.correlation_integral.repeat_frac": "frac",
    "tsa.radii_grid.self_s": "s",
    "tsa.albano_dimension.self_s": "s",
    "tsa.largest_lyapunov.self_s": "s",
    "tsa.svd_reduce.self_s": "s",
    "tsa.embed.calls": "count",
    "spectral.unstable_mode_count.self_s": "s",
    "spectral.modes": "count",
    "functionals.self_s": "s",
    "functionals.sylvester_minors.calls": "count",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}

FUNCTIONALS_IN_CLI = (
    "coupling_constants",
    "feasible_triple",
    "sequences_for_triple",
    "brqp_matrix",
    "sylvester_minors",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self.codes = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = defaultdict(int)
        self.seen_ci = set()
        self.patched = []
        self.wrappers = {}

    def _wrap(self, span_name, fn, after):
        code = self.codes.setdefault(span_name, len(self.codes))
        if code == len(self.names):
            self.names.append(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(code)
            self.parent.append(self.stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr, span_name, after=None):
        fn = getattr(module, attr)
        if id(fn) not in self.wrappers:
            self.wrappers[id(fn)] = self._wrap(span_name, fn, after)
        self.patched.append((module, attr, fn))
        setattr(module, attr, self.wrappers[id(fn)])

    def restore(self):
        for module, attr, fn in reversed(self.patched):
            setattr(module, attr, fn)
        self.patched.clear()

    # -- counters taken after a call returns, outside its span

    def _correlation_integral(self, args, kwargs, result):
        points = np.asarray(_arg(args, kwargs, 0, "points"), dtype=float)
        radii = np.asarray(_arg(args, kwargs, 1, "radii"), dtype=float)
        window = int(_arg(args, kwargs, 2, "theiler_window", 0))
        usable = points.shape[0] - (window + 1)
        self.counters["tsa.correlation_integral.pairs"] += usable * (usable + 1) // 2
        digest = hashlib.sha256()
        for part in (points, radii):
            digest.update(repr(part.shape).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        digest.update(str(window).encode())
        key = digest.digest()
        self.counters["tsa.correlation_integral.repeats"] += key in self.seen_ci
        self.seen_ci.add(key)

    def _unstable_mode_count(self, args, kwargs, result):
        self.counters["spectral.modes"] += int(_arg(args, kwargs, 3, "max_modes"))

    def _save_checkpoint(self, args, kwargs, result):
        self.counters["solver.checkpoint_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _runner(self, args, kwargs, result):
        self.counters["cli.bytes_written"] += sum(
            os.path.getsize(p) for p in result if not str(p).endswith(".ck")
        )

    def install(self):
        import b4.cli as cli
        import b4.solver as solver
        import b4.spectral as spectral
        import b4.tsa as tsa

        for attr in ("laplacian", "stability_limit"):
            self.patch(solver, attr, f"solver.{attr}")
        self.patch(solver, "reaction_fields", "model.reaction_fields")
        for attr in ("simulate", "initial_condition", "stability_limit"):
            self.patch(cli, attr, f"solver.{attr}")
        self.patch(cli, "save_checkpoint", "solver.save_checkpoint", self._save_checkpoint)
        for attr in ("run_simulate", "run_analyze", "run_bounds", "run_feasibility"):
            self.patch(cli, attr, f"cli.{attr}", self._runner)
        for attr, fn in inspect.getmembers(tsa, inspect.isfunction):
            if attr.startswith("_") or fn.__module__ != tsa.__name__:
                continue
            after = self._correlation_integral if attr == "correlation_integral" else None
            self.patch(tsa, attr, f"tsa.{attr}", after)
            if getattr(cli, attr, None) is fn:
                self.patch(cli, attr, f"tsa.{attr}", after)
        self.patch(spectral, "unstable_mode_count", "spectral.unstable_mode_count", self._unstable_mode_count)
        self.patch(cli, "dimension_bounds", "spectral.dimension_bounds")
        for attr in FUNCTIONALS_IN_CLI:
            self.patch(cli, attr, f"functionals.{attr}")

    def summary(self):
        """Per span name: (calls, total self seconds)."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, code in enumerate(self.name):
            name = self.names[code]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for i, code in enumerate(self.name):
                fh.write(f"{self.names[code]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n")


def run_in_process(prepared, out_root):
    """Run every invocation through ``b4.cli.main`` here: (wall s, problems, failed)."""
    import b4.cli

    wall, problems, failed = 0.0, [], 0
    for inv in prepared.invocations:
        argv = inv.stage(out_root)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            t0 = time.perf_counter()
            code = b4.cli.main(argv)
            wall += time.perf_counter() - t0
        found = [f"{inv.command} exited {code}: {err.getvalue().strip()}"] if code else []
        found += workloads.check_outputs(inv, out_root / inv.out)
        problems += [f"{inv.out}: {p}" for p in found]
        failed += bool(found)
    return wall, problems, failed


def layer_metrics(tracer, traced_wall, untraced_wall):
    calls, self_s = tracer.summary()
    c = tracer.counters
    ci_calls = calls["tsa.correlation_integral"]
    m = {
        "model.reaction_fields.calls": calls["model.reaction_fields"],
        "model.reaction_fields.self_s": self_s["model.reaction_fields"],
        "solver.laplacian.calls": calls["solver.laplacian"],
        "solver.laplacian.self_s": self_s["solver.laplacian"],
        "solver.simulate.calls": calls["solver.simulate"],
        "solver.simulate.self_s": self_s["solver.simulate"],
        "solver.stability_limit.calls": calls["solver.stability_limit"],
        "solver.save_checkpoint.self_s": self_s["solver.save_checkpoint"],
        "solver.checkpoint_bytes": c["solver.checkpoint_bytes"],
        "cli.self_s": sum((v for k, v in self_s.items() if k.startswith("cli.")), 0.0),
        "cli.bytes_written": c["cli.bytes_written"],
        "tsa.correlation_integral.calls": ci_calls,
        "tsa.correlation_integral.self_s": self_s["tsa.correlation_integral"],
        "tsa.correlation_integral.pairs": c["tsa.correlation_integral.pairs"],
        "tsa.correlation_integral.repeat_frac": (
            c["tsa.correlation_integral.repeats"] / ci_calls if ci_calls else 0.0
        ),
        "tsa.radii_grid.self_s": self_s["tsa.radii_grid"],
        "tsa.albano_dimension.self_s": self_s["tsa.albano_dimension"],
        "tsa.largest_lyapunov.self_s": self_s["tsa.largest_lyapunov"],
        "tsa.svd_reduce.self_s": self_s["tsa.svd_reduce"],
        "tsa.embed.calls": calls["tsa.embed"],
        "spectral.unstable_mode_count.self_s": self_s["spectral.unstable_mode_count"],
        "spectral.modes": c["spectral.modes"],
        "functionals.self_s": sum((v for k, v in self_s.items() if k.startswith("functionals.")), 0.0),
        "functionals.sylvester_minors.calls": calls["functionals.sylvester_minors"],
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "trace.coverage_frac": sum(self_s.values()) / traced_wall,
    }
    return {name: (m[name], unit) for name, unit in UNITS.items()}


def run_traced(prepared, run_dir):
    """Untraced then traced in-process run of the workload.

    Returns (metrics, attempted, failed, problems, tracer).
    """
    untraced_wall, problems, failed = run_in_process(prepared, run_dir / "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced_problems, traced_failed = run_in_process(prepared, run_dir / "traced")
    finally:
        tracer.restore()
    problems += traced_problems
    failed += traced_failed
    attempted = 2 * len(prepared.invocations)
    return layer_metrics(tracer, traced_wall, untraced_wall), attempted, failed, problems, tracer
