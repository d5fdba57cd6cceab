"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout; it takes a few minutes.
It checks that

- the same seed generates byte-identical inputs (configs and the
  ``analyze`` series) and another seed different ones;
- on each workload the traced spans, ``cli.self_s`` included, cover at
  least 90 % of the traced wall time, the span counts match the
  configured work, and the expected layer dominates;
- the benchmark exits non-zero, printing no result, in a directory that
  holds only ``BENCHMARK.json`` and the benchmark's own files.

Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time

import run  # pins threads and puts the benchmark's modules on sys.path
import workloads

sys.path.insert(0, str(run.SRC))
import layertrace  # noqa: E402

COVERAGE_MIN = 0.9
SEED_A, SEED_B = 101, 202

failures = []


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def prepare(name, seed, tag, runner):
    indir = run.WORK / "selftest" / tag / "inputs"
    return workloads.prepare(name, seed, indir, runner)


def check_generation(runner):
    for name in workloads.WORKLOADS:
        first = prepare(name, SEED_A, f"{name}-a1", runner).inputs
        again = prepare(name, SEED_A, f"{name}-a2", runner).inputs
        other = prepare(name, SEED_B, f"{name}-b", runner).inputs
        check(first == again, f"{name}: seed {SEED_A} twice gives identical inputs {sorted(first)}")
        check(
            all(first[k] != other[k] for k in first),
            f"{name}: seed {SEED_B} changes every input",
        )


def check_trace(runner):
    steps = {n: round(k["t_end"] / workloads.DT) for n, k in (("chain1d", workloads.CHAIN1D), ("sheet2d", workloads.SHEET2D))}
    for name in workloads.WORKLOADS:
        prepared = prepare(name, SEED_A, f"{name}-trace", runner)
        metrics, attempted, failed, problems, _ = layertrace.run_traced(prepared, run.WORK / "selftest" / f"{name}-trace")
        m = {k: v for k, (v, _) in metrics.items()}
        check(not failed and not problems, f"{name}: traced outputs pass their checks {problems[:3]}")
        check(
            m["trace.coverage_frac"] >= COVERAGE_MIN,
            f"{name}: spans cover {m['trace.coverage_frac']:.3f} of traced wall time "
            f"(overhead {m['trace.overhead_frac']:+.3f})",
        )
        self_times = {k: v for k, v in m.items() if k.endswith("self_s")}
        top = max(self_times, key=self_times.get)
        if name in steps:
            check(
                m["solver.laplacian.calls"] == 4 * steps[name]
                and m["model.reaction_fields.calls"] == steps[name],
                f"{name}: {m['solver.laplacian.calls']} laplacian and "
                f"{m['model.reaction_fields.calls']} reaction calls for {steps[name]} steps",
            )
        if name == "chain1d":
            check(top == "solver.laplacian.self_s", f"chain1d: top self time is {top}")
        elif name == "sheet2d":
            share = m["cli.self_s"] / sum(self_times.values())
            check(share >= 0.05, f"sheet2d: cli.self_s is {share:.3f} of traced self time")
        elif name == "analyze":
            check(top == "tsa.correlation_integral.self_s", f"analyze: top self time is {top}")
        elif name == "scan":
            check(top == "spectral.unstable_mode_count.self_s", f"scan: top self time is {top}")
            check(
                m["spectral.modes"] == workloads.SCAN_DRAWS * workloads.SCAN_MODES,
                f"scan: {m['spectral.modes']} modes counted",
            )


def check_refuses_without_program():
    bare = run.WORK / "selftest" / "bare"
    bare.mkdir(parents=True)
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain1d", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:80]!r}",
    )


def main():
    shutil.rmtree(run.WORK / "selftest", ignore_errors=True)
    (run.WORK / "selftest").mkdir(parents=True)
    runner = run.B4Runner(run.WORK / "selftest" / "stderr.log", deadline=time.monotonic() + 3600)
    try:
        check_refuses_without_program()
        check_generation(runner)
        check_trace(runner)
    finally:
        shutil.rmtree(run.WORK / "selftest", ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
