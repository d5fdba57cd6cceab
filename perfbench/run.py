"""End-to-end benchmark of the ``b4`` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is taken from
``src/``).  With ``--trace 0`` the workload's ``b4`` invocations run as
subprocesses, one at a time from this single client (a closed loop: each
process starts after the previous one exits), repeatedly until the next
repetition would overrun ``--seconds``.  Every output is checked.  With
``--trace 1`` the same invocations run in this process, once untraced
and once with timing wrappers around each layer, and the
per-layer numbers are printed instead (see layertrace.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with provenance, per-repetition figures and the SHA-256
of every output file.  Both are also saved under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

# One BLAS/OpenMP thread for the b4 children (through B4_THREADS) and for
# this process, which imports numpy before b4 on a traced run.
THREADS = "1"
os.environ["B4_THREADS"] = THREADS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Start-ups timed for setup_s before and again after the repetitions, so
# that the median spans the run; the first start-up is an untimed warm-up.
SETUP_REPEATS = 4
# Every child is killed once this many seconds of the run have passed.
DEADLINE_S = 170.0


class B4Runner:
    """Runs ``python -m b4.cli`` children against the checkout's sources."""

    def __init__(self, log_path, deadline):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log_path = log_path
        self.deadline = deadline

    def run(self, args):
        """Run one child to completion: (exit code, wall s, cpu s, max rss MB)."""
        argv = [sys.executable, "-m", "b4.cli", *args]
        with open(self.log_path, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def invoke(self, inv, out_root):
        """Run one invocation and check its outputs: (problems, wall, cpu, rss)."""
        code, wall, cpu, rss = self.run(inv.stage(out_root))
        problems = []
        if code:
            lines = self.log_path.read_text(errors="replace").strip().splitlines()
            problems.append(f"{inv.command} exited {code}: {lines[-1] if lines else ''}")
        problems += workloads.check_outputs(inv, out_root / inv.out)
        return problems, wall, cpu, rss

    def setup_times(self, warm_up=False):
        """Wall seconds of ``b4 --help`` start-ups (interpreter, numpy, import, parse)."""
        times = []
        for _ in range(SETUP_REPEATS + warm_up):
            code, wall, _, _ = self.run(["--help"])
            if code:
                raise RuntimeError(f"b4 --help exited {code}")
            times.append(wall)
        return times[warm_up:]


def provenance(seed, prepared):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(index / n) for n in ("level", "type", "size"))
        caches[f"L{level}_{kind}"] = size
    commit = None  # the benchmark may run from a plain export
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "B4_THREADS": THREADS,
        "seed": seed,
        "workload": prepared.name,
        "shape": prepared.shape,
        "inputs_sha256": prepared.inputs,
    }


def measure(runner, prepared, seconds, run_dir):
    """Repeat the workload until the next repetition would overrun ``seconds``."""
    reps = []
    t0 = time.perf_counter()
    while True:
        out_root = run_dir / f"rep{len(reps)}"
        rep = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "attempted": 0, "failed": 0, "problems": []}
        for inv in prepared.invocations:
            problems, wall, cpu, rss = runner.invoke(inv, out_root)
            rep["wall_s"] += wall
            rep["cpu_s"] += cpu
            rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
            rep["attempted"] += 1
            rep["problems"] += [f"{inv.out}: {p}" for p in problems]
            rep["failed"] += bool(problems)
        rep["outputs_sha256"] = workloads.output_digests(out_root)
        shutil.rmtree(out_root, ignore_errors=True)
        reps.append(rep)
        typical = statistics.median(r["wall_s"] for r in reps)
        if time.perf_counter() - t0 + typical > seconds:
            return reps


def end_to_end(reps, setup, work, attempted, failed):
    return {
        "run_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "work_per_s": (statistics.median(work / r["wall_s"] for r in reps), "1/s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reps), "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "b4" / "cli.py").is_file():
        print(f"perfbench: no b4 sources under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{tag}-pid{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    run_dir.mkdir(parents=True)
    runner = B4Runner(run_dir / "stderr.log", start + DEADLINE_S)
    try:
        prepared = workloads.prepare(args.workload, args.seed, run_dir / "inputs", runner)
        report = {"provenance": provenance(args.seed, prepared), "seconds": args.seconds}
        if args.trace:
            sys.path.insert(0, str(SRC))
            import layertrace  # imports b4 into this process

            metrics, attempted, failed, problems, tracer = layertrace.run_traced(prepared, run_dir)
            tracer.write(results / f"{tag}.spans.csv")
        else:
            setup = runner.setup_times(warm_up=True)
            reps = measure(runner, prepared, args.seconds, run_dir)
            setup += runner.setup_times()
            attempted = sum(r["attempted"] for r in reps)
            failed = sum(r["failed"] for r in reps)
            metrics = end_to_end(reps, setup, prepared.work, attempted, failed)
            problems = [p for r in reps for p in r["problems"]]
            digests = {json.dumps(r["outputs_sha256"], sort_keys=True) for r in reps}
            report.update(
                setup_s=setup,
                repetitions=len(reps),
                reps=[{k: v for k, v in r.items() if k != "outputs_sha256"} for r in reps],
                work=prepared.work,
                work_unit=prepared.work_unit,
                fail_frac=failed / attempted,
                outputs_identical_across_reps=len(digests) == 1,
                outputs_sha256=reps[0]["outputs_sha256"],
            )
        report["problems"] = problems
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report["result"] = result
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
