"""Golden SHA-256 digests of the solver and of the four commands' outputs.

The digests pin outputs bit for bit, so a refactor of the solver, the
stencil, the pair count, the mode census, the feasibility sweep or the
CSV writers must leave every value here unchanged.  They
were taken with numpy 2.4.6; another numpy build may round some ufunc
differently and legitimately need new digests.
"""

import hashlib
import math
import random
import shutil
from dataclasses import replace
from unittest import mock

import numpy as np

from b4 import tsa
from b4.cli import parse_config, run_analyze, run_bounds, run_feasibility, run_simulate
from b4.model import SystemParams, stationary_solution
from b4.solver import SolverConfig, initial_condition
from b4.tsa import albano_dimension, largest_lyapunov
from test_solver import simulate_records

# The byte-identity run of the acceptance suite.
SMALL_RUN = """
nx = 64
ny = 1
Lx = 63
Ly = 1
t_end = 40
record_every = 12
snapshot_every = 480
ic_amplitude = 0.001
ic_seed = 11
"""

SMALL_RUN_SHA256 = {
    "probe.csv": "6a331ab6d082aa1bd5d04cce117a266ac21f30066b7843445a03bc0917d85355",
    "norms.csv": "8a1f28e972fd44a935bb580ce461c65abd3d58c1349dc25ff7c6a81c867f112e",
    "snapshot_0.csv": "13ff5cc386de7d66cf27755da5940614ef1fb33b3c7fbe4f4135fc17501d9d61",
    "snapshot_20.csv": "699d055be279f30417fe68b27868a272b574bfe098f7f468de7789dce7013e4f",
    "snapshot_40.csv": "bc7bd8ed5dfd3f93cea8f7c4e1ca7401a0b45daec37006fcb0c8f7897ea6a9f3",
    "checkpoint.ck": "04b75402b1e2a34f94bcbbfece5eb40481f2a0be7c678bf3d6bac31170689d28",
}

# A 2-D run with zero walls and diffusion strong enough that the
# stencil moves every digit; record_every does not divide the resume
# step (96) and snapshot_every does not divide it either.
SHEET_RUN = """
nx = 12
ny = 9
Lx = 11
Ly = 8
bc = dirichlet0
a = 0.05
b = 0.1
c = 0.15
d = 0.2
record_every = 10
snapshot_every = 60
ic_amplitude = 0.01
ic_seed = 5
"""

SHEET_RUN_SHA256 = {
    "probe.csv": "8ae75476ec17c514f02cbe09fe2aa2efc5f33122c79b70f4ed920eb6a38803bd",
    "norms.csv": "8b6f61454f26a0f5ce26b83a76c15e33225113294c215939042e2e764db89d29",
    "snapshot_0.csv": "90645a89e7165899bbbe108d9482bfd88062cd2ebbe7935e563a5f2ce729a212",
    "snapshot_2.5.csv": "9376070d3b293393fccfdb0336ae5667fbb7b215786a9268541afafbc1de3f07",
    "snapshot_5.csv": "7efa24dff70cf4d340113e8cf6f1966249c33349772af3d00294ae849acb3242",
    "snapshot_7.5.csv": "3748e0ef63268a8153ce9f27fb6911cbfda885651e48efda58af7e272a184aa2",
    "snapshot_10.csv": "4dacfb945ed9f2a12a4ed4a28a982ffba01a50b8b6cdb141732403ff047d44a3",
    "checkpoint.ck": "6a9e866bfbba9a1374474ee0a37aefc2fb444d197597b472013c55a8d23f7cc1",
}

CHAIN_PROBE_SHA256 = "c93ae15593e95edbbbd996ae1cb578930f8fe006c461e49c0e9e251a16f7fdd7"
CHAIN_FINAL_SHA256 = "4ccc26defbd4fad6e06d4fc9aa9d6f1f9a98db872cadbea5dc07f3b7b7070d31"

# The x coordinate of the Henon map from a seeded start, rounded to
# three decimals so that the embedding holds repeated vectors and tied
# pair distances.
HENON_ANALYZE_SHA256 = {
    "acf.csv": "70e1b9f7cc31ba761b27e6fe50b2351aa68c9acfc0f449f3859ea15f00cd3c1a",
    "cint.csv": "0b3bd5995a6f45f53098408b0616755056fb2feba9ad90e41a1ecb6b4ebf572e",
    "report.csv": "b0546f1c81fe70e9ea51f78a634cd21ced671ade8b94c80621c05168a15012e0",
}

# d, fit_r2, the kept singular values and lambda1, then the radii and C
# of the chosen fit, for the x coordinate of the Lorenz flow sampled
# every 0.05 time units.  MAX_POINTS = 500 embeds every third of the
# 1,500 samples, and the divergence curve rises for 18 embedded steps
# before it saturates, so lambda1 is fitted on the rising branch.
LORENZ_STRIDED_SHA256 = "bf5156ed46ab07e82feed3f7a1d3e2d416c0304ff77b7803e01f572ddfff0f09"

# bounds.csv and feasibility.csv of three seeded draws in the ranges of
# the benchmark's scan (beta in [5.6, 6.2], a..d in [1e-6, 1e-5], a
# square of side pi, 120,000 modes), then of the first draw on the
# interval (N = 1), keyed by (seed, N).  Seeds 1 and 3 count fewer
# unstable modes than the census holds, so their counts pin its pieces.
SCAN_MODES = 120_000
SCAN_SHA256 = {
    (1, 2): {
        "bounds.csv": "65195ce116140fd8af755d434a30df16d1376cf8774c4bed733677e7d9980e3d",
        "feasibility.csv": "7bac4c97297ab8701c662b71c0b16621abe5ee93b10d6aca133b1ae8b09687d0",
    },
    (2, 2): {
        "bounds.csv": "631f304609615803c6de6d58fe91ed2c1b6869f8688ee3f380d0f0e3438b8892",
        "feasibility.csv": "2517b7d37b80af5c34389fdac8319e6d4dbfa204923029e1154419655b3f6c6c",
    },
    (3, 2): {
        "bounds.csv": "216cd472a20c4ef52cf2fb43cca1582cba87ecba9c826d125eb9e60677406630",
        "feasibility.csv": "10d0f4a064e0b2e99d550703c1bbda847975f37abd3c174d384101c95e5f7dc9",
    },
    (1, 1): {
        "bounds.csv": "bdb6b3b3f02f6fca8fba36aa17c9cb19b46b98288f3720b7f0f35a055ca0fddc",
        "feasibility.csv": "7bac4c97297ab8701c662b71c0b16621abe5ee93b10d6aca133b1ae8b09687d0",
    },
}


def scan_config(seed, N):
    rng = random.Random(seed)
    keys = {"beta": rng.uniform(5.6, 6.2)}
    for name in ("a", "b", "c", "d"):
        keys[name] = rng.uniform(1e-6, 1e-5)
    keys.update(Lx=math.pi, Ly=math.pi, N=N, max_modes=SCAN_MODES)
    return parse_config("".join(f"{k} = {v!r}\n" for k, v in keys.items()))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digests(paths):
    return {p.name: sha256(p.read_bytes()) for p in paths}


def test_small_run_outputs_are_pinned(tmp_path):
    config = replace(parse_config(SMALL_RUN), out_dir=str(tmp_path))
    assert digests(run_simulate(config)) == SMALL_RUN_SHA256


def test_sheet_run_outputs_are_pinned_straight_and_resumed(tmp_path):
    config = parse_config(SHEET_RUN + "t_end = 10\n")
    straight = run_simulate(replace(config, out_dir=str(tmp_path / "straight")))
    assert digests(straight) == SHEET_RUN_SHA256

    split = tmp_path / "split"
    run_simulate(replace(config, t_end=4.0, out_dir=str(split)))
    shutil.copy(split / "checkpoint.ck", tmp_path / "half.ck")
    resumed = replace(config, out_dir=str(split), resume_from=str(tmp_path / "half.ck"))
    run_simulate(resumed)
    assert digests(split / name for name in SHEET_RUN_SHA256) == SHEET_RUN_SHA256


def test_chain_probe_series_and_final_fields_are_pinned():
    params = SystemParams(a=0.02, b=0.04, c=0.06, d=0.08)
    state = initial_condition(40, 1, 0.5, 1.0, stationary_solution(params), 0.05, seed=3)
    cfg = SolverConfig(dt=1.0 / 24.0, t_end=20.0, record_every=1, probe=(7, 0))
    records, final_state = simulate_records(state, params, cfg)
    # (t, u, v, w, z) at every step, as a (481, 5) float64 array
    probe = np.array([(rec.t, *rec.probe_values) for rec in records])
    assert sha256(probe.tobytes()) == CHAIN_PROBE_SHA256
    final = b"".join(f.tobytes() for f in final_state.data)
    assert sha256(final) == CHAIN_FINAL_SHA256


def henon_series(n, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-0.1, 0.1, 2)
    out = np.empty(n + 100)
    for i in range(out.size):
        x, y = 1.0 - 1.4 * x * x + y, 0.3 * x
        out[i] = x
    return np.round(out[100:], 3)


def test_analyze_outputs_are_pinned(tmp_path):
    x = henon_series(1500, seed=2)
    t = np.arange(x.size) * 0.5
    series = tmp_path / "henon.csv"
    series.write_text("t,u\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, x)))
    config = parse_config(f"out_dir = {tmp_path / 'an'}\nseries_file = {series}\n")
    assert digests(run_analyze(config)) == HENON_ANALYZE_SHA256


def lorenz_series(n, seed, spacing=0.05, substeps=5):
    rng = np.random.default_rng(seed)
    state = np.array([1.0, 1.0, 20.0]) + rng.uniform(-1.0, 1.0, 3)

    def rate(s):
        x, y, z = s
        return np.array([10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z])

    h = spacing / substeps
    out = np.empty(n + 200)
    for i in range(out.size):
        for _ in range(substeps):
            k1 = rate(state)
            k2 = rate(state + 0.5 * h * k1)
            k3 = rate(state + 0.5 * h * k2)
            k4 = rate(state + h * k3)
            state = state + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i] = state[0]
    return out[200:]


def test_strided_estimates_are_pinned():
    spacing = 0.05
    x = lorenz_series(1500, seed=1, spacing=spacing)
    with mock.patch.object(tsa, "MAX_POINTS", 500):
        report = albano_dimension(x)
    lam = largest_lyapunov(report.embedding, spacing)
    assert report.embedding.l == 3
    values = np.array([report.d, report.fit_r2, *report.singular_values, lam])
    data = b"".join(a.tobytes() for a in (values, report.radii, report.C))
    assert sha256(data) == LORENZ_STRIDED_SHA256


def test_scan_outputs_are_pinned(tmp_path):
    for (seed, N), want in SCAN_SHA256.items():
        config = replace(scan_config(seed, N), out_dir=str(tmp_path / f"{seed}-{N}"))
        assert digests(run_bounds(config) + run_feasibility(config)) == want, (seed, N)
