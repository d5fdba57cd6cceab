"""The mode enumeration against its earlier form.

``oracle_eigenvalues`` enumerates every Neumann eigenvalue of the
rectangle under four times the cutoff that ``neumann_eigenvalues``
uses, with the same float operations per lattice point, where the old
code grew its cutoff until it held ``count`` values.  The code must
match it byte for byte.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from b4.spectral import neumann_eigenvalues


def oracle_eigenvalues(Lx, Ly, count):
    if Ly is None:
        return math.pi**2 * np.arange(count, dtype=float) ** 2 / Lx**2
    bound = 4.0 * (
        4.0 * math.pi * count / (Lx * Ly) * 1.3
        + 16.0 * math.pi**2 * (1.0 / Lx**2 + 1.0 / Ly**2)
    )
    jj = (np.arange(int(math.sqrt(bound) * Lx / math.pi) + 2, dtype=float) / Lx) ** 2
    kk = (np.arange(int(math.sqrt(bound) * Ly / math.pi) + 2, dtype=float) / Ly) ** 2
    # A million values at a time, keeping the `count` smallest of each block.
    rows = max(1, 2**20 // kk.size)
    kept, under = [], 0
    for start in range(0, jj.size, rows):
        mu = (math.pi**2 * np.add.outer(jj[start : start + rows], kk)).ravel()
        mu = mu[mu <= bound]
        under += mu.size
        kept.append(np.sort(mu)[:count])
    assert under >= count
    return np.sort(np.concatenate(kept))[:count]


sides = st.floats(-2.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None)
@given(
    Lx=sides,
    Ly=st.one_of(st.none(), sides),
    count=st.one_of(st.integers(1, 40), st.integers(1, 30_000)),
)
def test_eigenvalues_equal_the_enumeration_under_four_times_the_cutoff(Lx, Ly, count):
    got = neumann_eigenvalues(Lx, Ly, count)
    assert got.tobytes() == oracle_eigenvalues(Lx, Ly, count).tobytes()
