"""The one CSV writer against the two writers it replaced.

``oracle_write_csv`` is the per-value row writer and
``oracle_write_snapshot`` the ``np.savetxt`` field dump that ``b4.cli``
used before every file went through ``_write_csv``.  For any rows and
any state, new files and files cut after kept rows must come out byte
for byte as the oracles write them, so the pinned CSV contracts (17
significant digits, ``true``/``false`` flags, integers in full) do not
move.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from b4.cli import ConfigError, _kept_end, _snapshot_rows, _write_csv
from b4.model import BC_DIRICHLET0, BC_NEUMANN, GridState


def oracle_fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def oracle_write_csv(path, header, rows, append=False):
    append = append and path.exists()
    with open(path, "a" if append else "w") as fh:
        if not append:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(oracle_fmt(v) for v in row) + "\n")


def write_kept(path, header, rows, keep=None):
    """``_write_csv`` after the first ``keep`` rows of path, as a resume writes."""
    _write_csv(path, header, rows, at=None if keep is None else _kept_end(path, keep))


def oracle_write_snapshot(path, state):
    rows = np.empty((state.nx, state.ny, 6))
    rows[..., 0] = (np.arange(state.nx) * state.dx)[:, None]
    rows[..., 1] = np.arange(state.ny) * state.dy
    rows[..., 2:] = np.moveaxis(state.data, 0, -1)
    np.savetxt(
        path, rows.reshape(-1, 6), fmt="%.17g", delimiter=",", header="x,y,u,v,w,z", comments=""
    )


special_floats = st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, -2.2e-308,
     1.797e308, -1.797e308, 0.1, 1 / 3]
)
floats = st.one_of(special_floats, st.floats(allow_nan=True, allow_infinity=True))
big_ints = st.sampled_from([2**53 + 1, -(2**53 + 1), 2**63 - 1, -(2**63), 2**64 + 3, 10**30])
values = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(-(2**70), 2**70),
    big_ints,
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 2**64 - 1).map(np.uint64),
    # the feasibility flag
    st.booleans(),
)


@st.composite
def tables(draw):
    """A header, rows to write and rows to append, each cell's type drawn on its own."""
    width = draw(st.integers(1, 10))
    row = st.tuples(*[values] * width)
    header = [f"c{i}" for i in range(width)]
    return header, draw(st.lists(row, max_size=8)), draw(st.lists(row, max_size=4))


@settings(max_examples=200, deadline=None)
@given(table=tables())
def test_rows_are_written_as_the_per_value_writer_wrote_them(tmp_path_factory, table):
    header, rows, more_rows = table
    base = tmp_path_factory.mktemp("rows")
    got, want = base / "got.csv", base / "want.csv"
    # keep = 0 on a missing file writes a new one, as append did.
    for keep, append in ((None, False), (0, True)):
        write_kept(got, header, rows, keep)
        oracle_write_csv(want, header, rows, append=append)
        assert got.read_bytes() == want.read_bytes()
        write_kept(got, header, more_rows, len(rows))
        oracle_write_csv(want, header, more_rows, append=True)
        assert got.read_bytes() == want.read_bytes()
        got.unlink()
        want.unlink()


@settings(max_examples=100, deadline=None)
@given(table=tables(), data=st.data())
def test_keep_cuts_after_the_kept_rows(tmp_path_factory, table, data):
    header, rows, more_rows = table
    keep = data.draw(st.integers(0, len(rows)))
    base = tmp_path_factory.mktemp("keep")
    got, want = base / "got.csv", base / "want.csv"
    _write_csv(got, header, rows)
    write_kept(got, header, more_rows, keep)
    oracle_write_csv(want, header, rows[:keep])
    oracle_write_csv(want, header, more_rows, append=True)
    assert got.read_bytes() == want.read_bytes()


def test_keep_past_the_rows_a_file_holds_is_a_config_error(tmp_path):
    path = tmp_path / "short.csv"
    _write_csv(path, ["t"], [(0.0,), (1.0,)])
    before = path.read_bytes()
    with pytest.raises(ConfigError, match="short.csv"):
        write_kept(path, ["t"], [(2.0,)], 3)
    assert path.read_bytes() == before
    # A row cut short, as by a crash during the write, is not kept.
    path.write_bytes(before + b"2.5")
    with pytest.raises(ConfigError, match="short.csv"):
        write_kept(path, ["t"], [(3.0,)], 3)


field_values = st.one_of(
    special_floats, st.floats(-1e6, 1e6), st.floats(allow_nan=True, allow_infinity=True)
)


@st.composite
def states(draw):
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    dx, dy = draw(st.floats(1e-4, 1e4)), draw(st.floats(1e-4, 1e4))
    data = draw(arrays(np.float64, (4, nx, ny), elements=field_values))
    bc = draw(st.sampled_from([BC_NEUMANN, BC_DIRICHLET0]))
    return GridState(nx, ny, dx, dy, *data, bc=bc)


@settings(max_examples=200, deadline=None)
@given(state=states())
def test_snapshots_are_written_as_savetxt_wrote_them(tmp_path_factory, state):
    base = tmp_path_factory.mktemp("snapshot")
    got, want = base / "got.csv", base / "want.csv"
    _write_csv(got, ["x", "y", "u", "v", "w", "z"], _snapshot_rows(state))
    oracle_write_snapshot(want, state)
    assert got.read_bytes() == want.read_bytes()
