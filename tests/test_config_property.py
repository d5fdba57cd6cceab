"""Property tests: config text round trip and range checks.

The valid ranges are written out here rather than read from b4.cli, so
the tests check the parser against an independent statement of them.
"""

import dataclasses
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b4.cli import _CHECKS, ConfigError, RunConfig, parse_config, serialize

POSITIVE = st.one_of(
    st.sampled_from([1e-300, 5e-324, 1.7976931348623157e308]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
NONNEG = st.one_of(st.just(0.0), POSITIVE)
NONNEG_INT = st.integers(min_value=0, max_value=2**70)
# Values are stripped and cut at "#" when parsed, so paths avoid both.
TEXT = st.text(alphabet=string.ascii_letters + string.digits + "._-/= ", max_size=24).map(
    str.strip
)

VALID = {
    **{name: POSITIVE for name in ("alpha", "beta", "D1", "D2", "D3", "D4", "a", "b", "c", "d")},
    "nx": st.integers(min_value=1, max_value=2**70),
    "ny": st.integers(min_value=1, max_value=2**70),
    "Lx": POSITIVE,
    "Ly": POSITIVE,
    "bc": st.sampled_from(["neumann", "dirichlet0"]),
    "dt": st.one_of(st.none(), POSITIVE),
    "t_end": POSITIVE,
    "record_every": st.integers(min_value=1, max_value=2**70),
    "probe_ix": NONNEG_INT,
    "probe_iy": NONNEG_INT,
    "ic_amplitude": NONNEG,
    "ic_seed": st.integers(min_value=0, max_value=2**64 - 1),
    "snapshot_every": NONNEG_INT,
    "resume_from": TEXT,
    "out_dir": TEXT,
    "series_file": TEXT,
    "series_column": st.sampled_from("uvwz"),
    "max_modes": st.integers(min_value=1, max_value=2**70),
}

CONFIGS = st.fixed_dictionaries(VALID).map(lambda values: RunConfig(**values))

# One out-of-range value per range check, with the message it must give.
OUT_OF_RANGE = [
    ("D1", "0", "must be positive"),
    ("dt", "-1e-300", "must be positive"),
    ("ic_amplitude", "-5e-324", "must be non-negative"),
    ("nx", "0", "must be at least 1"),
    ("ic_seed", str(2**64), "must fit in an unsigned 64-bit integer"),
    ("ic_seed", "-1", "must fit in an unsigned 64-bit integer"),
    ("bc", "periodic", "must be one of"),
    ("series_column", "t", "must be one of u, v, w, z"),
]


def test_strategies_cover_every_key():
    assert set(VALID) == {f.name for f in dataclasses.fields(RunConfig)}


def test_every_range_check_has_a_key_and_a_case():
    # A range check whose last key is gone would otherwise stay behind.
    checks = {f.name: f.metadata.get("check") for f in dataclasses.fields(RunConfig)}
    assert set(_CHECKS) <= set(checks.values())
    assert set(_CHECKS) <= {checks[key] for key, _, _ in OUT_OF_RANGE}


@given(CONFIGS)
def test_serialize_parse_round_trip(cfg):
    assert parse_config(serialize(cfg)) == cfg


@pytest.mark.parametrize("key, raw, message", OUT_OF_RANGE)
@settings(max_examples=20)
@given(cfg=CONFIGS, position=st.integers(min_value=0, max_value=len(VALID)))
def test_out_of_range_value_names_its_line(key, raw, message, cfg, position):
    lines = serialize(cfg).splitlines()
    lines.insert(position, f"{key} = {raw}")
    with pytest.raises(ConfigError, match=rf"^line {position + 1}: {key} {message}"):
        parse_config("\n".join(lines))


# str values that would come back otherwise, or not at all: a "#" cuts
# the line, a line break starts a new one, and blanks are stripped.
UNSERIALIZABLE = [
    ("out_dir", "runs/#3"),
    ("out_dir", "a\nnx = 3"),
    ("resume_from", "a\rb"),
    ("series_file", "a\u2028b"),
    ("series_file", " padded"),
    ("resume_from", "padded\t"),
]


@pytest.mark.parametrize("key, value", UNSERIALIZABLE)
def test_serialize_rejects_a_str_that_does_not_parse_back(key, value):
    cfg = dataclasses.replace(RunConfig(), **{key: value})
    try:
        back = getattr(parse_config(f"{key} = {value}\n"), key)
    except ConfigError:
        back = None
    assert back != value
    with pytest.raises(ValueError, match=rf"^{key} = "):
        serialize(cfg)
