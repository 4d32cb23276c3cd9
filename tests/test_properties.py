"""Property tests of the two loaders and the config resolver: whatever bytes
they are given, the loaders return a result or raise ValueError, never another
exception, and each ValueError names the file it read; whatever overrides it is
given, the resolver returns finite float settings or raises ValueError."""

import math
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mirec import config as cm
from mirec import data as d
from mirec import model as m

# derandomized and bounded, so every run tries the same 150 inputs per test
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# rows shaped like a log, with tokens that may hold delimiters, quotes and
# NUL, timestamps in and out of int64, and fields around csv's 131072-character limit
TOKEN = st.text(min_size=1, max_size=6)
LONG_FIELD = st.integers(min_value=131000, max_value=131200).map(lambda n: "x" * n)
INT64_EDGES = st.one_of(st.integers(min_value=-2**63, max_value=2**63 - 1),
                        st.integers(min_value=2**63, max_value=2**64),
                        st.integers(min_value=-2**64, max_value=-2**63 - 1))
STAMP = INT64_EDGES.map(str) | st.text(max_size=4)
ROW = st.tuples(TOKEN | LONG_FIELD, TOKEN, STAMP).map("\t".join)
LOG_BYTES = st.binary(max_size=256) | st.lists(ROW, min_size=1, max_size=4).map(
    lambda rows: "\n".join(rows).encode("utf-8"))


def _splice(blob, at, insert):
    at %= len(blob) + 1
    return blob[:at] + insert + blob[at:]


# logs with bytes spliced in that are not UTF-8 on their own: a lone
# continuation byte, a truncated lead byte, an encoded surrogate, or 0xff
BAD_UTF8 = st.sampled_from([b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff"])
NON_UTF8_LOG_BYTES = st.builds(_splice, LOG_BYTES, st.integers(min_value=0), BAD_UTF8)

# `key=value` overrides over every config key, with values that are numbers,
# non-finite spellings, or any short text
CONFIG_KEY = st.sampled_from([f.name for f in fields(cm.RunConfig)])
CONFIG_VALUE = (st.floats().map(repr) | st.integers().map(str)
                | st.sampled_from(["nan", "-NaN", "inf", "-inf", "Infinity", "1e400"])
                | st.text(max_size=8))
OVERRIDES = st.lists(st.tuples(CONFIG_KEY, CONFIG_VALUE).map("=".join), max_size=4)

# checkpoint headers with the right magic and version, or none; dims are small
# enough to load or big enough that a product of two passes 2**63
DIM = st.integers(min_value=0, max_value=3) | st.integers(min_value=2**31, max_value=2**32 - 1)
HEADER = st.tuples(*[DIM] * 6).map(
    lambda dims: struct.pack("<8s7I", m.CHECKPOINT_MAGIC, m.CHECKPOINT_VERSION, *dims))
CHECKPOINT_BYTES = st.binary(max_size=256) | st.tuples(HEADER, st.binary(max_size=512)).map(
    b"".join)


@PROPERTY
@given(LOG_BYTES)
def test_ingest_loads_or_raises_value_error(tmp_path, blob):
    path = tmp_path / "log.tsv"
    path.write_bytes(blob)
    try:
        log = d.ingest(str(path))
    except ValueError:
        return
    assert len(log) > 0


@PROPERTY
@given(LOG_BYTES | NON_UTF8_LOG_BYTES)
def test_every_ingest_error_names_the_path(tmp_path, blob):
    path = tmp_path / "log.tsv"
    path.write_bytes(blob)
    try:
        d.ingest(str(path))
    except ValueError as exc:
        assert str(path) in str(exc)


@PROPERTY
@given(OVERRIDES)
def test_resolved_config_floats_are_finite(overrides):
    try:
        config = cm.default_config(overrides)
    except ValueError:
        return
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float):
            assert math.isfinite(value), f"{f.name} = {value!r}"


@PROPERTY
@given(CHECKPOINT_BYTES)
def test_load_checkpoint_loads_or_raises_value_error(tmp_path, blob):
    path = tmp_path / "model.ckpt"
    path.write_bytes(blob)
    try:
        params = m.load_checkpoint(str(path))
    except ValueError as exc:
        assert "checkpoint" in str(exc)  # rejected by the loader's own checks
        return
    head = struct.calcsize("<8s7I")
    assert head + sum(t.value.nbytes for t in params.tensors()) == len(blob)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    hp = m.HyperParams(embed_dim=4, att_hidden_dim=6, recon_hidden_dim=3,
                       num_interests=2, max_seq_len=3, temperature=0.5)
    params = m.ModelParams.init(7, hp, np.random.default_rng(0))
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    m.save_checkpoint(params, str(path))
    return path.read_bytes()


@PROPERTY
@given(st.data())
def test_every_truncated_checkpoint_is_rejected(tmp_path, checkpoint_bytes, data):
    size = data.draw(st.integers(min_value=0, max_value=len(checkpoint_bytes) - 1))
    path = tmp_path / "model.ckpt"
    path.write_bytes(checkpoint_bytes[:size])
    with pytest.raises(ValueError, match="checkpoint"):
        m.load_checkpoint(str(path))
