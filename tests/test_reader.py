"""The chunked TSV reader of ``capsketch.cli`` against the line-at-a-time
reference: the same keys, key hashes and values, or the same first parse
error, and the same batch splits, so builds keep their bytes."""

import io
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsketch import cli
from capsketch.core import ParseError, hash_key, hash_keys
from capsketch.transforms import parse_statistic
from reference import read_elements

KEYS = st.one_of(
    st.sampled_from([b"", b"a", b"b", b"key 1", b" a", b"\xff"]),
    st.binary(max_size=3).map(lambda b: b.replace(b"\n", b"").replace(b"\t", b"")),
)
VALUES = st.one_of(
    st.none(),  # no tab
    st.sampled_from(
        [b"", b"1", b"2.5", b" 3 ", b"4\r", b"1_000", b"1__0", b"nan", b"inf", b"-inf", b"0", b"-3",
         b"1e-320", b"1e400", b"x", b"\t2", b"+4", b"0x1"]
    ),
    st.binary(max_size=3).map(lambda b: b.replace(b"\n", b"")),
)
LINES = st.one_of(
    st.sampled_from([b"", b"\r"]),  # blank
    st.tuples(KEYS, VALUES).map(lambda kv: kv[0] if kv[1] is None else kv[0] + b"\t" + kv[1]),
)
ENDINGS = st.sampled_from([b"\n", b"\r\n"])


def read_new(path: str, chunk: int):
    """(keys, key hashes, values) through the chunked reader, or its error."""
    keys, hashes, values, sizes = [], [], [], []
    try:
        with mock.patch.object(cli, "CHUNK", chunk):
            for ks, vs in cli._read_chunks(path):
                sizes.append(len(ks))
                keys += ks
                hashes += cli._key_hashes(ks).tolist()
                values += vs.tolist()
    except ParseError as exc:
        return str(exc)
    # every chunk but the last holds exactly CHUNK elements
    assert all(n == chunk for n in sizes[:-1]) and all(0 < n <= chunk for n in sizes)
    return keys, hashes, values


def read_reference(path: str):
    try:
        elements = list(read_elements(path))
    except ParseError as exc:
        return str(exc)
    return [e.key for e in elements], [hash_key(e.key) for e in elements], [e.value for e in elements]


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.tuples(LINES, ENDINGS), max_size=25),
    last_ending=st.booleans(),
    chunk=st.integers(1, 6),
)
def test_reader_matches_reference(tmp_path_factory, lines, last_ending, chunk):
    data = b"".join(line + end for line, end in lines)
    if lines and not last_ending:
        data = data[: -len(lines[-1][1])]
    path = tmp_path_factory.getbasetemp() / "reader.tsv"
    path.write_bytes(data)
    assert read_new(str(path), chunk) == read_reference(str(path))


def test_key_hashes_hash_each_key_once():
    keys = [b"a", b"b", b"a", b"c", b"b", b"a"]
    with mock.patch.object(cli, "hash_keys", wraps=hash_keys) as spy:
        assert cli._key_hashes(keys).tolist() == [hash_key(k) for k in keys]
    assert spy.call_count == 1 and len(spy.call_args[0][0]) == 3


# (--mode, --stat); capT=5 in combination mode takes the signed route.
ROUTES = [("point", "softcapT=2"), ("fullrange", "softcapT=2"), ("combination", "sqrt"), ("combination", "capT=5")]
# r, epsilon, k, seed and ordinal base; small enough that combination files
# depend on where batches split
SIZES = (1, 0.5, 6, 5, 7)
OPTIONS = [f"--{name}={v}" for name, v in zip(("r", "epsilon", "k", "seed", "ordinal-base"), SIZES)]


def boundary_tsv() -> bytes:
    """Repeated keys with float values, blank lines at and between the
    boundaries of 4-element chunks, and a final line without a newline."""
    rows = [b"k%d\t%r" % (i % 17, 0.5 + (i * 7 % 13) / 4) for i in range(41)]
    out = b"\n\r\n"
    for i, row in enumerate(rows):
        out += row + (b"\r\n" if i % 3 else b"\n")
        if i % 4 == 3:
            out += b"\n" * (1 + i % 2)
    return out.rstrip(b"\n")


def reference_build(path: str, mode: str, stat: str, chunk: int) -> bytes:
    """File bytes of a build that reads ``path`` line by line and ingests
    ``chunk`` elements at a time."""
    spec = parse_statistic(stat)
    cls, head = cli._route(mode, spec)
    pipe = cls(*head, *SIZES)
    elements = list(read_elements(path))
    for lo in range(0, len(elements), chunk):
        part = elements[lo : lo + chunk]
        pipe.ingest_batch(hash_keys(e.key for e in part), np.array([e.value for e in part]))
    return pipe.to_bytes(spec.descriptor())


@pytest.mark.parametrize("mode,stat", ROUTES)
def test_chunk_boundaries_keep_build_bytes(tmp_path, capsys, monkeypatch, mode, stat):
    tsv = tmp_path / "in.tsv"
    tsv.write_bytes(boundary_tsv())
    monkeypatch.setattr(cli, "CHUNK", 4)
    out = tmp_path / "out.fsk"
    with mock.patch.object(cli, "_key_hashes", wraps=cli._key_hashes) as spy:
        assert cli.main(["build", str(tsv), "--mode", mode, "--stat", stat, *OPTIONS, "-o", str(out)]) == 0
    assert [len(call.args[0]) for call in spy.call_args_list] == [4] * 10 + [1]
    assert capsys.readouterr().out.startswith("elements: 41\n")
    assert out.read_bytes() == reference_build(str(tsv), mode, stat, 4)


@pytest.mark.parametrize("mode,stat", ROUTES)
def test_build_from_stdin_matches_file(tmp_path, capsys, monkeypatch, mode, stat):
    data = boundary_tsv()
    tsv = tmp_path / "in.tsv"
    tsv.write_bytes(data)
    monkeypatch.setattr(cli, "CHUNK", 4)
    argv = ["build", "--mode", mode, "--stat", stat, *OPTIONS]
    assert cli.main([*argv, str(tsv), "-o", str(tmp_path / "file.fsk")]) == 0
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert cli.main([*argv, "-", "-o", str(tmp_path / "stdin.fsk")]) == 0
    assert (tmp_path / "stdin.fsk").read_bytes() == (tmp_path / "file.fsk").read_bytes()
