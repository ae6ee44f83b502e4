"""Mutation fuzz guard: a damaged sketch file or TSV input ends in a
documented exit code, never a traceback.

A sketch file mutant changes 1-4 bytes outside the magic, the version and the
CRC32, and then gets a valid CRC32 again, so that it reaches the read checks
behind the checksum. ``estimate`` of it, and ``merge`` of it with its
original, exit 0 (a changed outkey or an in-range value is a valid file), 2
(malformed) or 3 (headers that do not match). A TSV mutant changes 1-4 bytes
of a build's input, and the build exits 0 or 2.
"""

import io
import zlib
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsketch.cli import main
from capsketch.sketchfile import _HEAD, _START
from test_golden import ROUTES

TSV = b"".join(b"k%d\t%d\n" % (i % 50, 1 + i % 3) for i in range(60))
SIZES = ["--r", "3", "--k", "8", "--epsilon", "0.5"]
# each mutation: a position (taken modulo the mutable span), whether to flip
# one bit of the byte there or to set it, and the bit or the byte
MUTATIONS = st.lists(
    st.tuples(st.integers(0, 2**16), st.booleans(), st.one_of(st.sampled_from(b"\t\n\r-+.e0159naif\x00\xff"), st.integers(0, 255))),
    min_size=1,
    max_size=4,
)


def quiet(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one ``main`` call."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def mutate(data: bytes, positions: list[int], mutations) -> bytearray:
    out = bytearray(data)
    for at, flip, value in mutations:
        i = positions[at % len(positions)]
        out[i] = out[i] ^ (1 << value % 8) if flip else value
    return out


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A directory holding the TSV, and each route's file bytes built from it."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "in.tsv").write_bytes(TSV)
    files = {}
    for route, (mode, stat) in ROUTES.items():
        path = d / f"{route}.fsk"
        assert quiet(["build", str(d / "in.tsv"), "--mode", mode, "--stat", stat, *SIZES, "-o", str(path)])[0] == 0
        files[route] = path.read_bytes()
    return d, files


@pytest.mark.parametrize("route", sorted(ROUTES))
@settings(max_examples=200, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_sketch_file_exits_0_2_or_3(built, route, mutations):
    d, files = built
    original = files[route]
    # the header after its magic and version, then the descriptor and the body
    positions = [*range(6, _HEAD.size), *range(_START, len(original))]
    data = mutate(original, positions, mutations)
    data[_HEAD.size : _START] = zlib.crc32(data[_START:], zlib.crc32(data[: _HEAD.size])).to_bytes(4, "little")
    mutant = d / f"mutant-{route}.fsk"
    mutant.write_bytes(data)
    for argv in (["estimate", str(mutant)], ["merge", str(mutant), str(d / f"{route}.fsk"), "-o", str(d / "merged.fsk")]):
        code, err = quiet(argv)
        assert code in (0, 2, 3), argv
        assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1), err


@pytest.mark.parametrize("route", sorted(ROUTES))
@settings(max_examples=100, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_build_input_exits_0_or_2(built, route, mutations):
    d, _ = built
    mode, stat = ROUTES[route]
    (d / f"mutant-{route}.tsv").write_bytes(mutate(TSV, range(len(TSV)), mutations))
    code, err = quiet(["build", str(d / f"mutant-{route}.tsv"), "--mode", mode, "--stat", stat, *SIZES, "-o", str(d / "out.fsk")])
    assert code in (0, 2)
    assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1), err
