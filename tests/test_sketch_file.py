"""Hostile sketch files: a truncated, bit-flipped, extended, unknown-mode or
version-1 file makes `estimate` and `merge` exit 2 with an error line, never
a traceback or a changed estimate."""

import io
import struct
import zlib
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsketch import FullRangePipeline, ParseError, PointPipeline
from capsketch.cli import main
from test_golden import ROUTES

# The header up to its CRC32, as the README documents it; the mode byte
# follows the magic and the version.
HEAD = struct.calcsize("<4sHBdIIQQQHQ")
MODE_AT = 6
EPSILON_AT = 7

# A point sketch in the version-1 layout (magic FSK1, version 1), as the
# previous release wrote it for `a 1`, `b 2`, `c 3` at --r 1 --k 4.
V1_FILE = bytes.fromhex(
    "46534b310100019a9999999999b93f010000000400000000000000000000000a00736f6674636170543d3101000000000000f03f"
    "010000009a9999999999b93f040000000000000000000000000000000000000003000000000000002e00000043534b3101010400"
    "0000000000000000000003000000464e72182b48d1a7e3ed84458ac80b5555d44dbcb7a3227b2000000043534b31010400000000"
    "00000000000000000000000001000000010000000601"
)


def cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def routes(tmp_path_factory):
    """Directory holding one small real file per build route, and their bytes."""
    d = tmp_path_factory.mktemp("routes")
    tsv = d / "in.tsv"
    tsv.write_text("".join(f"k{i % 37}\t{1 + i % 5}.5\n" for i in range(300)))
    files = {}
    for route, (mode, stat) in ROUTES.items():
        out = d / f"{route}.fsk"
        assert cli("build", str(tsv), "--mode", mode, "--stat", stat, "--r", "3", "--k", "16", "-o", str(out))[0] == 0
        files[route] = out.read_bytes()
    return d, files


def assert_rejected(routes, route: str, data: bytes) -> None:
    d, _ = routes
    bad = d / "bad.fsk"
    bad.write_bytes(data)
    for argv in (["estimate", str(bad)], ["merge", str(d / f"{route}.fsk"), str(bad), "-o", str(d / "out.fsk")]):
        code, _, err = cli(*argv)
        assert code == 2, (argv, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err


def with_crc(data: bytearray) -> bytes:
    """``data`` with its CRC32 recomputed, as a writer would have set it."""
    crc = zlib.crc32(data[HEAD + 4 :], zlib.crc32(data[:HEAD]))
    data[HEAD : HEAD + 4] = crc.to_bytes(4, "little")
    return bytes(data)


def test_route_files_round_trip(routes):
    d, files = routes
    for route in ROUTES:
        path = str(d / f"{route}.fsk")
        assert cli("estimate", path)[0] == 0
        assert cli("merge", path, path, "-o", str(d / "out.fsk"))[0] == 0
        assert with_crc(bytearray(files[route])) == files[route]


@settings(max_examples=150, deadline=None)
@given(route=st.sampled_from(sorted(ROUTES)), data=st.data())
def test_truncated_files_exit_2(routes, route, data):
    good = routes[1][route]
    assert_rejected(routes, route, good[: data.draw(st.integers(0, len(good) - 1))])


@settings(max_examples=150, deadline=None)
@given(route=st.sampled_from(sorted(ROUTES)), data=st.data())
def test_bit_flipped_files_exit_2(routes, route, data):
    good = bytearray(routes[1][route])
    bits = data.draw(st.lists(st.integers(0, 8 * len(good) - 1), min_size=1, max_size=6, unique=True))
    for bit in bits:
        good[bit // 8] ^= 1 << (bit % 8)
    assert_rejected(routes, route, bytes(good))


@settings(max_examples=100, deadline=None)
@given(route=st.sampled_from(sorted(ROUTES)), extra=st.binary(min_size=1, max_size=64))
def test_extended_files_exit_2(routes, route, extra):
    assert_rejected(routes, route, routes[1][route] + extra)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("fix_crc", [False, True])
def test_unknown_mode_exits_2(routes, route, fix_crc):
    data = bytearray(routes[1][route])
    data[MODE_AT] = 9
    assert_rejected(routes, route, with_crc(data) if fix_crc else bytes(data))


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_epsilon_whose_sizes_overflow_exits_2(routes, route):
    # a well-formed file whose epsilon makes 3/epsilon^2 overflow a float
    data = bytearray(routes[1][route])
    data[EPSILON_AT : EPSILON_AT + 8] = struct.pack("<d", 1e-200)
    assert_rejected(routes, route, with_crc(data))


def test_version_1_file_exits_2(routes):
    assert_rejected(routes, "point", V1_FILE)
    (routes[0] / "bad.fsk").write_bytes(V1_FILE)
    assert "version 1" in cli("estimate", str(routes[0] / "bad.fsk"))[2]


def test_pipelines_read_only_their_own_mode(routes):
    files = routes[1]
    with pytest.raises(ParseError, match="a point file cannot be read as a fullrange sketch"):
        FullRangePipeline.from_bytes(files["point"])
    with pytest.raises(ParseError):
        PointPipeline.from_bytes(b"garbage", 0.2)
    with pytest.raises(ParseError):
        PointPipeline.from_bytes(V1_FILE, 1.0)
