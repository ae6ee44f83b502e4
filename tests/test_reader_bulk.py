"""The bulk split of ``capsketch.cli`` against the line-at-a-time reference
on chunks that mix lines of no, one and several tabs: the same keys, key
hashes and values, or the same first parse error, and chunks of exactly
CHUNK elements, from a file and from stdin."""

import io
import sys
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_reader import ENDINGS, LINES, read_new, read_reference

# also lines of one to three numeric fields, so that a line with two tabs
# beside one with none gives a chunk with one tab per line on average
NUMERIC = st.lists(st.sampled_from([b"1", b"2.5", b""]), min_size=1, max_size=3).map(b"\t".join)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.tuples(st.one_of(LINES, NUMERIC), ENDINGS), max_size=25),
    last_ending=st.booleans(),
    chunk=st.integers(1, 6),
    stdin=st.booleans(),
)
# "1\t2" is a bad value, although the chunk holds two tabs in two lines
@example(lines=[(b"a\t1\t2", b"\n"), (b"3", b"\n")], last_ending=True, chunk=2, stdin=True)
def test_bulk_split_matches_reference(tmp_path_factory, lines, last_ending, chunk, stdin):
    data = b"".join(line + end for line, end in lines)
    if lines and not last_ending:
        data = data[: -len(lines[-1][1])]
    path = tmp_path_factory.getbasetemp() / "bulk.tsv"
    path.write_bytes(data)
    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data))):
        got = read_new("-" if stdin else str(path), chunk)
    assert got == read_reference(str(path))
