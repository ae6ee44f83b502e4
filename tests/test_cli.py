import dataclasses
import math
import os
from unittest import mock

import pytest

from capsketch import PointPipeline, cli, sketches
from capsketch.cli import main, read_sketch_file
from capsketch.oracle import exact_statistic
from capsketch.sketchfile import ENTRY, pack, records
from capsketch.transforms import parse_statistic
from test_golden import CERT, ROUTES, golden_build


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_tsv(path, rows):
    with open(path, "wb") as fh:
        for row in rows:
            fh.write(row + b"\n")
    return str(path)


@pytest.fixture
def toy_tsv(tmp_path, toy_elements):
    rows = [b"%s\t%g" % (e.key, e.value) for e in toy_elements]
    return write_tsv(tmp_path / "toy.tsv", rows)


def first_number(text, label):
    for line in text.splitlines():
        if line.startswith(label):
            return float(line.split(":")[1])
    raise AssertionError(f"{label} not found in {text!r}")


def test_build_estimate_round_trip(tmp_path, toy_tsv, toy_elements):
    out = tmp_path / "s.fsk"
    code = main(["build", toy_tsv, "--stat", "softcapT=2", "--mode", "point",
                 "--epsilon", "0.3", "--r", "5", "--k", "64", "--seed", "9", "-o", str(out)])
    assert code == 0
    # in-process twin
    pipe = PointPipeline(1 / 2.0, r=5, epsilon=0.3, k=64, seed=9)
    for e in toy_elements:
        pipe.ingest(e)
    header, sections = read_sketch_file(str(out))
    assert header.statistic == "softcapT=2"
    assert sections == [pipe.counter.to_bytes(), pipe.sum_counter.to_bytes()]
    assert out.read_bytes() == pipe.to_bytes("softcapT=2")


def test_cli_output_counts(capsys, tmp_path, toy_tsv):
    # a point build draws only the cells that can enter its sketch, so it
    # cannot count its output elements; a full-range build emits count*r
    out = tmp_path / "s.fsk"
    code, stdout, _ = run(capsys, "build", toy_tsv, "--stat", "softcapT=2", "--mode", "point",
                          "--r", "5", "--seed", "9", "-o", str(out))
    assert code == 0
    assert "elements: 13" in stdout
    assert "output elements:" not in stdout
    code, stdout, _ = run(capsys, "build", toy_tsv, "--stat", "softcapT=2", "--mode", "fullrange",
                          "--r", "5", "--seed", "9", "-o", str(out))
    assert code == 0
    assert "elements: 13" in stdout
    assert "output elements: 65" in stdout
    # a signed build maps each element once, for both of its parts
    mode, stat = ROUTES["signed"]
    code, stdout, _ = run(capsys, "build", toy_tsv, "--stat", stat, "--mode", mode, "--r", "5", "--seed", "9", "-o", str(out))
    assert code == 0
    assert "output elements: 65" in stdout


# at T = 2 the estimate is the t * SUM fallback, in which T cancels; at
# T = 1.23456789 the sketch path is taken, which needs T stored exactly
@pytest.mark.parametrize("T", [2.0, 1.23456789])
def test_estimate_matches_in_process(capsys, tmp_path, toy_tsv, toy_elements, T):
    out = tmp_path / "s.fsk"
    run(capsys, "build", toy_tsv, "--stat", f"softcapT={T!r}", "--mode", "point",
        "--epsilon", "0.3", "--r", "5", "--k", "64", "--seed", "9", "-o", str(out))
    code, stdout, _ = run(capsys, "estimate", str(out))
    assert code == 0
    pipe = PointPipeline(1 / T, r=5, epsilon=0.3, k=64, seed=9)
    for e in toy_elements:
        pipe.ingest(e)
    assert first_number(stdout, "estimate") == pytest.approx(T * pipe.estimate(), rel=1e-9)


def test_default_value_column(capsys, tmp_path):
    path = write_tsv(tmp_path / "k.tsv", [b"a", b"b\t2", b"a"])
    out = tmp_path / "s.fsk"
    code, stdout, _ = run(capsys, "build", str(path), "--stat", "sqrt",
                          "--mode", "combination", "-o", str(out))
    assert code == 0
    assert "elements: 3" in stdout


@pytest.mark.parametrize("mode,stat", [("point", "softcapT=5"), ("fullrange", "softcapT=5")])
def test_merge_byte_equal_with_partition_consistent_ordinals(capsys, tmp_path, toy_tsv, toy_elements, mode, stat):
    rows = [b"%s\t%g" % (e.key, e.value) for e in toy_elements]
    a_tsv = write_tsv(tmp_path / "a.tsv", rows[:6])
    b_tsv = write_tsv(tmp_path / "b.tsv", rows[6:])
    full, pa, pb, merged = (tmp_path / n for n in ("full.fsk", "a.fsk", "b.fsk", "m.fsk"))
    common = ["--stat", stat, "--mode", mode, "--r", "3", "--seed", "4"]
    assert run(capsys, "build", toy_tsv, *common, "-o", str(full))[0] == 0
    assert run(capsys, "build", a_tsv, *common, "-o", str(pa))[0] == 0
    assert run(capsys, "build", b_tsv, *common, "--ordinal-base", "6", "-o", str(pb))[0] == 0
    assert run(capsys, "merge", str(pa), str(pb), "-o", str(merged))[0] == 0
    assert merged.read_bytes() == full.read_bytes()
    # argument order does not matter
    merged2 = tmp_path / "m2.fsk"
    assert run(capsys, "merge", str(pb), str(pa), "-o", str(merged2))[0] == 0
    assert merged2.read_bytes() == merged.read_bytes()


def test_merge_combination_estimates_agree(capsys, tmp_path, toy_tsv, toy_elements):
    rows = [b"%s\t%g" % (e.key, e.value) for e in toy_elements]
    a_tsv = write_tsv(tmp_path / "a.tsv", rows[:6])
    b_tsv = write_tsv(tmp_path / "b.tsv", rows[6:])
    full, pa, pb, merged = (tmp_path / n for n in ("full.fsk", "a.fsk", "b.fsk", "m.fsk"))
    common = ["--stat", "sqrt", "--mode", "combination", "--r", "3", "--seed", "4", "--epsilon", "0.5"]
    run(capsys, "build", toy_tsv, *common, "-o", str(full))
    run(capsys, "build", a_tsv, *common, "-o", str(pa))
    run(capsys, "build", b_tsv, *common, "--ordinal-base", "6", "-o", str(pb))
    assert run(capsys, "merge", str(pa), str(pb), "-o", str(merged))[0] == 0
    _, full_out, _ = run(capsys, "estimate", str(full))
    _, merged_out, _ = run(capsys, "estimate", str(merged))
    assert first_number(full_out, "estimate") == first_number(merged_out, "estimate")


def test_merge_single_input_is_identity(capsys, tmp_path, toy_tsv):
    # combination and signed merges of one file run the union-and-absorb path too
    for route, (mode, stat) in sorted(ROUTES.items()):
        one = tmp_path / f"{route}.fsk"
        copy = tmp_path / f"{route}-copy.fsk"
        assert run(capsys, "build", toy_tsv, "--stat", stat, "--mode", mode, "-o", str(one))[0] == 0
        assert run(capsys, "merge", str(one), "-o", str(copy))[0] == 0
        assert copy.read_bytes() == one.read_bytes(), route


def test_merge_of_eight_fullrange_shards_walks_once(capsys, tmp_path):
    # one merge retains the union of all its inputs once (a pairwise fold of
    # 8 shards walked 7 times) and keeps the single pass's bytes
    rows = [b"k%d\t%d" % (i * 7919 % 1000, 1 + i % 3) for i in range(800)]
    common = ["--stat", "softcapT=5", "--mode", "fullrange", "--r", "3", "--k", "16"]
    full = tmp_path / "full.fsk"
    run(capsys, "build", write_tsv(tmp_path / "all.tsv", rows), *common, "-o", str(full))
    shards = []
    for i in range(8):
        tsv = write_tsv(tmp_path / f"s{i}.tsv", rows[100 * i : 100 * (i + 1)])
        shards.append(str(tmp_path / f"s{i}.fsk"))
        assert run(capsys, "build", tsv, *common, "--ordinal-base", str(100 * i), "-o", shards[-1])[0] == 0
    merged = tmp_path / "m.fsk"
    with mock.patch.object(sketches, "_walk_kept", wraps=sketches._walk_kept) as walk_kept:
        assert run(capsys, "merge", *shards, "-o", str(merged))[0] == 0
    assert walk_kept.call_count == 1
    assert merged.read_bytes() == full.read_bytes()


def test_merge_builds_the_signed_function_once(capsys, tmp_path, toy_tsv):
    # the inputs share mode and statistic, so one route serves them all
    mode, stat = ROUTES["signed"]
    shards = []
    for base in (0, 13, 26):
        shards.append(str(tmp_path / f"s{base}.fsk"))
        argv = ["build", toy_tsv, "--mode", mode, "--stat", stat, "--r", "2", "--ordinal-base", str(base), "-o", shards[-1]]
        assert run(capsys, *argv)[0] == 0
    with mock.patch.object(cli, "measured_function", wraps=cli.measured_function) as measured:
        assert run(capsys, "merge", *shards, "-o", str(tmp_path / "m.fsk"))[0] == 0
    assert measured.call_count == 1


def test_merged_count_past_the_last_u64_exits_3(capsys, tmp_path, toy_tsv):
    fr = tmp_path / "fr.fsk"
    run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--mode", "fullrange", "--r", "5", "-o", str(fr))
    header, sections = read_sketch_file(str(fr))
    fr.write_bytes(pack(dataclasses.replace(header, count=2**64 - 1), sections))
    code, stdout, err = run(capsys, "merge", str(fr), str(fr), "-o", str(tmp_path / "m.fsk"))
    assert (code, stdout) == (3, "")
    assert err.startswith("error: ") and str(2**65 - 2) in err and err.count("\n") == 1
    assert not (tmp_path / "m.fsk").exists()


# (route, section, change): the first record of a section given a value, a
# section replaced, or a section rewritten; the files keep a valid CRC
UNBUILDABLE = [
    ("fullrange", 0, math.nan),
    ("fullrange", 0, -1.0),
    ("fullrange", 0, math.inf),
    ("combination", 0, math.nan),
    ("combination", 0, -1.0),
    ("combination", 0, math.inf),
    ("combination", 1, 0.0),
    ("combination", 1, math.nan),
    ("combination", 1, math.inf),
    ("point", 1, b"-5/1"),
    ("fullrange", 1, b"-5/1"),
    ("combination", 2, b"-5/1"),
    ("signed", 1, 0.0),
    ("signed", 2, 0.0),
    ("combination", 0, lambda side: side + side),
    ("combination", 0, b""),
    ("combination", 0, lambda side: records(side, ENTRY)[::-1].tobytes()),
    ("combination", 0, lambda side: side[: ENTRY.itemsize]),
    ("signed", 0, lambda side: records(side, ENTRY)[::-1].tobytes()),
]


@pytest.mark.parametrize(
    "route,section,change",
    UNBUILDABLE,
    ids=["y-nan", "y-negative", "y-inf", "sidelined-nan", "sidelined-negative", "sidelined-inf", "max-distinct-zero",
         "max-distinct-nan", "max-distinct-inf", "point-sum-negative", "fullrange-sum-negative",
         "combination-sum-negative", "signed-plus-max-distinct-zero", "signed-minus-max-distinct-zero", "sidelined-twice",
         "sidelined-empty", "sidelined-reversed", "sidelined-first-only", "signed-sidelined-reversed"],
)
def test_values_no_build_produces_exit_2(capsys, tmp_path, route, section, change):
    mode, stat = ROUTES[route]
    tsv = write_tsv(tmp_path / "in.tsv", [b"k%d\t%d" % (i % 50, 1 + i % 3) for i in range(300)])
    path = tmp_path / "x.fsk"
    argv = ["build", tsv, "--mode", mode, "--stat", stat, "--r", "3", "--k", "8", "--epsilon", "0.5", "-o", str(path)]
    assert run(capsys, *argv)[0] == 0
    header, sections = read_sketch_file(str(path))
    if isinstance(change, bytes):
        sections[section] = change
    elif callable(change):
        sections[section] = change(sections[section])
    else:
        rec = records(sections[section], ENTRY).copy()
        rec["value"][0] = change
        sections[section] = rec.tobytes()
    path.write_bytes(pack(header, sections))
    for argv in (["estimate", str(path)], ["merge", str(path), "-o", str(tmp_path / "m.fsk")]):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "m.fsk").exists()


def test_signed_file_of_the_six_section_layout_exits_2(capsys, tmp_path):
    # signed files once held the sidelined keys, the max-distinct sketch and
    # the sum of each part; such a body has the wrong section count for the
    # four-section layout, though it keeps a valid CRC
    mode, stat = ROUTES["signed"]
    tsv = write_tsv(tmp_path / "in.tsv", [b"k%d\t%d" % (i % 50, 1 + i % 3) for i in range(300)])
    path = str(tmp_path / "x.fsk")
    argv = ["build", tsv, "--mode", mode, "--stat", stat, "--r", "3", "--k", "8", "--epsilon", "0.5", "-o", path]
    assert run(capsys, *argv)[0] == 0
    header, (side, plus, minus, total) = read_sketch_file(path)
    with open(path, "wb") as fh:
        fh.write(pack(header, [side, plus, total, side, minus, total]))
    for argv in (["estimate", path], ["merge", path, path, "-o", str(tmp_path / "m.fsk")]):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, ""), argv
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "m.fsk").exists()


@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize("route", list(ROUTES))
def test_forged_element_count_exits_2(capsys, tmp_path, route, count):
    # a count of 0 beside a sum and entries, or of 1 beside more than r = 3
    # entries in a section; the file keeps a valid CRC
    mode, stat = ROUTES[route]
    tsv = write_tsv(tmp_path / "in.tsv", [b"k%d\t%d" % (i % 50, 1 + i % 3) for i in range(300)])
    intact, forged, merged = (str(tmp_path / name) for name in ("intact.fsk", "forged.fsk", "m.fsk"))
    argv = ["build", tsv, "--mode", mode, "--stat", stat, "--r", "3", "--k", "8", "--epsilon", "0.5", "-o", intact]
    assert run(capsys, *argv)[0] == 0
    header, sections = read_sketch_file(intact)
    with open(forged, "wb") as fh:
        fh.write(pack(dataclasses.replace(header, count=count), sections))
    for argv in (["estimate", forged], ["merge", intact, forged, "-o", merged]):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, ""), argv
        assert err.startswith(f"error: {forged}: a count of ") and err.count("\n") == 1
    assert not (tmp_path / "m.fsk").exists()


@pytest.mark.parametrize(
    "route,statistic",
    [("combination", "capT=5"), ("signed", "sqrt"), ("point", "sqrt"), ("point", "capT=5"), ("point", "sum"),
     ("combination", "distinct")],
)
def test_statistic_of_another_mode_exits_2(capsys, tmp_path, route, statistic):
    # a combination file whose statistic routes to the signed pipeline, and
    # the reverse, and files whose mode cannot measure their statistic at
    # all; each keeps a valid CRC
    mode, stat = ROUTES[route]
    tsv = write_tsv(tmp_path / "in.tsv", [b"k%d\t%d" % (i % 50, 1 + i % 3) for i in range(300)])
    path = str(tmp_path / "x.fsk")
    argv = ["build", tsv, "--mode", mode, "--stat", stat, "--r", "3", "--k", "8", "--epsilon", "0.5", "-o", path]
    assert run(capsys, *argv)[0] == 0
    header, sections = read_sketch_file(path)
    with open(path, "wb") as fh:
        fh.write(pack(dataclasses.replace(header, statistic=statistic), sections))
    for argv in (["estimate", path], ["merge", path, path, "-o", str(tmp_path / "m.fsk")]):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, ""), argv
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "m.fsk").exists()


@pytest.mark.parametrize(
    "route,lines,count,changed",
    [
        ("point", 300, 0, {0: b""}),  # no entry, but a sum
        ("point", 300, None, {1: b"0"}),  # a count, but no sum
        ("combination", 4, 1, {}),  # 12 sidelined outkeys and no max-distinct entry
    ],
    ids=["count-0-beside-a-sum", "zero-sum-beside-a-count", "sidelined-past-count-r"],
)
def test_each_element_count_rule_refuses(capsys, tmp_path, route, lines, count, changed):
    # each file breaks one rule of the three and keeps a valid CRC
    mode, stat = ROUTES[route]
    tsv = write_tsv(tmp_path / "in.tsv", [b"k%d\t%d" % (i % 50, 1 + i % 3) for i in range(lines)])
    path = str(tmp_path / "x.fsk")
    argv = ["build", tsv, "--mode", mode, "--stat", stat, "--r", "3", "--k", "8", "--epsilon", "0.5", "-o", path]
    assert run(capsys, *argv)[0] == 0
    header, sections = read_sketch_file(path)
    sections = [changed.get(i, section) for i, section in enumerate(sections)]
    with open(path, "wb") as fh:
        fh.write(pack(header if count is None else dataclasses.replace(header, count=count), sections))
    code, stdout, err = run(capsys, "estimate", path)
    assert (code, stdout) == (2, "") and err.startswith(f"error: {path}: a count of ")


@pytest.mark.parametrize(
    "argv,path",
    [
        (["build", "{d}/nope.tsv", "--stat", "softcapT=1", "-o", "{d}/x.fsk"], "{d}/nope.tsv"),
        (["build", "{d}", "--stat", "softcapT=1", "-o", "{d}/x.fsk"], "{d}"),
        (["build", "{tsv}", "--stat", "softcapT=1", "--r", "1", "-o", "{d}/nodir/x.fsk"], "{d}/nodir/x.fsk"),
        (["merge", "{d}/nope.fsk", "-o", "{d}/x.fsk"], "{d}/nope.fsk"),
        (["estimate", "{d}/nope.fsk"], "{d}/nope.fsk"),
        (["exact", "{d}/nope.tsv", "--stat", "sqrt"], "{d}/nope.tsv"),
    ],
    ids=["build-missing-input", "build-directory-input", "build-missing-output-dir", "merge", "estimate", "exact"],
)
def test_unusable_path_exits_2(capsys, tmp_path, toy_tsv, argv, path):
    # a path that cannot be read or written gives one error line naming it
    fill = {"d": str(tmp_path), "tsv": toy_tsv}
    code, stdout, err = run(capsys, *(a.format(**fill) for a in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.format(**fill) in err


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_writes_over_a_longer_file_leave_the_fresh_bytes(capsys, tmp_path, toy_tsv, route):
    # a file is overwritten in place and its old tail then cut: a build and a
    # merge over a longer file leave exactly the bytes they write to a new path
    mode, stat = ROUTES[route]
    built = str(tmp_path / "built.fsk")
    commands = (["build", toy_tsv, "--mode", mode, "--stat", stat, "--r", "3", "--k", "8"], ["merge", built, built])
    for argv in commands:
        fresh, stale = tmp_path / "fresh.fsk", tmp_path / "stale.fsk"
        fresh.unlink(missing_ok=True)
        stale.write_bytes(b"\xab" * 100_000)
        assert run(capsys, *argv, "-o", str(fresh))[0] == 0
        assert run(capsys, *argv, "-o", str(stale))[0] == 0
        assert 0 < len(fresh.read_bytes()) < 100_000
        assert stale.read_bytes() == fresh.read_bytes(), argv[0]
        if argv[0] == "build":
            fresh.rename(built)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_output_to_dev_null_exits_0(capsys, tmp_path, toy_tsv):
    # /dev/null cannot be truncated; only a regular file is cut
    shard = str(tmp_path / "s.fsk")
    assert run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--r", "3", "-o", shard)[0] == 0
    for argv in (["build", toy_tsv, "--stat", "softcapT=1", "--r", "3"], ["merge", shard, shard]):
        code, _, err = run(capsys, *argv, "-o", "/dev/null")
        assert (code, err) == (0, ""), argv[0]


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_write_stopped_partway_exits_2(capsys, tmp_path, toy_tsv, route):
    # a write over a longer file that stops partway leaves the new bytes over
    # the old file's, cut short or not: the old tail after the whole new file,
    # or the old file's second half after the new file's first; reads refuse
    # both, by the body length or the CRC32, as they refuse a truncated file
    mode, stat = ROUTES[route]
    big = write_tsv(tmp_path / "big.tsv", [b"k%d\t%d" % (i, 1 + i % 3) for i in range(300)])
    old, new = tmp_path / "old.fsk", tmp_path / "new.fsk"
    for tsv, out in ((big, old), (toy_tsv, new)):
        assert run(capsys, "build", tsv, "--mode", mode, "--stat", stat, "--r", "3", "--k", "8", "-o", str(out))[0] == 0
    old, new = old.read_bytes(), new.read_bytes()
    assert len(old) > len(new)
    path, merged = tmp_path / "x.fsk", tmp_path / "m.fsk"
    for cut in (len(new), len(new) // 2):
        path.write_bytes(new[:cut] + old[cut:])
        for argv in (["estimate", str(path)], ["merge", str(path), "-o", str(merged)]):
            code, stdout, err = run(capsys, *argv)
            assert (code, stdout) == (2, ""), argv
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not merged.exists()


def test_merge_associative_bytes(capsys, tmp_path, toy_tsv, toy_elements):
    rows = [b"%s\t%g" % (e.key, e.value) for e in toy_elements]
    paths = []
    for i, (lo, hi, base) in enumerate([(0, 4, 0), (4, 9, 4), (9, 13, 9)]):
        tsv = write_tsv(tmp_path / f"p{i}.tsv", rows[lo:hi])
        out = tmp_path / f"p{i}.fsk"
        run(capsys, "build", tsv, "--stat", "sqrt", "--mode", "combination",
            "--ordinal-base", str(base), "--r", "2", "-o", str(out))
        paths.append(str(out))
    ab, ab_c, bc, a_bc = (str(tmp_path / n) for n in ("ab.fsk", "ab_c.fsk", "bc.fsk", "a_bc.fsk"))
    run(capsys, "merge", paths[0], paths[1], "-o", ab)
    run(capsys, "merge", ab, paths[2], "-o", ab_c)
    run(capsys, "merge", paths[1], paths[2], "-o", bc)
    run(capsys, "merge", paths[0], bc, "-o", a_bc)
    with open(ab_c, "rb") as f1, open(a_bc, "rb") as f2:
        assert f1.read() == f2.read()


def test_fullrange_multi_query(capsys, tmp_path, toy_tsv, toy_dist):
    out = tmp_path / "fr.fsk"
    run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--mode", "fullrange",
        "--r", "100", "--k", "4000", "--epsilon", "0.3", "-o", str(out))
    truths = {}
    for stat in ("softcapT=1", "softcapT=100"):
        code, stdout, _ = run(capsys, "estimate", str(out), "--stat", stat)
        assert code == 0
        spec = parse_statistic(stat)
        truths[stat] = first_number(stdout, "estimate") / exact_statistic(toy_dist, spec)
    for ratio in truths.values():
        assert 0.7 < ratio < 1.3
    # hard capping routes through the signed three-point estimator
    code, stdout, _ = run(capsys, "estimate", str(out), "--stat", "capT=5")
    assert code == 0
    assert "certificate: rho=" in stdout
    est = first_number(stdout, "estimate")
    assert 0.6 * 25 < est < 1.4 * 25
    # raw transform query at a threshold
    code, stdout, _ = run(capsys, "estimate", str(out), "--t", "1.0")
    assert code == 0
    assert first_number(stdout, "estimate") > 0


EMPTY_QUERIES = [(), ("--stat", "distinct"), ("--t", "inf"), ("--t", "0.5"), ("--stat", "sqrt"), ("--stat", "log1p"),
                 ("--stat", "capT=5"), ("--stat", "softcapT=1"), ("--stat", "sum")]


def test_estimate_empty_sketch(capsys, tmp_path):
    # every answer of a file built from no input is 0 in every mode, full-range
    # queries at t = inf included (t * SUM there would be inf * 0)
    empty_tsv = write_tsv(tmp_path / "e.tsv", [])
    out = tmp_path / "e.fsk"
    for mode, stat in ROUTES.values():
        assert run(capsys, "build", str(empty_tsv), "--stat", stat, "--mode", mode, "-o", str(out))[0] == 0
        for query in EMPTY_QUERIES if mode == "fullrange" else [()]:
            code, stdout, _ = run(capsys, "estimate", str(out), *query)
            assert (code, stdout.splitlines()[0]) == (0, "estimate: 0"), (mode, stat, query)


def test_stat_with_t_exits_2(capsys, tmp_path, toy_tsv):
    # --t asks for the transform, --stat for a statistic; the pair is refused
    # before the file is read, so a missing file gets the same answer
    fr = tmp_path / "fr.fsk"
    run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--mode", "fullrange", "--r", "5", "-o", str(fr))
    for path in (str(fr), str(tmp_path / "missing.fsk")):
        code, stdout, err = run(capsys, "estimate", path, "--stat", "sqrt", "--t", "2")
        assert (code, stdout) == (2, "")
        assert err.startswith("error: --t ") and err.count("\n") == 1


def test_parse_errors(capsys, tmp_path):
    bad = write_tsv(tmp_path / "bad.tsv", [b"a\t1", b"b\tnope"])
    code, _, err = run(capsys, "build", str(bad), "--stat", "softcapT=1", "-o", str(tmp_path / "x.fsk"))
    assert code == 2
    assert "line 2" in err
    neg = write_tsv(tmp_path / "neg.tsv", [b"a\t1", b"", b"b\t-3"])
    code, _, err = run(capsys, "build", str(neg), "--stat", "softcapT=1", "-o", str(tmp_path / "x.fsk"))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize(
    "rows,message",
    [
        ([b"a\t1", b"", b"\t2"], "line 3: empty key"),
        ([b"a", b"b\tnope"], "line 2: bad value b'nope'"),
        ([b"a\t1", b"b\t"], None),
        ([b"a\t1", b"b\t-3"], "line 2: element value must be a positive finite number, got -3.0"),
        ([b"", b"a\t0"], "line 2: element value must be a positive finite number, got 0.0"),
        ([b"a\tnan"], "line 1: element value must be a positive finite number, got nan"),
        ([b"a\t1e400"], "line 1: element value must be a positive finite number, got inf"),
    ],
)
def test_parse_error_messages(capsys, tmp_path, rows, message):
    # blank lines count in line numbers; build and exact report the same line
    tsv = write_tsv(tmp_path / "in.tsv", rows)
    for argv in (["build", tsv, "--stat", "softcapT=1", "-o", str(tmp_path / "x.fsk")], ["exact", tsv, "--stat", "distinct"]):
        code, _, err = run(capsys, *argv)
        if message is None:
            assert code == 0 and err == ""
        else:
            assert (code, err) == (2, f"error: {message}\n")


@pytest.mark.parametrize(
    "option",
    [
        ("--seed", "-1"),
        ("--k", "0"),
        ("--r", "0"),
        ("--epsilon", "1.5"),
        ("--ordinal-base", "-3"),
        ("--seed", str(2**64)),
        ("--k", str(2**32)),
        ("--r", "many"),
    ],
)
def test_out_of_range_build_options_exit_2(capsys, tmp_path, option):
    # checked before any input is read: the input does not exist
    out = tmp_path / "x.fsk"
    code, stdout, err = run(capsys, "build", str(tmp_path / "missing.tsv"), "--stat", "softcapT=1", *option, "-o", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {option[0]} ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("sizes", [(), ("--r", "1", "--k", "10")])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_epsilon_whose_sizes_overflow_exits_2(capsys, tmp_path, toy_tsv, route, sizes):
    # 3/epsilon^2 (the gate and the sideline size) overflows a float
    mode, stat = ROUTES[route]
    out = tmp_path / "x.fsk"
    code, stdout, err = run(capsys, "build", toy_tsv, "--mode", mode, "--stat", stat, "--epsilon", "1e-200", *sizes, "-o", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: --epsilon ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_ordinals_past_u64_exit_2(capsys, tmp_path, route):
    # three elements need three ordinals; the last u64 ordinal is 2**64 - 1
    tsv = write_tsv(tmp_path / "in.tsv", [b"a\t1", b"b\t2", b"c\t3"])
    mode, stat = ROUTES[route]
    out = tmp_path / "x.fsk"
    argv = ["build", tsv, "--mode", mode, "--stat", stat, "--r", "1", "--k", "10", "-o", str(out)]
    code, stdout, err = run(capsys, *argv, "--ordinal-base", str(2**64 - 1))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ordinal base ") and err.count("\n") == 1
    assert not out.exists()
    assert run(capsys, *argv, "--ordinal-base", str(2**64 - 3))[0] == 0


@pytest.mark.parametrize("t", ["-1", "nan"])
def test_estimate_threshold_out_of_range_exits_2(capsys, tmp_path, toy_tsv, t):
    fr = tmp_path / "fr.fsk"
    run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--mode", "fullrange", "--r", "5", "-o", str(fr))
    code, stdout, err = run(capsys, "estimate", str(fr), "--t", t)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: --t ") and err.count("\n") == 1
    code, stdout, _ = run(capsys, "estimate", str(fr), "--t", "inf")
    assert code == 0 and first_number(stdout, "estimate") > 0


def test_incompatible_merge_exit_code(capsys, tmp_path, toy_tsv):
    a = tmp_path / "a.fsk"
    b = tmp_path / "b.fsk"
    run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--mode", "point", "--seed", "1", "-o", str(a))
    run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--mode", "point", "--seed", "2", "-o", str(b))
    code, _, err = run(capsys, "merge", str(a), str(b), "-o", str(tmp_path / "m.fsk"))
    assert code == 3
    assert "seed" in err


def test_unsupported_statistic_exit_codes(capsys, tmp_path, toy_tsv):
    code, _, err = run(capsys, "build", toy_tsv, "--stat", "frob", "-o", str(tmp_path / "x.fsk"))
    assert code == 4
    code, _, err = run(capsys, "build", toy_tsv, "--stat", "sqrt", "--mode", "point",
                       "-o", str(tmp_path / "x.fsk"))
    assert code == 4
    fr = tmp_path / "fr.fsk"
    run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--mode", "fullrange", "-o", str(fr))
    code, _, err = run(capsys, "estimate", str(fr), "--stat", "frob")
    assert code == 4
    # point sketches refuse statistic overrides
    pt = tmp_path / "pt.fsk"
    run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--mode", "point", "-o", str(pt))
    code, _, _ = run(capsys, "estimate", str(pt), "--stat", "softcapT=2")
    assert code == 4


# capping scales whose lifted point masses or reciprocal leave the float
# range, and an ill-posed three-point approximation
@pytest.mark.parametrize("stat", ["capT=1e-320", "capT=1e-308", "capT=1e308", "cap1approx=A:1e308,b1:0.6,b2:7.97", "softcapT=1e-320"])
def test_statistics_out_of_float_range_exit_4(capsys, tmp_path, stat):
    tsv = write_tsv(tmp_path / "in.tsv", [b"a\t1", b"b\t2", b"c\t3"])
    sizes = ["--r", "1", "--k", "10"]
    fr, out = tmp_path / "fr.fsk", tmp_path / "x.fsk"
    assert run(capsys, "build", tsv, "--mode", "fullrange", "--stat", "sqrt", *sizes, "-o", str(fr))[0] == 0
    for argv in (["build", tsv, "--mode", "combination", "--stat", stat, *sizes, "-o", str(out)],
                 ["build", tsv, "--mode", "point", "--stat", stat, *sizes, "-o", str(out)],
                 ["build", tsv, "--mode", "fullrange", "--stat", stat, *sizes, "-o", str(out)],
                 ["estimate", str(fr), "--stat", stat]):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


STATISTICS = ["capT=5", "softcapT=5", "moment=0.5", "sqrt", "log1p", "distinct", "sum", "cap1approx=A:1.5,b1:0.6,b2:7.97"]


@pytest.mark.parametrize(
    "mode,stat",
    [("point", stat) for stat in STATISTICS if stat != "softcapT=5"] + [("combination", "distinct"), ("combination", "sum")],
)
def test_statistic_a_mode_cannot_measure_exits_4(capsys, tmp_path, toy_tsv, mode, stat):
    # point mode measures one point mass, and combination mode a coefficient
    # function, which distinct and sum lack
    out = tmp_path / "x.fsk"
    code, stdout, err = run(capsys, "build", toy_tsv, "--mode", mode, "--stat", stat, "-o", str(out))
    assert (code, stdout) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert mode != "point" or "point mode" in err
    assert not out.exists()


def test_cap1approx_of_the_stable_parameters_is_capT_1(capsys, tmp_path, toy_tsv):
    # capT=1 lifts the stable three-point function through a cap at 1, which
    # leaves it as it is: a full-range file answers both alike, and
    # combination builds of both hold the same sections
    stable = "cap1approx=A:1.5,b1:0.6,b2:7.97"
    fr = str(golden_build(tmp_path, "fullrange"))
    capsys.readouterr()
    for stat in (stable, "capT=1"):
        assert run(capsys, "estimate", fr, "--stat", stat) == (0, "estimate: 35.26540493\n" + CERT, "")
    sections = []
    for stat in (stable, "capT=1"):
        out = str(tmp_path / "c.fsk")
        assert run(capsys, "build", toy_tsv, "--mode", "combination", "--stat", stat, "--r", "5", "-o", out)[0] == 0
        header, body = read_sketch_file(out)
        assert (header.mode, header.statistic) == ("signed", stat)
        sections.append(body)
    assert sections[0] == sections[1]


def test_build_r_auto(capsys, tmp_path, toy_tsv):
    from capsketch import choose_replication

    out = tmp_path / "auto.fsk"
    code, _, _ = run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--mode", "point",
                     "--epsilon", "0.4", "--r", "auto", "-o", str(out))
    assert code == 0
    header, _ = read_sketch_file(str(out))
    assert header.r == choose_replication(0.4)


def test_exact_command(capsys, toy_tsv, toy_dist):
    code, stdout, _ = run(capsys, "exact", toy_tsv, "--stat", "capT=5")
    assert code == 0
    assert first_number(stdout, "exact") == 25.0
    code, stdout, _ = run(capsys, "exact", toy_tsv, "--stat", "distinct")
    assert first_number(stdout, "exact") == 13.0


def test_signed_combination_build_and_estimate(capsys, tmp_path, toy_tsv):
    out = tmp_path / "cap.fsk"
    code, _, _ = run(capsys, "build", toy_tsv, "--stat", "capT=5", "--mode", "combination",
                     "--r", "40", "--k", "4000", "--epsilon", "0.3", "-o", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "estimate", str(out))
    assert code == 0
    assert "certificate: rho=" in stdout
    est = first_number(stdout, "estimate")
    assert 0.5 * 25 < est < 1.5 * 25


def test_bench_command(capsys, tmp_path):
    out = tmp_path / "bench.csv"
    code, stdout, _ = run(capsys, "bench", "--alpha", "1.5", "--n", "2000", "--T", "5",
                          "--r", "1", "2", "--k", "50", "--reps", "1",
                          "--n-keys", "5000", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,T,r,k,exact_value,mean_est,NRMSE_measurement,NRMSE_approx"
    assert len(lines) == 3
    # with a single repetition the NRMSE equals the absolute relative error
    for line in lines[1:]:
        cells = line.split(",")
        exact, mean_est, _, nrmse_approx = (float(c) for c in cells[4:])
        assert nrmse_approx == pytest.approx(abs(mean_est - exact) / exact, rel=1e-4)


@pytest.mark.parametrize(
    "option",
    [
        ("--r", "0"),
        ("--r", "1", "0"),
        ("--k", "0"),
        ("--T", "0"),
        ("--T", "-1"),
        ("--T", "1e-320"),
        ("--T", "inf"),
        ("--T", "nan"),
        ("--alpha", "0"),
        ("--alpha", "inf"),
        ("--n-keys", "0"),
        ("--reps", "0"),
        ("--n", "0"),
    ],
)
def test_out_of_range_bench_options_exit_2(capsys, tmp_path, option):
    # checked before any work: no rows, no warnings, one error line
    out = tmp_path / "bench.csv"
    small = ["--alpha", "1.5", "--n", "200", "--T", "5", "--r", "1", "--k", "10", "--reps", "2", "--n-keys", "100"]
    code, stdout, err = run(capsys, "bench", *small, *option, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {option[0]} ") and err.count("\n") == 1
    assert not out.exists()


def test_huge_sum_estimates_inf(capsys, tmp_path):
    # the exact sum of two 1e308 values exceeds the largest float
    tsv = tmp_path / "big.tsv"
    tsv.write_text("a\t1e308\nb\t1e308\n")
    out = tmp_path / "big.fsk"
    code, _, err = run(capsys, "build", str(tsv), "--mode", "fullrange", "--stat", "sum", "-o", str(out))
    assert code == 0 and err == ""
    code, stdout, err = run(capsys, "estimate", str(out), "--stat", "sum")
    assert code == 0 and err == ""
    assert stdout == "estimate: inf\n"


def outcome(capsys, argv):
    """Exit code of one ``main`` call (``SystemExit`` for an argparse
    error), its stdout and its stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_every_call(capsys, tmp_path, toy_tsv):
    # main builds its parser once per process; each command of a sequence
    # behaves as it does run on its own, and no option outlives its call
    fr = tmp_path / "fr.fsk"
    run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--mode", "fullrange", "--r", "20", "-o", str(fr))
    commands = [
        ["estimate", str(fr), "--t", "0.5"],
        ["estimate", str(fr)],  # must not keep the earlier --t
        ["estimate", str(fr), "--t", "half"],
        ["merge", str(fr), str(fr), "-o", str(tmp_path / "{}.fsk")],
    ]
    alone = []
    for argv in commands:
        cli._parser.cache_clear()
        alone.append(outcome(capsys, [a.format("alone") for a in argv]))
        alone[-1] += ((tmp_path / "alone.fsk").read_bytes() if argv[0] == "merge" else None,)
    cli._parser.cache_clear()
    shared = []
    for argv in commands:
        shared.append(outcome(capsys, [a.format("shared") for a in argv]))
        shared[-1] += ((tmp_path / "shared.fsk").read_bytes() if argv[0] == "merge" else None,)
    assert cli._parser.cache_info().misses == 1
    assert shared == alone
    assert shared[0][1] != shared[1][1]
    assert shared[2][0] == ("SystemExit", 2) and "invalid float value: 'half'" in shared[2][2]
    assert shared[3][0] == 0 and shared[3][3]


def test_estimate_of_a_fullrange_file_skips_the_walk(capsys, tmp_path, toy_tsv):
    # a full-range file holds a retained set, so no query of it runs the
    # per-entry retention walk
    fr = tmp_path / "fr.fsk"
    run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--mode", "fullrange",
        "--r", "20", "--k", "16", "-o", str(fr))
    header, (entries, _) = read_sketch_file(str(fr))
    assert len(entries) // 16 > 2 * header.k  # (outkey, y) records: the retained-set test has work to do
    with mock.patch.object(sketches, "_walk_kept", wraps=sketches._walk_kept) as walk_kept:
        for args in ([], ["--stat", "sqrt"], ["--stat", "capT=5"], ["--t", "0.5"]):
            code, stdout, _ = run(capsys, "estimate", str(fr), *args)
            assert code == 0 and "estimate:" in stdout
    assert walk_kept.call_count == 0
