import pytest

from capsketch import PointPipeline
from capsketch.cli import main, read_sketch_file
from capsketch.oracle import exact_statistic
from capsketch.transforms import parse_statistic


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
    pipe = PointPipeline.for_soft_cap(2.0, r=5, epsilon=0.3, k=64, seed=9)
    for e in toy_elements:
        pipe.ingest(e)
    header, body = read_sketch_file(str(out))
    assert header.statistic == "softcapT=2"
    assert body == pipe.to_bytes("softcapT=2")


def test_cli_output_counts(capsys, tmp_path, toy_tsv):
    out = tmp_path / "s.fsk"
    code, stdout, _ = run(capsys, "build", toy_tsv, "--stat", "softcapT=2", "--mode", "point",
                          "--r", "5", "--seed", "9", "-o", str(out))
    assert code == 0
    assert "elements: 13" in stdout
    assert "output elements:" in stdout


def test_estimate_matches_in_process(capsys, tmp_path, toy_tsv, toy_elements):
    out = tmp_path / "s.fsk"
    run(capsys, "build", toy_tsv, "--stat", "softcapT=2", "--mode", "point",
        "--epsilon", "0.3", "--r", "5", "--k", "64", "--seed", "9", "-o", str(out))
    code, stdout, _ = run(capsys, "estimate", str(out))
    assert code == 0
    pipe = PointPipeline.for_soft_cap(2.0, r=5, epsilon=0.3, k=64, seed=9)
    for e in toy_elements:
        pipe.ingest(e)
    assert first_number(stdout, "estimate") == pytest.approx(2.0 * pipe.estimate(), rel=1e-9)


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
    one = tmp_path / "one.fsk"
    copy = tmp_path / "copy.fsk"
    run(capsys, "build", toy_tsv, "--stat", "softcapT=1", "--mode", "point", "-o", str(one))
    assert run(capsys, "merge", str(one), "-o", str(copy))[0] == 0
    assert copy.read_bytes() == one.read_bytes()


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


def test_estimate_empty_sketch(capsys, tmp_path):
    empty_tsv = write_tsv(tmp_path / "e.tsv", [])
    out = tmp_path / "e.fsk"
    run(capsys, "build", str(empty_tsv), "--stat", "softcapT=1", "--mode", "point", "-o", str(out))
    code, stdout, _ = run(capsys, "estimate", str(out))
    assert code == 0
    assert first_number(stdout, "estimate") == 0.0


def test_parse_errors(capsys, tmp_path):
    bad = write_tsv(tmp_path / "bad.tsv", [b"a\t1", b"b\tnope"])
    code, _, err = run(capsys, "build", str(bad), "--stat", "softcapT=1", "-o", str(tmp_path / "x.fsk"))
    assert code == 2
    assert "line 2" in err
    neg = write_tsv(tmp_path / "neg.tsv", [b"a\t1", b"", b"b\t-3"])
    code, _, err = run(capsys, "build", str(neg), "--stat", "softcapT=1", "-o", str(tmp_path / "x.fsk"))
    assert code == 2
    assert "line 3" in err


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
