"""The benchmark's span tracer must still find and wrap what it looks up.

``perfbench/tracing.py`` replaces entry points found through each owner's
``__dict__`` and counts sketch entries with ``len(sketch._entries)``, and it
reads 0 without failing when either is missing. A build in each mode, a merge
and an estimate under the tracer must therefore give sketch spans with
entries, and uninstalling must put every original back. A merge of three
files must be one pipeline merge, one merge of each sketch it holds and one
of its sum, so that the benchmark's merge times mean one merge per command. A build's
``core.hash_keys`` spans must count each chunk's distinct keys, since the
benchmark's keys/s is read from them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from capsketch import cli
from capsketch.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


# (--mode, --stat, sketch class holding the entries, pipeline class, number
# of sketches of that class in the pipeline, beside its one sum); capT=5 in
# combination mode takes the signed route.
ROUTES = [
    ("point", "softcapT=5", "DistinctCounter", "PointPipeline", 1),
    ("fullrange", "softcapT=5", "AllThresholdSketch", "FullRangePipeline", 1),
    ("combination", "sqrt", "MaxDistinctSketch", "CombinationPipeline", 1),
    ("combination", "capT=5", "MaxDistinctSketch", "SignedCombinationPipeline", 2),
]


def test_tracer_sees_sketch_entries_and_uninstalls(tmp_path, capsys, tracing):
    tsv = tmp_path / "tiny.tsv"
    tsv.write_text("".join(f"k{i % 37}\t{1 + i % 5}\n" for i in range(400)))
    tracer = tracing.Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert patches and all(owner.__dict__[attr] is not raw for owner, attr, raw in patches)
        for j, (mode, stat, sketch, pipeline, each) in enumerate(ROUTES):
            shards = []
            for base in (0, 1000, 2000):
                out = tmp_path / f"{j}-{base}.fsk"
                argv = ["build", str(tsv), "--mode", mode, "--stat", stat, "--r", "9", "--k", "8"]
                assert main([*argv, "--ordinal-base", str(base), "-o", str(out)]) == 0
                shards.append(str(out))
            merged = tmp_path / f"{j}.fsk"
            start = len(tracer.spans)
            assert main(["merge", *shards, "-o", str(merged)]) == 0
            merges = [s.name for s in tracer.spans[start:] if s.name.endswith(".merge")]
            assert merges.count(f"estimators.{pipeline}.merge") == 1
            sketch_merges = sorted(n for n in merges if n.startswith("sketches."))
            assert sketch_merges == sorted([f"sketches.{sketch}.merge"] * each + ["sketches.SumCounter.merge"])
            assert main(["estimate", str(merged)]) == 0
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in patches)
    for _, _, cls, _, _ in ROUTES:
        for method in ("update_batch", "from_bytes"):
            name = f"sketches.{cls}.{method}"
            entries = [s.counts.get("entries", 0) for s in tracer.spans if s.name == name]
            assert entries, f"no {name} span"
            assert max(entries) > 0, f"{name} spans count no entries"


def test_tracer_times_the_point_mapper_and_its_draws(tmp_path, tracing):
    tsv = tmp_path / "tiny.tsv"
    tsv.write_text("".join(f"k{i % 37}\t{1 + i % 5}\n" for i in range(400)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = ["build", str(tsv), "--mode", "point", "--stat", "softcapT=5", "--r", "9", "--k", "8"]
        assert main([*argv, "-o", str(tmp_path / "p.fsk")]) == 0
    finally:
        tracer.uninstall()
    mapper = [s for s in tracer.spans if s.name == "mappers.point_outkeys_batch"]
    assert mapper and all(s.counts["cells"] == 400 * 9 for s in mapper)
    assert any(s.name == "core.uniform_block" for s in tracer.spans)


def test_tracer_counts_the_distinct_keys_each_chunk_hashes(tmp_path, monkeypatch, tracing):
    # perfbench's core.hash_keys.keys_per_s divides these counts by the spans' time
    keys = [b"k%d" % (i % (10 + i // 64)) for i in range(400)]  # 10 + j distinct keys in chunk j
    tsv = tmp_path / "repeats.tsv"
    tsv.write_bytes(b"".join(key + b"\t2\n" for key in keys))
    monkeypatch.setattr(cli, "CHUNK", 64)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = ["build", str(tsv), "--mode", "point", "--stat", "softcapT=5", "--r", "1", "--k", "8"]
        assert main([*argv, "-o", str(tmp_path / "p.fsk")]) == 0
    finally:
        tracer.uninstall()
    counts = [s.counts["keys"] for s in tracer.spans if s.name == "core.hash_keys"]
    assert counts == [len(set(keys[lo : lo + 64])) for lo in range(0, len(keys), 64)]
