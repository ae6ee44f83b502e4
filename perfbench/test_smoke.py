"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of the checkout:

    python3 -m pytest -q perfbench

It runs every workload untraced and traced, checks that every metric named
in BENCHMARK.json is reported, that the correctness gate counts a wrong
answer, and that the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

bench.import_capsketch()
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TINY = {"stream-r1": 12_000, "replicated-r501": 300, "shard-merge-query": 8_000}


def tiny(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], elements=TINY[name])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path, capsys):
    result = bench.run(tiny(name), seed=3, seconds=0, trace=False, workdir=tmp_path)
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    out = capsys.readouterr().out
    assert "ops_failed_frac 0 ratio" in out
    assert "sha256 fullrange-merged " in out


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path, capsys):
    result = bench.run(tiny(name), seed=3, seconds=0, trace=True, workdir=tmp_path, span_dir=tmp_path)
    assert result["correct"], capsys.readouterr().out
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["cli.lines"]["value"] > 0
    with gzip.open(tmp_path / f"{name}-seed3.jsonl.gz", "rt") as fh:
        spans = [json.loads(line) for line in fh]
    assert {"cli.build.point", "cli.merge", "cli.estimate", "core.hash_keys"} <= {s["name"] for s in spans}
    assert all(s["end"] >= s["start"] for s in spans)


def test_gate_interval_is_the_bottom_k_estimator_interval():
    from scipy.stats import gamma

    assert bench.RATIO_LO == pytest.approx((bench.K - 1) / gamma.isf(bench.TAIL, bench.K), rel=1e-12)
    assert bench.RATIO_HI == pytest.approx((bench.K - 1) / gamma.ppf(bench.TAIL, bench.K), rel=1e-12)


def test_gate_counts_wrong_estimates(tmp_path, monkeypatch, capsys):
    true_oracle = bench._oracle
    monkeypatch.setattr(bench, "_oracle", lambda r, v: {k: 2 * x for k, x in true_oracle(r, v).items()})
    result = bench.run(tiny("stream-r1"), seed=3, seconds=0, trace=False, workdir=tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0
    assert "FAILED sum: estimate" in capsys.readouterr().out


def test_oracle_matches_the_exact_command(tmp_path, capsys):
    from capsketch import cli

    w = tiny("shard-merge-query")
    inputs = bench.set_up(w, 3, tmp_path / "setup", bench.Ops())
    for label in ("sqrt", "capT=5", "sum"):
        capsys.readouterr()
        assert cli.main(["exact", str(tmp_path / "setup" / "full.tsv"), "--stat", label]) == 0
        exact = float(capsys.readouterr().out.split()[1])
        assert inputs.oracle[label] == pytest.approx(exact, rel=1e-9)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "stream-r1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
