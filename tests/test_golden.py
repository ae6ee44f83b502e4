"""Golden sketch bytes: a fixed stream built in every mode must keep its digest.

The digests pin the exact file bytes of ``capsketch build`` at the default
replication, so a change that makes ingestion faster cannot silently change
what the sketches hold. Update them only together with a file-format change.
The estimates pin what ``capsketch estimate`` prints for the same builds; no
change, a file-format change included, may alter them.
"""

import hashlib
import io
from contextlib import redirect_stdout

import numpy as np
import pytest

from capsketch.cli import main
from capsketch.oracle import zipf_ranks

# (--mode, --stat) of the four build routes; capT=5 in combination mode takes
# the signed route.
ROUTES = {
    "point": ("point", "softcapT=5"),
    "fullrange": ("fullrange", "softcapT=5"),
    "combination": ("combination", "sqrt"),
    "signed": ("combination", "capT=5"),
}

# Sketch file layout version 2.
GOLDEN_SHA256 = {
    "point": "3d64bbf1627bbdf9a956a1f0d17bb0281cbf9620392397692cc38f8edf8b13d9",
    "fullrange": "eed27cfac14b133420bff955feee65cc7572543ff3141c21672cc3ef676191fe",
    "combination": "f5818b8a6277480c6a3c2b139d371d5f4a06c9801606cf303f72b20cde933396",
    "signed": "c0dc3f08d73b08b66876506a0be352c1b2d6c3ed71be1cf414d715d6b5695097",
}

# Full stdout of `capsketch estimate` on each golden build, by route and query
# arguments: every route's build statistic, and on the full-range build each
# query of the benchmark's mix.
CERT = "certificate: rho=2.5 relative error bound <= 0.5\n"
GOLDEN_ESTIMATES = {
    ("point", ()): "estimate: 100.3979798\n",
    ("combination", ()): "estimate: 128.8496147\n",
    ("signed", ()): "estimate: 119.0921872\n" + CERT,
    ("fullrange", ()): "estimate: 100.3979798\n",
    ("fullrange", ("--stat", "softcapT=1")): "estimate: 31.42975245\n",
    ("fullrange", ("--stat", "softcapT=2")): "estimate: 55.22246981\n",
    ("fullrange", ("--stat", "softcapT=5")): "estimate: 100.3979798\n",
    ("fullrange", ("--stat", "softcapT=10")): "estimate: 161.7491872\n",
    ("fullrange", ("--stat", "softcapT=20")): "estimate: 248.4625723\n",
    ("fullrange", ("--stat", "sqrt")): "estimate: 125.6794467\n",
    ("fullrange", ("--stat", "log1p")): "estimate: 73.87943412\n",
    ("fullrange", ("--stat", "moment=0.5")): "estimate: 125.6794467\n",
    ("fullrange", ("--stat", "capT=5")): "estimate: 113.0943961\n" + CERT,
    ("fullrange", ("--stat", "distinct")): "estimate: 31.42975245\n",
    ("fullrange", ("--stat", "sum")): "estimate: 1078.953272\n",
    ("fullrange", ("--t", "0.5")): "estimate: 27.61123491\n",
    ("fullrange", ("--t", "2")): "estimate: 31.42975245\n",
}


def golden_stream(path) -> None:
    """512 elements with Zipf(2.0) keys and float values in [0.25, 4)."""
    ranks = zipf_ranks(512, 2.0, n_keys=10_000, seed=2016)
    values = np.random.default_rng(2016).uniform(0.25, 4.0, len(ranks))
    path.write_text("".join(f"k{r}\t{v!r}\n" for r, v in zip(ranks.tolist(), values.tolist())))


def golden_build(tmp_path, route: str):
    """Path of the golden build of one route."""
    tsv = tmp_path / "golden.tsv"
    if not tsv.exists():
        golden_stream(tsv)
    mode, stat = ROUTES[route]
    out = tmp_path / f"{route}.fsk"
    assert main(["build", str(tsv), "--mode", mode, "--stat", stat, "--r", "auto", "-o", str(out)]) == 0
    return out


def build_digest(tmp_path, route: str) -> str:
    return hashlib.sha256(golden_build(tmp_path, route).read_bytes()).hexdigest()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_golden_build_digest(tmp_path, capsys, route):
    assert build_digest(tmp_path, route) == GOLDEN_SHA256[route]


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_golden_estimates(tmp_path, route):
    with redirect_stdout(io.StringIO()):
        path = golden_build(tmp_path, route)
    for (r, args), expected in GOLDEN_ESTIMATES.items():
        if r != route:
            continue
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["estimate", str(path), *args]) == 0
        assert out.getvalue() == expected, args
