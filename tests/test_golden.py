"""Golden sketch bytes: a fixed stream built in every mode must keep its digest.

The digests pin the exact file bytes of ``capsketch build`` at the default
replication, so a change that makes ingestion faster cannot silently change
what the sketches hold. The estimates pin what ``capsketch estimate`` prints
for the same builds. A change may re-pin a digest or an estimate only if it
changes the file layout or the measurement design (what a mode maps, keeps or
estimates), and it must declare each re-pin and its cause in CHANGES.md. A
speedup or a refactor never re-pins.
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
    "signed": "ae46460c3c3d74a90eb159b4e79d9853e58f916edd236236182bb6db1374b5e8",
}

# Full stdout of `capsketch estimate` on each golden build, by route and query
# arguments: every route's build statistic, and on the full-range build each
# query of the benchmark's mix.
CERT = "certificate: rho=2.5 relative error bound <= 0.5\n"
GOLDEN_ESTIMATES = {
    ("point", ()): "estimate: 100.3979798\n",
    ("combination", ()): "estimate: 128.8496147\n",
    ("signed", ()): "estimate: 111.712457\n" + CERT,
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


# Full stdout of `capsketch estimate` on small r=1 builds, where the estimate
# is t * SUM, the sketch, or both on either side of the crossing: 40 elements
# of 36 keys, far below the gate at the default epsilon (3/0.1^2 = 300
# distinct outputs) and across it at epsilon 0.5 (gate 12, k 64 keeps every
# output). Keyed by (build options, --mode, --stat, query arguments).
SMALL = ()
CROSSING = ("--epsilon", "0.5", "--k", "64")
FALLBACK_ESTIMATES = {
    (SMALL, "point", "softcapT=1", ()): "estimate: 58.5\n",
    (SMALL, "point", "softcapT=50", ()): "estimate: 58.5\n",
    (SMALL, "fullrange", "softcapT=5", ("--t", "0.02")): "estimate: 1.17\n",
    (SMALL, "fullrange", "softcapT=5", ("--t", "1")): "estimate: 58.5\n",
    (SMALL, "fullrange", "softcapT=5", ("--stat", "softcapT=50")): "estimate: 58.5\n",
    (SMALL, "fullrange", "softcapT=5", ("--stat", "sqrt")): "estimate: 99.43728484\n",
    (SMALL, "fullrange", "softcapT=5", ("--stat", "capT=5")): "estimate: 58.5\n" + CERT,
    (SMALL, "fullrange", "softcapT=5", ("--stat", "distinct")): "estimate: 36\n",
    (SMALL, "fullrange", "softcapT=5", ("--stat", "sum")): "estimate: 58.5\n",
    (CROSSING, "point", "softcapT=1", ()): "estimate: 29\n",
    (CROSSING, "point", "softcapT=50", ()): "estimate: 58.5\n",
    (CROSSING, "fullrange", "softcapT=5", ("--t", "0.02")): "estimate: 1.17\n",
    (CROSSING, "fullrange", "softcapT=5", ("--t", "1")): "estimate: 29\n",
    (CROSSING, "fullrange", "softcapT=5", ("--stat", "softcapT=50")): "estimate: 58.5\n",
    (CROSSING, "fullrange", "softcapT=5", ("--stat", "sqrt")): "estimate: 45.94119958\n",
    (CROSSING, "fullrange", "softcapT=5", ("--stat", "capT=5")): (
        "estimate: 84.2458616\ncertificate: rho=2.5 relative error bound <= 2.5\n"
    ),
    (CROSSING, "fullrange", "softcapT=5", ("--stat", "distinct")): "estimate: 36\n",
    (CROSSING, "fullrange", "softcapT=5", ("--stat", "sum")): "estimate: 58.5\n",
}


def test_fallback_estimates(tmp_path):
    tsv = tmp_path / "small.tsv"
    tsv.write_text("".join(f"k{i % 36}\t{0.25 + (i * 37 % 11) / 4}\n" for i in range(40)))
    for (size, mode, stat, args), expected in FALLBACK_ESTIMATES.items():
        path = tmp_path / "small.fsk"
        out = io.StringIO()
        with redirect_stdout(io.StringIO()):
            assert main(["build", str(tsv), "--mode", mode, "--stat", stat, "--r", "1", *size, "-o", str(path)]) == 0
        with redirect_stdout(out):
            assert main(["estimate", str(path), *args]) == 0
        assert out.getvalue() == expected, (size, mode, stat, args)
