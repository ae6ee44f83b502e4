"""Golden sketch bytes: a fixed stream built in every mode must keep its digest.

The digests pin the exact file bytes of ``capsketch build`` at the default
replication, so a change that makes ingestion faster cannot silently change
what the sketches hold. Update them only together with a file-format change.
"""

import hashlib

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

GOLDEN_SHA256 = {
    "point": "4194da7a9e66ab180ea3b916839f312e731196f89fb7d1ac1ef582bae51c75a5",
    "fullrange": "15cc21d351a3c1132f8f458899e8986cf83c44b41b0b5a395d89c14bd74f7daf",
    "combination": "176e67b155c4170f4e76d50d8770acaae85492131fe001afdf1047c4777ebe83",
    "signed": "d9c91b0e5ff4aa83f01d96bd2a680d903b6e234554f7f29a960ac47c024aef19",
}


def golden_stream(path) -> None:
    """512 elements with Zipf(2.0) keys and float values in [0.25, 4)."""
    ranks = zipf_ranks(512, 2.0, n_keys=10_000, seed=2016)
    values = np.random.default_rng(2016).uniform(0.25, 4.0, len(ranks))
    path.write_text("".join(f"k{r}\t{v!r}\n" for r, v in zip(ranks.tolist(), values.tolist())))


def build_digest(tmp_path, route: str) -> str:
    tsv = tmp_path / "golden.tsv"
    if not tsv.exists():
        golden_stream(tsv)
    mode, stat = ROUTES[route]
    out = tmp_path / f"{route}.fsk"
    assert main(["build", str(tsv), "--mode", mode, "--stat", stat, "--r", "auto", "-o", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_golden_build_digest(tmp_path, capsys, route):
    assert build_digest(tmp_path, route) == GOLDEN_SHA256[route]
