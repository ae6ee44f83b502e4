"""The command-line tool runs on numpy alone: no command loads scipy.

Each command runs in one fresh interpreter, since this test process has
imported scipy for other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

STATISTICS = ["capT=5", "softcapT=5", "moment=0.5", "sqrt", "log1p", "distinct", "sum", "cap1approx=A:1.5,b1:0.6,b2:7.97"]

SCRIPT = """
import io, sys
from contextlib import redirect_stdout
from pathlib import Path

import capsketch
from capsketch.cli import main

d, src, statistics = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3:]
assert Path(capsketch.__file__).resolve().parent.parent == src, capsketch.__file__


def run(*argv):
    with redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0, argv


tsv = d / "in.tsv"
tsv.write_text("".join(f"k{i % 37}\\t{1 + i % 5}.5\\n" for i in range(300)))
routes = {"point": ("point", "softcapT=5"), "fullrange": ("fullrange", "softcapT=5"),
          "combination": ("combination", "log1p"), "signed": ("combination", "capT=5")}
for route, (mode, stat) in routes.items():
    out = d / f"{route}.fsk"
    run("build", tsv, "--mode", mode, "--stat", stat, "--r", "3", "--k", "16", "-o", out)
    run("merge", out, out, "-o", d / f"{route}-merged.fsk")
    run("estimate", out)
for stat in statistics:
    run("estimate", d / "fullrange.fsk", "--stat", stat)
    run("exact", tsv, "--stat", stat)
run("estimate", d / "fullrange.fsk", "--t", "0.5")
run("bench", "--alpha", "1.5", "--n", "500", "--T", "5", "--r", "1", "2", "--k", "20", "--reps", "1",
    "--n-keys", "500", "--out", d / "bench.csv")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_commands_never_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", SCRIPT, str(tmp_path), str(SRC), *STATISTICS]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
