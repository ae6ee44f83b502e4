"""capsketch benchmark: build, merge and estimate, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload stream-r1 --seed 1 --seconds 30 --trace 0

The benchmark imports ``capsketch`` from ``src/`` of the checkout and drives
it through ``capsketch.cli.main``, the code path of the ``capsketch``
command without interpreter start-up. Its inputs are Zipf streams generated
from ``--seed``; the library only sees the TSV files written from them.

Each run sets up several times (the median is ``setup_s``), then repeats a
round until ``--seconds`` have passed: build every shard in four modes, merge
each mode's shards, and query the merged files. Every operation's output is
checked (see ``README.md``). With ``--trace 1`` the run alternates untraced
and traced rounds and reports per-layer metrics from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_spans"

N_KEYS = 1_000_000
SETUP_REPS = 3
MIN_QUERIES = 100
K = 100  # the CLI default sketch size at epsilon 0.1
# A saturated bottom-k estimate is the exact value times (k-1)/G with
# G ~ Gamma(k): a CV of about 1/sqrt(k-2), with a long upper tail. Estimates
# must lie in the central interval of that ratio with TAIL in each tail:
# (k-1)/gamma.isf(TAIL, k) and (k-1)/gamma.ppf(TAIL, k) from scipy.stats,
# written out so that the run does not import scipy.stats.
TAIL = 1e-6
RATIO_LO = 0.6390434395211181
RATIO_HI = 1.6656481901499431

# (name, --mode, --stat) of the four build routes; capT=5 in combination
# mode takes the signed route.
MODES = (
    ("point", "point", "softcapT=5"),
    ("fullrange", "fullrange", "softcapT=5"),
    ("combination", "combination", "sqrt"),
    ("signed", "combination", "capT=5"),
)
# Queries against the merged full-range file: (label, extra estimate args).
FULLRANGE_QUERIES = (
    *((f"softcapT={T}", ["--stat", f"softcapT={T}"]) for T in (1, 2, 5, 10, 20)),
    ("sqrt", ["--stat", "sqrt"]),
    ("log1p", ["--stat", "log1p"]),
    ("moment=0.5", ["--stat", "moment=0.5"]),
    ("capT=5", ["--stat", "capT=5"]),
    ("distinct", ["--stat", "distinct"]),
    ("sum", ["--stat", "sum"]),
    ("t=0.5", ["--t", "0.5"]),
    ("t=2", ["--t", "2"]),
)


@dataclass(frozen=True)
class Workload:
    name: str
    alpha: float  # Zipf exponent of the key stream
    elements: int
    float_values: bool  # False: the value column is omitted (every value 1)
    r: str  # the build's --r
    shards: int
    # True: shards and single-pass references are built during set-up, and a
    # round rebuilds one shard per mode before merging all of them.
    prebuilt: bool
    # Passes over the query mix per round, spread over the round's modes so
    # that queries sample the whole run even when builds are long.
    query_reps: int


WORKLOADS = {
    w.name: w
    for w in (
        # r=1 on a benign stream: TSV parsing and key hashing dominate builds.
        Workload("stream-r1", 1.1, 60_000, False, "1", 2, False, 1),
        # Worst-case replication on a skewed stream: mappers and sketch updates dominate.
        Workload("replicated-r501", 2.0, 8_192, True, "auto", 2, False, 4),
        # Prebuilt shards merged and queried: reads, merges and estimates dominate.
        Workload("shard-merge-query", 1.1, 16_000, True, "1", 8, True, 1),
    )
}


def import_capsketch() -> None:
    """Import capsketch from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import capsketch.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import capsketch from {SRC}: {exc}")
    if Path(capsketch.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: capsketch imported from {capsketch.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    shard_tsvs: list[Path]
    bases: list[int]
    sizes: list[int]
    oracle: dict[str, float]
    shard_files: dict[str, list[Path]] = field(default_factory=dict)  # prebuilt only
    ref_files: dict[str, Path] = field(default_factory=dict)  # prebuilt only
    ref_estimates: dict[str, float] = field(default_factory=dict)  # prebuilt only


def _stream(w: Workload, seed: int):
    from capsketch.oracle import zipf_ranks

    ranks = zipf_ranks(w.elements, w.alpha, N_KEYS, seed)
    if w.float_values:
        values = np.random.default_rng([seed, 1]).uniform(0.25, 4.0, w.elements)
    else:
        values = np.ones(w.elements)
    return ranks, values


def _write_tsv(path: Path, ranks, values, with_values: bool) -> None:
    if with_values:
        lines = (f"k{r}\t{v!r}\n" for r, v in zip(ranks.tolist(), values.tolist()))
    else:
        lines = (f"k{r}\n" for r in ranks.tolist())
    path.write_text("".join(lines))


def _oracle(ranks, values) -> dict[str, float]:
    """Exact value of every statistic the benchmark queries."""
    from capsketch.core import FrequencyDistribution
    from capsketch.oracle import exact_statistic
    from capsketch.transforms import parse_statistic

    _, inv = np.unique(ranks, return_inverse=True)
    ws, cs = np.unique(np.bincount(inv, weights=values), return_counts=True)
    dist = FrequencyDistribution.from_pairs(ws, cs)
    out = {}
    for label, _ in FULLRANGE_QUERIES:
        if label.startswith("t="):
            t = float(label[2:])
            out[label] = t * exact_statistic(dist, parse_statistic(f"softcapT={1 / t!r}"))
        else:
            out[label] = exact_statistic(dist, parse_statistic(label))
    return out


def set_up(w: Workload, seed: int, workdir: Path, ops: "Ops") -> Inputs:
    """Generate the stream, write the shard TSVs, compute the oracle and, for a
    prebuilt workload, build the shard and single-pass sketch files."""
    workdir.mkdir()
    ranks, values = _stream(w, seed)
    bounds = [w.elements * s // w.shards for s in range(w.shards + 1)]
    inputs = Inputs([], bounds[:-1], [hi - lo for lo, hi in zip(bounds, bounds[1:])], _oracle(ranks, values))
    for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        path = workdir / f"shard{s}.tsv"
        _write_tsv(path, ranks[lo:hi], values[lo:hi], w.float_values)
        inputs.shard_tsvs.append(path)
    if w.prebuilt:
        full = workdir / "full.tsv"
        _write_tsv(full, ranks, values, w.float_values)
        for mode, cli_mode, stat in MODES:
            inputs.shard_files[mode] = []
            for s, tsv in enumerate(inputs.shard_tsvs):
                out = workdir / f"{mode}-shard{s}.fsk"
                ops.run(build_argv(w, tsv, cli_mode, stat, inputs.bases[s], out))
                inputs.shard_files[mode].append(out)
            ref = workdir / f"{mode}-single.fsk"
            ops.run(build_argv(w, full, cli_mode, stat, 0, ref))
            inputs.ref_files[mode] = ref
            if mode in ("combination", "signed"):
                _, text = ops.run(["estimate", str(ref)])
                inputs.ref_estimates[mode] = parse_estimate(text or "")[0]
    return inputs


def build_argv(w: Workload, tsv: Path, cli_mode: str, stat: str, base: int, out: Path) -> list[str]:
    return ["build", str(tsv), "--mode", cli_mode, "--stat", stat, "--r", w.r, "--ordinal-base", str(base), "-o", str(out)]


def parse_estimate(text: str) -> tuple[float, float]:
    """(estimate, certified relative error bound or 0) from estimate output."""
    value, cert = math.nan, 0.0
    for line in text.splitlines():
        if line.startswith("estimate: "):
            value = float(line.split()[1])
        elif line.startswith("certificate: "):
            cert = float(line.rsplit("<=", 1)[1])
    return value, cert


# ---------------------------------------------------------------------------
# operations and checks


class Ops:
    """Runs CLI commands in-process and counts attempted and failed operations.

    An operation fails when the command exits nonzero, raises, or produces
    output that fails a correctness check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.tracer = None
        self.hashes: dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def run(self, argv: list[str], span: str | None = None, counts=None) -> tuple[float, str | None]:
        """Run one command; returns (seconds, stdout), stdout None on failure."""
        from capsketch import cli

        self.attempted += 1
        buf = io.StringIO()
        idx = self.tracer.begin(span) if self.tracer is not None and span else None
        try:
            with contextlib.redirect_stdout(buf):
                t0 = perf_counter()
                try:
                    rc = cli.main(argv)
                finally:
                    seconds = perf_counter() - t0
        except Exception as exc:  # a crash is a failed operation; the run goes on
            self.fail(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
            return seconds, None
        finally:
            if idx is not None:
                self.tracer.end(idx)
                self.tracer.spans[idx].counts = counts or {}
        if rc != 0:
            self.fail(f"{' '.join(argv)}: exit {rc}")
            return seconds, None
        return seconds, buf.getvalue()

    def check(self, problems: list[str | None]) -> None:
        """Count the operation as failed once if any of its checks found a problem."""
        found = [p for p in problems if p]
        if found:
            self.fail("; ".join(found))

    def file_problem(self, label: str, path: Path, expected: bytes | None = None, what: str = "") -> str | None:
        """Record the file's SHA-256 under ``label``; a problem if it differs
        from the first file seen under that label or from ``expected``."""
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        first = self.hashes.setdefault(label, digest)
        if first != digest:
            return f"{label}: sha256 {digest} differs from earlier {first}"
        if expected is not None and data != expected:
            return f"{label}: bytes differ from {what}"
        return None


def estimate_problem(label: str, value: float, cert: float, exact: float) -> str | None:
    if label == "sum":
        ok = abs(value - exact) <= 1e-9 * exact
    else:
        # the signed route widens the interval by its certified bound rho * (eps+ + eps-)
        ok = (RATIO_LO - cert) * exact <= value <= (RATIO_HI + cert) * exact
    return None if ok else f"{label}: estimate {value!r} vs exact {exact!r}"


# ---------------------------------------------------------------------------
# one round


@dataclass
class RoundResult:
    wall: float = 0.0
    build: dict[str, list[tuple[int, float]]] = field(default_factory=dict)  # mode -> (elements, seconds) per build
    merge_s: dict[str, float] = field(default_factory=dict)  # mode -> seconds
    queries_s: list[float] = field(default_factory=list)
    sketch_bytes: int = 0


def run_round(w: Workload, inputs: Inputs, workdir: Path, index: int, ops: Ops) -> RoundResult:
    res = RoundResult()
    t_round = perf_counter()
    merged = {mode: workdir / f"{mode}-merged.fsk" for mode, _, _ in MODES}
    for j, (mode, cli_mode, stat) in enumerate(MODES):
        if w.prebuilt:
            rebuild = [index % w.shards]
            files = list(inputs.shard_files[mode])
        else:
            rebuild = range(w.shards)
            files = [workdir / f"{mode}-shard{s}.fsk" for s in range(w.shards)]
        res.build[mode] = []
        for s in rebuild:
            out = workdir / f"{mode}-rebuild.fsk" if w.prebuilt else files[s]
            n = inputs.sizes[s]
            dt, text = ops.run(
                build_argv(w, inputs.shard_tsvs[s], cli_mode, stat, inputs.bases[s], out),
                span=f"cli.build.{mode}",
                counts={"elements": n},
            )
            res.build[mode].append((n, dt))
            if text is None:
                continue
            first_line = text.splitlines()[0]
            expected = inputs.shard_files[mode][s].read_bytes() if w.prebuilt else None
            ops.check(
                [
                    None if first_line == f"elements: {n}" else f"build {mode} shard {s} printed {first_line!r}",
                    ops.file_problem(f"{mode}-shard{s}", out, expected, "the shard built during set-up"),
                ]
            )

        dt, text = ops.run(["merge", *map(str, files), "-o", str(merged[mode])], span="cli.merge")
        res.merge_s[mode] = dt
        if text is not None:
            res.sketch_bytes += merged[mode].stat().st_size
            single = inputs.ref_files[mode].read_bytes() if w.prebuilt and mode in ("point", "fullrange") else None
            ops.check([ops.file_problem(f"{mode}-merged", merged[mode], single, "the single-pass build")])

        # Query the latest merged files; in the first round they all exist
        # only after the last mode.
        if index or j == len(MODES) - 1:
            for _ in range((j + 1) * w.query_reps // len(MODES) - j * w.query_reps // len(MODES)):
                query_pass(inputs, merged, ops, res)
    res.wall = perf_counter() - t_round
    return res


def query_pass(inputs: Inputs, merged: dict[str, Path], ops: Ops, res: RoundResult) -> None:
    for mode, label, args in _query_mix():
        dt, text = ops.run(["estimate", str(merged[mode]), *args], span="cli.estimate")
        res.queries_s.append(dt)
        if text is None:
            continue
        value, cert = parse_estimate(text)
        ref = inputs.ref_estimates.get(mode, value)
        ops.check(
            [
                estimate_problem(label, value, cert, inputs.oracle[label]),
                None if math.isclose(value, ref, rel_tol=1e-9) else f"{mode}: merged estimate {value!r} vs single-pass {ref!r}",
            ]
        )


def _query_mix():
    for label, args in FULLRANGE_QUERIES:
        yield "fullrange", label, args
    yield "point", "softcapT=5", []
    yield "combination", "sqrt", []
    yield "signed", "capT=5", []


# ---------------------------------------------------------------------------
# metrics


def end_to_end(rounds: list[RoundResult], setup_s: float) -> dict[str, tuple[float, str]]:
    out = {"setup_s": (setup_s, "s")}
    for mode, _, _ in MODES:
        rates = [n / s for r in rounds for n, s in r.build[mode]]
        out[f"build_{mode}_el_per_s"] = (statistics.median(rates), "el/s")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    # one merge per mode per round: the sum over modes of each mode's median
    out["merge_s"] = (sum(statistics.median(r.merge_s[mode] for r in rounds) for mode, _, _ in MODES), "s")
    lat = [q * 1e3 for r in rounds for q in r.queries_s]
    # The 90th percentile of each run of MIN_QUERIES consecutive queries (ten
    # beyond it), median over those windows, so that a few seconds of a slow
    # machine do not set the whole run's tail.
    windows = [lat[i : i + MIN_QUERIES] for i in range(0, len(lat) - MIN_QUERIES + 1, MIN_QUERIES)]
    p90s = [statistics.quantiles(win, n=10, method="inclusive")[8] for win in windows]
    out["query_p50_ms"] = (statistics.median(lat), "ms")
    out["query_p90_ms"] = (statistics.median(p90s), "ms")
    out["sketch_bytes"] = (statistics.median(r.sketch_bytes for r in rounds), "B")
    return out


def traced_build_peaks(w: Workload, inputs: Inputs, workdir: Path, ops: Ops) -> dict[str, tuple[float, str]]:
    """tracemalloc peak of one shard build per mode."""
    out = {}
    for mode, cli_mode, stat in MODES:
        tracemalloc.start()
        try:
            ops.run(build_argv(w, inputs.shard_tsvs[0], cli_mode, stat, inputs.bases[0], workdir / f"{mode}-peak.fsk"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[f"cli.build.{mode}.peak_traced_mb"] = (peak / 2**20, "MB")
    return out


def environment() -> str:
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
        f"nproc {os.cpu_count()}, {platform.machine()}"
    )


def _traced_round(w: Workload, inputs: Inputs, workdir: Path, index: int, ops: Ops, tracer) -> RoundResult:
    ops.tracer = tracer
    tracer.install()
    try:
        return run_round(w, inputs, workdir, index, ops)
    finally:
        tracer.uninstall()
        ops.tracer = None


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path, span_dir: Path = SPAN_DIR) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    ops = Ops()
    setup_times = []
    for rep in range(SETUP_REPS):
        t0 = perf_counter()
        inputs = set_up(w, seed, workdir / f"setup{rep}", ops)
        setup_times.append(perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    if ops.failed:
        raise RuntimeError("set-up failed: " + "; ".join(ops.messages))

    rounds: list[RoundResult] = []
    traced: list[RoundResult] = []
    tracer = Tracer()
    t_start = perf_counter()
    index = 0
    while not rounds or perf_counter() - t_start < seconds or sum(len(r.queries_s) for r in rounds) < MIN_QUERIES:
        # A traced run pairs each untraced round with a traced copy of it,
        # alternating which goes first so that warm-up favours neither.
        if trace and index % 2:
            traced.append(_traced_round(w, inputs, workdir, index, ops, tracer))
        rounds.append(run_round(w, inputs, workdir, index, ops))
        if trace and not index % 2:
            traced.append(_traced_round(w, inputs, workdir, index, ops, tracer))
        index += 1

    print(f"workload {w.name}")
    print(f"seed {seed}; {environment()}")
    print(f"set-up: {len(setup_times)} runs, " + ", ".join(f"{t:.3f} s" for t in setup_times))
    print(f"rounds: {len(rounds)} untraced" + (f", {len(traced)} traced" if trace else ""))
    for label, digest in ops.hashes.items():
        print(f"sha256 {label} {digest}")
    for message in ops.messages:
        print(f"FAILED {message}")

    if trace:
        metrics = layer_metrics(tracer.spans, len(traced))
        overhead = sum(r.wall for r in traced) / sum(r.wall for r in rounds) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        metrics.update(traced_build_peaks(w, inputs, workdir, ops))
        for mode, _, _ in MODES:
            spans = sum(s.seconds for s in tracer.spans if s.name == f"cli.build.{mode}")
            plain = sum(s for r in rounds for _, s in r.build[mode])
            print(f"build {mode}: traced spans {spans:.4f} s vs untraced {plain:.4f} s ({spans / plain - 1:+.1%})")
        span_dir.mkdir(exist_ok=True)
        path = span_dir / f"{w.name}-seed{seed}.jsonl.gz"
        tracer.dump(path)
        print(f"spans: {len(tracer.spans)} written to {path}")
    else:
        metrics = end_to_end(rounds, setup_s)
        queries = sum(len(r.queries_s) for r in rounds)
        print(f"queries: {queries} samples; p90 per window of {MIN_QUERIES}, {queries // MIN_QUERIES} windows")
        print(f"ops_failed_frac {ops.failed / ops.attempted:.6g} ratio")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    import_capsketch()
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
