"""Command-line surface: build sketches from TSV element streams, merge sketch
files, query estimates, evaluate the exact oracle, and run the benchmark.

Input format is tab-separated ``key<TAB>value`` lines; the value column is
optional and defaults to 1. Keys are raw bytes up to the first tab. Blank
lines are skipped but counted in line numbers. Input is ingested CHUNK
lines at a time; a chunk is split and converted in bulk, and parsed line by
line only when that fails.

Exit codes: 0 success, 2 parse error (a malformed line, sketch file or
build, query or bench option) or a path that cannot be read or written, 3
incompatible sketches, 4 unsupported statistic.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import stat
import sys
from itertools import islice
from math import ceil, inf
from pathlib import Path

import numpy as np

from .core import (
    MIN_EPSILON,
    Element,
    ElementValidationError,
    IllPosedTransformError,
    IncompatibleSketchError,
    ParseError,
    UnsupportedStatisticError,
    aggregate,
    hash_keys,
)
from .estimators import (
    CombinationPipeline,
    FullRangePipeline,
    PointPipeline,
    SignedCombinationPipeline,
    SignedEstimate,
)
from .mappers import choose_replication
from .oracle import exact_statistic
from .sketchfile import SketchFileHeader, unpack
from .transforms import SignedCoefficientFunction, StatisticSpec, measured_function, parse_statistic

__all__ = ["main", "read_sketch_file", "write_sketch_file"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INCOMPATIBLE = 3
EXIT_UNSUPPORTED = 4

# Non-blank input lines per ingested batch. A combination file depends on
# where batches split, so changing this changes its bytes.
CHUNK = 8192


def write_sketch_file(path: str, data: bytes) -> None:
    """Write ``data`` over the file at ``path`` in place, then cut a regular
    file's old tail (``/dev/null`` and pipes cannot be cut). Truncating to zero
    first would make ext4 (``auto_da_alloc``) flush the file on close. A write
    that stops partway leaves a mix or a stale tail, which reads refuse by the
    CRC32 or the body length, as they refuse a truncated file. No ``fsync``."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def read_sketch_file(path: str) -> tuple[SketchFileHeader, list[bytes]]:
    """The header and the sections of a sketch file, checked whole."""
    data = Path(path).read_bytes()
    try:
        return unpack(data)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _read(paths: list[str]) -> tuple[SketchFileHeader, list]:
    """The first header and the pipelines of the files at ``paths``, which must match it and share its route.
    Routing a header is part of reading its file, so a refusal there is a ParseError naming the path."""
    files = [read_sketch_file(p) for p in paths]
    base = files[0][0]
    for path, (header, _) in zip(paths[1:], files[1:]):
        for field in ("mode", "statistic", "epsilon", "r", "k", "seed"):
            a, b = getattr(base, field), getattr(header, field)
            if a != b:
                raise IncompatibleSketchError(f"{path}: {field} mismatch ({b!r} vs {a!r})")
    pipelines, path = [], paths[0]
    try:
        cls, head = _route(base.mode, parse_statistic(base.statistic))
        for path, (header, sections) in zip(paths, files):
            pipelines.append(cls.from_sections(header, sections, *head))
    except (ParseError, UnsupportedStatisticError, IllPosedTransformError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    return base, pipelines


def _parse_lines(raw: list[bytes], lineno: int) -> tuple[list[bytes], np.ndarray]:
    """Keys and values of raw lines numbered from ``lineno``, one at a time; raises the first bad line's ParseError."""
    keys, values = [], []
    for lineno, line in enumerate(raw, start=lineno):
        key, tab, rest = line.rstrip(b"\r\n").partition(b"\t")
        if not (key or tab):
            continue
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        try:
            value = float(rest) if rest else 1.0
        except ValueError:
            raise ParseError(f"line {lineno}: bad value {rest!r}") from None
        try:
            Element(key, value)
        except ElementValidationError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        keys.append(key)
        values.append(value)
    return keys, np.array(values)


def _split_chunk(lines: list[bytes]) -> tuple[list[bytes], np.ndarray] | None:
    """Keys and values of non-blank lines that all have no tab, or all exactly
    one, split and converted in bulk; None if any line is not so or fails a check."""
    joined = b"\n".join(lines)
    if b"\t" not in joined:
        return lines, np.ones(len(lines))
    seps = np.frombuffer(joined, np.uint8)
    seps = seps[(seps == 9) | (seps == 10)]  # one tab per line: tab, newline, ..., tab
    if len(seps) != 2 * len(lines) - 1 or not np.all(seps[::2] == 9):
        return None
    fields = joined.replace(b"\n", b"\t").split(b"\t")
    try:
        values = np.array(list(map(float, fields[1::2])))
    except ValueError:
        return None
    return (fields[::2], values) if all(fields[::2]) and np.all((values > 0.0) & (values < inf)) else None


def _read_chunks(path: str):
    """Keys and values of a TSV input, CHUNK non-blank lines at a time. A
    chunk is split and converted as a whole; one that fails is parsed again
    line by line, which raises the ParseError of its first bad line or accepts
    a mix of lines with and without a value column."""
    with contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fh:
        lineno = 1
        while True:
            raw, lines = [], []  # blank lines are in raw, not in lines
            while len(lines) < CHUNK and (more := list(islice(fh, CHUNK - len(lines)))):
                raw += more
                lines += [s for line in more if (s := line.rstrip(b"\r\n"))]
            if not lines:
                return
            yield _split_chunk(lines) or _parse_lines(raw, lineno)
            lineno += len(raw)


def _key_hashes(keys) -> np.ndarray:
    """``hash_keys(keys)``, hashing each distinct key once."""
    at = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    return hash_keys(at)[np.fromiter(map(at.__getitem__, keys), np.intp, len(keys))]


def _route(mode: str, spec: StatisticSpec):
    """Pipeline class for ``spec`` in a build or file mode, and its leading
    constructor arguments, picked by the form of its measured function: one
    point mass for point mode, a nonnegative function for combination, a
    signed one for signed. Full-range also answers ``distinct`` and ``sum``."""
    if mode == "fullrange" and spec.name in ("distinct", "sum"):
        return FullRangePipeline, ()
    try:
        a = measured_function(spec)
    except (UnsupportedStatisticError, IllPosedTransformError) as exc:
        raise type(exc)(f"{mode} mode: {exc}") from None
    if mode == "fullrange":
        return FullRangePipeline, ()
    if mode == "point":
        if isinstance(a, SignedCoefficientFunction) or a.parts or len(a.deltas) != 1:
            raise UnsupportedStatisticError(f"point mode measures one point mass; {spec.descriptor()!r} is not one")
        return PointPipeline, (a.deltas[0][0],)
    return (SignedCombinationPipeline if isinstance(a, SignedCoefficientFunction) else CombinationPipeline), (a,)


def _cmd_build(args) -> int:
    spec = parse_statistic(args.stat)
    # options a sketch file cannot hold exit 2 before any input is read
    if not MIN_EPSILON <= args.epsilon < 1.0:
        raise ParseError(f"--epsilon must lie in [{MIN_EPSILON:g}, 1), got {args.epsilon}")
    try:
        r = choose_replication(args.epsilon) if args.r == "auto" else int(args.r)
    except ValueError:
        raise ParseError(f"--r must be 'auto' or an integer, got {args.r!r}") from None
    k = ceil(args.epsilon**-2) if args.k is None else args.k
    fields = (("--r", r, 1, 32), ("--k", k, 1, 32), ("--seed", args.seed, 0, 64), ("--ordinal-base", args.ordinal_base, 0, 64))
    for name, value, low, bits in fields:  # the header's field widths
        if not low <= value < 2**bits:
            raise ParseError(f"{name} must lie in [{low}, 2**{bits}), got {value}")
    cls, head = _route(args.mode, spec)
    pipeline = cls(*head, r, args.epsilon, k, args.seed, args.ordinal_base)
    n = 0
    for keys, values in _read_chunks(args.input):
        pipeline.ingest_batch(_key_hashes(keys), values)
        n += len(keys)
    write_sketch_file(args.output, pipeline.to_bytes(spec.descriptor()))
    print(f"elements: {n}")
    if not isinstance(pipeline, PointPipeline):  # a point build never draws most cells; others map r per element once
        print(f"output elements: {pipeline.count * pipeline.r}")
    return EXIT_OK


def _cmd_merge(args) -> int:
    header, (first, *rest) = _read(args.inputs)
    merged = first.merge(*rest)
    write_sketch_file(args.output, merged.to_bytes(header.statistic))
    print(f"merged {len(args.inputs)} sketches")
    return EXIT_OK


def _print_estimate(est: float | SignedEstimate) -> None:
    """Print an estimate, and a signed one's certificate and any clamp."""
    print(f"estimate: {est.value if isinstance(est, SignedEstimate) else est:.10g}")
    if isinstance(est, SignedEstimate):
        print(f"certificate: rho={est.rho:.6g} relative error bound <= {est.error_bound:.6g}")
        if est.clamped:
            print(f"warning: negative raw estimate {est.raw:.6g} clamped to 0")


def _fullrange_query(pipeline: FullRangePipeline, spec: StatisticSpec) -> float | SignedEstimate:
    """A full-range sketch's estimate of ``spec``, by its measured function unless it is ``distinct`` or ``sum``."""
    if spec.name == "distinct":
        return pipeline.estimate_at(inf)
    if spec.name == "sum":
        return pipeline.sum_counter.value()
    return pipeline.estimate_combination(measured_function(spec))


def _cmd_estimate(args) -> int:
    if args.t is not None and not args.t >= 0.0:
        raise ParseError(f"--t must be >= 0, got {args.t}")
    if args.t is not None and args.stat is not None:
        raise ParseError("--t queries the transform, not a statistic; give --stat or --t, not both")
    header, (pipeline,) = _read([args.sketch])
    if header.mode != "fullrange" and (args.stat is not None or args.t is not None):
        raise UnsupportedStatisticError(f"{header.mode} sketches answer only their build statistic")
    if header.mode == "point":  # the estimate at t times the point mass
        ((_, mass),) = measured_function(header.statistic).deltas
        value = mass * pipeline.estimate()
    elif header.mode != "fullrange":
        value = pipeline.estimate()
    elif args.t is not None:
        value = pipeline.estimate_at(args.t)
    else:
        value = _fullrange_query(pipeline, parse_statistic(args.stat if args.stat is not None else header.statistic))
    _print_estimate(value)
    return EXIT_OK


def _cmd_exact(args) -> int:
    spec = parse_statistic(args.stat)
    dist = aggregate(pair for keys, values in _read_chunks(args.input) for pair in zip(keys, values.tolist()))
    print(f"exact: {exact_statistic(dist, spec):.10g}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .bench import point_benchmark, write_csv

    # options that would stop the run or fill it with nan exit 2 before any work
    checks = [("--alpha", a, 0.0 < a < inf, "positive and finite") for a in args.alpha]
    checks += [("--T", T, 0.0 < T < inf and 1.0 / T < inf, "positive and finite with a finite reciprocal") for T in args.T]
    counts = (("--n", [args.n]), ("--r", args.r), ("--k", [args.k]), ("--reps", [args.reps]), ("--n-keys", [args.n_keys]))
    checks += [(name, v, v >= 1, ">= 1") for name, values in counts for v in values]
    for name, value, ok, domain in checks:
        if not ok:
            raise ParseError(f"{name} must be {domain}, got {value}")
    rows = point_benchmark(
        alphas=args.alpha,
        n_elements=args.n,
        Ts=args.T,
        rs=args.r,
        k=args.k,
        reps=args.reps,
        seed=args.seed,
        n_keys=args.n_keys,
    )
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each ``parse_args``
    returns a fresh namespace, so one call's options never reach the next
    (list defaults are tuples, so no call can change them)."""
    p = argparse.ArgumentParser(prog="capsketch", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a sketch from a TSV element stream")
    b.add_argument("input", help="input path or - for stdin")
    b.add_argument("--stat", required=True, help="statistic descriptor, e.g. softcapT=5, sqrt, capT=5")
    b.add_argument("--mode", choices=["point", "combination", "fullrange"], default="point")
    b.add_argument("--epsilon", type=float, default=0.1)
    b.add_argument(
        "--r",
        default="auto",
        help="replication count; the default 'auto' applies the worst-case policy "
        "ceil(e/(e-1) epsilon^-2.5). Use a small r only when the weight sum is "
        "much larger than the largest key weight.",
    )
    b.add_argument("--k", type=int, default=None, help="sketch size (default ceil(1/epsilon^2))")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument(
        "--ordinal-base",
        type=int,
        default=0,
        dest="ordinal_base",
        help="first element ordinal of this shard; make bases partition-consistent for byte-exact merges",
    )
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=_cmd_build)

    m = sub.add_parser("merge", help="merge compatible sketch files")
    m.add_argument("inputs", nargs="+")
    m.add_argument("-o", "--output", required=True)
    m.set_defaults(func=_cmd_merge)

    e = sub.add_parser("estimate", help="print the estimate stored in a sketch file")
    e.add_argument("sketch")
    e.add_argument("--stat", default=None, help="statistic override (full-range sketches only)")
    e.add_argument("--t", type=float, default=None, help="raw transform query at threshold t (full-range only)")
    e.set_defaults(func=_cmd_estimate)

    x = sub.add_parser("exact", help="exact statistic over a TSV element stream")
    x.add_argument("input", help="input path or - for stdin")
    x.add_argument("--stat", required=True)
    x.set_defaults(func=_cmd_exact)

    bench = sub.add_parser("bench", help="replication benchmark on Zipf streams (CSV output)")
    bench.add_argument("--alpha", type=float, nargs="+", default=(1.1, 1.2, 1.5, 2.0))
    bench.add_argument("--n", type=int, default=100_000)
    bench.add_argument("--T", type=float, nargs="+", default=(1, 5, 20, 100, 500))
    bench.add_argument("--r", type=int, nargs="+", default=(1, 10, 100))
    bench.add_argument("--k", type=int, default=100)
    bench.add_argument("--reps", type=int, default=200)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--n-keys", type=int, default=1_000_000, dest="n_keys")
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_bench)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ElementValidationError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IncompatibleSketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (UnsupportedStatisticError, IllPosedTransformError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
