"""Command-line surface: build sketches from TSV element streams, merge sketch
files, query estimates, evaluate the exact oracle, and run the benchmark.

Input format is tab-separated ``key<TAB>value`` lines; the value column is
optional and defaults to 1. Keys are raw bytes up to the first tab.

Exit codes: 0 success, 2 parse error (a malformed line or sketch file),
3 incompatible sketches, 4 unsupported statistic.
"""

from __future__ import annotations

import argparse
import sys
from math import ceil
from pathlib import Path

import numpy as np

from .core import (
    Element,
    ElementValidationError,
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
    signed_estimate,
)
from .mappers import choose_replication
from .oracle import exact_statistic
from .sketchfile import SketchFileHeader, unpack
from .transforms import (
    THREE_POINT_STABLE,
    StatisticSpec,
    cap1_approximation,
    capping_transform,
    inverse_transform,
    lift_cap1_to_f,
    parse_statistic,
)

__all__ = ["main", "ParseError", "SketchFileHeader", "read_sketch_file", "write_sketch_file"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INCOMPATIBLE = 3
EXIT_UNSUPPORTED = 4


def write_sketch_file(path: str, data: bytes) -> None:
    Path(path).write_bytes(data)


def read_sketch_file(path: str) -> tuple[SketchFileHeader, bytes]:
    """The header and the bytes of a sketch file, checked whole."""
    data = Path(path).read_bytes()
    try:
        return unpack(data)[0], data
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _read_elements(path: str):
    """Parse TSV lines into elements; raises ParseError with the line number."""
    fh = sys.stdin.buffer if path == "-" else open(path, "rb")
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip(b"\r\n")
            if not line:
                continue
            key, _, rest = line.partition(b"\t")
            if not key:
                raise ParseError(f"line {lineno}: empty key")
            if rest:
                try:
                    value = float(rest)
                except ValueError:
                    raise ParseError(f"line {lineno}: bad value {rest!r}") from None
            else:
                value = 1.0
            try:
                yield Element(key, value)
            except ElementValidationError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
    finally:
        if path != "-":
            fh.close()


def _signed_function(spec: StatisticSpec):
    """Signed coefficient function for hard-capping statistics."""
    if spec.name == "cap1approx":
        p = spec.params
        return cap1_approximation("three_point", A=p["A"], b1=p["b1"], b2=p["b2"])
    if spec.name == "cap":
        alpha = cap1_approximation("three_point", **THREE_POINT_STABLE)
        return lift_cap1_to_f(capping_transform(spec), alpha)
    raise UnsupportedStatisticError(f"statistic {spec.name!r} has no signed route")


def _route(mode: str, spec: StatisticSpec):
    """Pipeline class for ``spec`` in a build or file mode, and its leading constructor arguments."""
    if mode == "point":
        if spec.name != "softcap":
            raise UnsupportedStatisticError(f"point mode measures softcapT statistics; got {spec.descriptor()!r}")
        return PointPipeline, (1.0 / spec.params["T"],)
    if mode in ("combination", "signed"):
        if spec.name in ("cap", "cap1approx"):
            return SignedCombinationPipeline, (_signed_function(spec),)
        return CombinationPipeline, (inverse_transform(spec),)
    if mode == "fullrange":
        return FullRangePipeline, ()
    raise UnsupportedStatisticError(f"unknown mode {mode!r}")


def _load_pipeline(header: SketchFileHeader, data: bytes):
    cls, head = _route(header.mode, parse_statistic(header.statistic))
    return cls.from_bytes(data, *head)


def _emitted(pipeline) -> int:
    if isinstance(pipeline, SignedCombinationPipeline):
        return pipeline.plus.count * pipeline.plus.r + pipeline.minus.count * pipeline.minus.r
    if isinstance(pipeline, (CombinationPipeline, FullRangePipeline)):
        return pipeline.count * pipeline.r
    return pipeline.emitted


def _cmd_build(args) -> int:
    spec = parse_statistic(args.stat)
    epsilon = args.epsilon
    k = args.k if args.k is not None else ceil(epsilon**-2)
    r = choose_replication(epsilon) if args.r == "auto" else int(args.r)
    cls, head = _route(args.mode, spec)
    pipeline = cls(*head, r, epsilon, k, args.seed, args.ordinal_base)
    n = 0
    # chunked batch ingestion; bit-identical to element-at-a-time
    chunk_keys: list[bytes] = []
    chunk_vals: list[float] = []
    for e in _read_elements(args.input):
        chunk_keys.append(e.key)
        chunk_vals.append(e.value)
        n += 1
        if len(chunk_keys) >= 8192:
            pipeline.ingest_batch(hash_keys(chunk_keys), np.array(chunk_vals))
            chunk_keys, chunk_vals = [], []
    if chunk_keys:
        pipeline.ingest_batch(hash_keys(chunk_keys), np.array(chunk_vals))
    write_sketch_file(args.output, pipeline.to_bytes(spec.descriptor()))
    print(f"elements: {n}")
    print(f"output elements: {_emitted(pipeline)}")
    return EXIT_OK


def _cmd_merge(args) -> int:
    files = [read_sketch_file(p) for p in args.inputs]
    base_header = files[0][0]
    for path, (header, _) in zip(args.inputs[1:], files[1:]):
        for field in ("mode", "statistic", "epsilon", "r", "k", "seed"):
            a, b = getattr(base_header, field), getattr(header, field)
            if a != b:
                raise IncompatibleSketchError(f"{path}: {field} mismatch ({b!r} vs {a!r})")
    merged = _load_pipeline(*files[0])
    for header, data in files[1:]:
        merged = merged.merge(_load_pipeline(header, data))
    write_sketch_file(args.output, merged.to_bytes(base_header.statistic))
    print(f"merged {len(args.inputs)} sketches")
    return EXIT_OK


def _print_signed(est) -> None:
    print(f"estimate: {est.value:.10g}")
    print(f"certificate: rho={est.rho:.6g} relative error bound <= {est.error_bound:.6g}")
    if est.clamped:
        print(f"warning: negative raw estimate {est.raw:.6g} clamped to 0")


def _fullrange_query(pipeline: FullRangePipeline, spec: StatisticSpec, epsilon: float):
    name = spec.name
    if name == "softcap":
        print(f"estimate: {pipeline.estimate_soft_cap(spec.params['T']):.10g}")
    elif name in ("moment", "sqrt", "log1p"):
        print(f"estimate: {pipeline.estimate_combination(inverse_transform(spec)):.10g}")
    elif name in ("cap", "cap1approx"):
        signed = _signed_function(spec)
        est = signed_estimate(
            pipeline.estimate_combination(signed.plus),
            pipeline.estimate_combination(signed.minus),
            signed,
            eps_plus=epsilon,
            eps_minus=epsilon,
        )
        _print_signed(est)
    elif name == "distinct":
        print(f"estimate: {pipeline.estimate_at(float('inf')):.10g}")
    elif name == "sum":
        print(f"estimate: {pipeline.sum_counter.value():.10g}")
    else:
        raise UnsupportedStatisticError(f"cannot query {spec.descriptor()!r} from a full-range sketch")


def _cmd_estimate(args) -> int:
    header, data = read_sketch_file(args.sketch)
    pipeline = _load_pipeline(header, data)
    if header.mode != "fullrange" and (args.stat is not None or args.t is not None):
        raise UnsupportedStatisticError(f"{header.mode} sketches answer only their build statistic")
    if header.mode == "point":
        T = parse_statistic(header.statistic).params["T"]
        print(f"estimate: {T * pipeline.estimate():.10g}")
    elif header.mode == "combination":
        print(f"estimate: {pipeline.estimate():.10g}")
    elif header.mode == "signed":
        _print_signed(pipeline.estimate())
    elif args.t is not None:
        print(f"estimate: {pipeline.estimate_at(args.t):.10g}")
    else:
        spec = parse_statistic(args.stat if args.stat is not None else header.statistic)
        _fullrange_query(pipeline, spec, header.epsilon)
    return EXIT_OK


def _cmd_exact(args) -> int:
    spec = parse_statistic(args.stat)
    dist = aggregate(_read_elements(args.input))
    print(f"exact: {exact_statistic(dist, spec):.10g}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .bench import point_benchmark, write_csv

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


def _parser() -> argparse.ArgumentParser:
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
    bench.add_argument("--alpha", type=float, nargs="+", default=[1.1, 1.2, 1.5, 2.0])
    bench.add_argument("--n", type=int, default=100_000)
    bench.add_argument("--T", type=float, nargs="+", default=[1, 5, 20, 100, 500])
    bench.add_argument("--r", type=int, nargs="+", default=[1, 10, 100])
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
    except (ParseError, ElementValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IncompatibleSketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except UnsupportedStatisticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
