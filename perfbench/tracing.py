"""In-memory span tracer for the capsketch benchmark.

Spans are recorded from outside the library: :meth:`Tracer.install` replaces
public entry points with timing wrappers at the place where their callers look
them up (``capsketch.estimators.full_range_batch``, not only
``capsketch.mappers.full_range_batch``), and :meth:`Tracer.uninstall` puts
the originals back. Each span has a name, a start, an end, a parent and a few
counts; :func:`layer_metrics` derives per-layer times and counts from them.
"""

from __future__ import annotations

import functools
import gzip
import json
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the enclosing span, -1 at the top
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _entries(sketch) -> int:
    return len(getattr(sketch, "_entries", ()))


class Tracer:
    """Records nested spans of one thread; wrappers are active between
    :meth:`install` and :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._open.pop()

    def _wrap(self, owner, attr: str, name: str, counts=None) -> None:
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if counts is not None:
                tracer.spans[idx].counts = counts(args, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        from capsketch import cli, core, estimators, sketches, transforms

        w = self._wrap
        w(cli, "hash_keys", "core.hash_keys", lambda a, res: {"keys": len(res)})
        w(core.RandomnessSource, "uniform_block", "core.uniform_block")
        w(cli, "read_sketch_file", "cli.read_sketch_file")
        w(cli, "write_sketch_file", "cli.write_sketch_file")
        w(
            estimators,
            "point_outkeys_batch",
            "mappers.point_outkeys_batch",
            lambda a, res: {"cells": len(a[1]) * a[2].r, "outputs": len(res)},
        )
        w(
            estimators,
            "full_range_batch",
            "mappers.full_range_batch",
            lambda a, res: {"cells": len(a[1]) * a[2].r, "outputs": len(res[0])},
        )
        for cls in (sketches.DistinctCounter, sketches.MaxDistinctSketch, sketches.AllThresholdSketch):
            w(
                cls,
                "update_batch",
                f"sketches.{cls.__name__}.update_batch",
                lambda a, res: {"in": len(a[1]), "entries": _entries(a[0])},
            )
        w(sketches.SumCounter, "update_batch", "sketches.SumCounter.update_batch")
        for cls in (sketches.DistinctCounter, sketches.MaxDistinctSketch, sketches.AllThresholdSketch, sketches.SumCounter):
            w(cls, "merge", f"sketches.{cls.__name__}.merge")
            w(cls, "to_bytes", f"sketches.{cls.__name__}.to_bytes")
            w(cls, "from_bytes", f"sketches.{cls.__name__}.from_bytes", lambda a, res: {"entries": _entries(res)})
        pipelines = (
            estimators.PointPipeline,
            estimators.CombinationPipeline,
            estimators.FullRangePipeline,
            estimators.SignedCombinationPipeline,
        )
        for cls in pipelines:
            w(cls, "ingest_batch", f"estimators.{cls.__name__}.ingest_batch")
            w(cls, "merge", f"estimators.{cls.__name__}.merge")
            for attr in ("estimate", "estimate_at", "estimate_soft_cap", "estimate_combination"):
                if attr in cls.__dict__:
                    w(cls, attr, f"estimators.{cls.__name__}.{attr}")
        w(transforms.CoefficientFunction, "tail", "transforms.tail")
        w(transforms.CoefficientFunction, "head", "transforms.head")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.counts}) + "\n")


def _outermost(spans: list[Span], match) -> list[Span]:
    """Spans whose name matches and that have no matching ancestor, so nested
    calls of one layer (an estimate calling another estimate) count once."""
    out = []
    for s in spans:
        if not match(s.name):
            continue
        p = s.parent
        while p >= 0 and not match(spans[p].name):
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def _self_seconds(spans: list[Span], name: str) -> float:
    """Duration of the named spans minus the time covered by their direct children."""
    total = {i: s.seconds for i, s in enumerate(spans) if s.name == name}
    for s in spans:
        if s.parent in total:
            total[s.parent] -= s.seconds
    return sum(total.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Times and counts are per round (totals divided by ``rounds``); rates and
    ratios are taken over the totals.
    """

    def exact(name):
        return lambda n: n == name

    def secs(match) -> float:
        return sum(s.seconds for s in _outermost(spans, match))

    def total(match, key) -> float:
        return sum(s.counts.get(key, 0) for s in spans if match(s.name))

    def calls(match) -> int:
        return sum(1 for s in spans if match(s.name))

    def by_suffix(layer, suffix):
        return lambda n: n.startswith(layer + ".") and n.endswith(suffix)

    def is_mapper(n):
        return n.startswith("mappers.")

    def is_estimate(n):
        return n.startswith("estimators.") and ".estimate" in n

    hash_s = secs(exact("core.hash_keys"))
    hash_keys = total(exact("core.hash_keys"), "keys")
    point_s = secs(exact("mappers.point_outkeys_batch"))
    full_s = secs(exact("mappers.full_range_batch"))
    cells, outputs = total(is_mapper, "cells"), total(is_mapper, "outputs")
    point_cells = total(exact("mappers.point_outkeys_batch"), "cells")
    point_outputs = total(exact("mappers.point_outkeys_batch"), "outputs")
    dc = exact("sketches.DistinctCounter.update_batch")
    at = exact("sketches.AllThresholdSketch.update_batch")
    lines = sum(s.counts.get("elements", 0) for s in spans if s.name.startswith("cli.build."))
    build_self = sum(_self_seconds(spans, n) for n in {s.name for s in spans if s.name.startswith("cli.build.")})
    per_round = {
        "cli.parse.self_s": (build_self, "s"),
        "cli.lines": (lines, "count"),
        "core.hash_keys.s": (hash_s, "s"),
        "core.uniform_block.s": (secs(exact("core.uniform_block")), "s"),
        "mappers.point_outkeys_batch.s": (point_s, "s"),
        "mappers.full_range_batch.s": (full_s, "s"),
        "mappers.cells": (cells, "count"),
        "mappers.outputs": (outputs, "count"),
        "sketches.DistinctCounter.update_batch.s": (secs(dc), "s"),
        "sketches.DistinctCounter.outkeys_in": (total(dc, "in"), "count"),
        "sketches.AllThresholdSketch.update_batch.s": (secs(at), "s"),
        "sketches.MaxDistinctSketch.update_batch.s": (secs(exact("sketches.MaxDistinctSketch.update_batch")), "s"),
        "sketches.SumCounter.update_batch.s": (secs(exact("sketches.SumCounter.update_batch")), "s"),
        "estimators.CombinationPipeline.ingest_batch.self_s": (
            _self_seconds(spans, "estimators.CombinationPipeline.ingest_batch"),
            "s",
        ),
        "estimators.merge.s": (secs(by_suffix("estimators", ".merge")), "s"),
        "estimators.estimate.s": (secs(is_estimate), "s"),
        "transforms.tail.s": (secs(exact("transforms.tail")), "s"),
        "transforms.tail.calls": (calls(exact("transforms.tail")), "count"),
        "transforms.head.s": (secs(exact("transforms.head")), "s"),
        "cli.read_sketch_file.s": (secs(exact("cli.read_sketch_file")), "s"),
        "cli.write_sketch_file.s": (secs(exact("cli.write_sketch_file")), "s"),
        "sketches.from_bytes.s": (secs(by_suffix("sketches", ".from_bytes")), "s"),
        "sketches.merge.s": (secs(by_suffix("sketches", ".merge")), "s"),
        "sketches.to_bytes.s": (secs(by_suffix("sketches", ".to_bytes")), "s"),
        "sketches.entries": (total(by_suffix("sketches", ".from_bytes"), "entries"), "count"),
    }
    out = {name: (value / rounds, unit) for name, (value, unit) in per_round.items()}
    out["core.hash_keys.keys_per_s"] = (_ratio(hash_keys, hash_s), "keys/s")
    out["mappers.cells_per_s"] = (_ratio(cells, point_s + full_s), "cells/s")
    out["mappers.fire_ratio"] = (_ratio(point_outputs, point_cells), "ratio")
    out["sketches.DistinctCounter.entries"] = (_ratio(total(dc, "entries"), calls(dc)), "count")
    out["sketches.AllThresholdSketch.outkeys_per_s"] = (_ratio(total(at, "in"), secs(at)), "outkeys/s")
    out["sketches.AllThresholdSketch.keep_ratio"] = (_ratio(total(at, "entries"), total(at, "in")), "ratio")
    return out
