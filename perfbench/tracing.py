"""Traced in-process CLI run: spans around each layer's public functions.

The wrappers are installed by patching module attributes of the imported
`shortint` package for the length of one run and removed afterwards; the
package source is not edited.  Spans (name, start, end, parent, counts) are
kept in memory and written out once the run ends.  Layer metrics, including
self time per layer, are derived from them.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np

NAME, START, END, PARENT, COUNTS = range(5)


class Tracer:
    """Records nested spans; `wrap` and `wrap_generator` time a callable."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, counts: dict | None = None) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][COUNTS] = counts
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        """Time every call of fn; count(args, result) gives the span's counts."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                raise
            self._close(idx, count(args, result) if count else None)
            return result

        return traced

    def wrap_generator(self, name, fn, count):
        """Time each resumption of the generator fn returns, one span per item;
        count(args, item) gives the span's counts."""

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(idx)
                    return
                except BaseException:
                    self._close(idx)
                    raise
                self._close(idx, count(args, item))
                yield item

        return traced

    def run_cli(self, main, argv: list[str]) -> tuple[int, bytes, bytes, float]:
        """Run main(argv) under a root span with stdout and stderr captured."""
        out, err = io.StringIO(), io.StringIO()
        idx = self._open("cli.main")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            self._close(idx)
        span = self.spans[idx]
        return code, out.getvalue().encode(), err.getvalue().encode(), span[END] - span[START]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "counts"],
                                    "spans": self.spans}))


@contextlib.contextmanager
def installed(tracer: Tracer, shortint):
    """Patch the layer functions of the imported package for one traced run.

    Every module that imported a name by `from .x import name` holds its own
    binding, so the wrapper is set on each of them.
    """
    primes, density, clusters, tuples, cli = (
        shortint.primes, shortint.density, shortint.clusters, shortint.tuples, shortint.cli)
    table_cls = primes.PrimeTable
    original_primes = table_cls.primes
    build = tracer.wrap("primes.build_table", primes.build_table,
                        lambda a, t: {"n": t.limit, "primes": t.count,
                                      "bitmap_bytes": (t.limit - 1) // 2})
    index = tracer.wrap("primes.index", original_primes,
                        lambda a, arr: {"index_bytes": arr.nbytes})

    def first_primes(table):
        if table._prime_cache is None:
            return index(table)
        return original_primes(table)

    def fmt(layer, fn):
        return tracer.wrap(f"{layer}.format", fn)

    patches = [
        (primes, "build_table", build),
        (cli, "build_table", build),
        (tuples, "build_table", build),
        (table_cls, "primes", first_primes),
        (density, "measure_density", tracer.wrap(
            "density.measure_density", density.measure_density,
            lambda a, r: {"n": r.x})),
        (density, "density_csv", fmt("density", density.density_csv)),
        (density, "density_json", fmt("density", density.density_json)),
        (clusters, "find_clusters", tracer.wrap_generator(
            "clusters.find_clusters", clusters.find_clusters,
            lambda a, c: {"base": c.base, "x_lo": a[2]})),
        (clusters, "slide", tracer.wrap(
            "clusters.slide", clusters.slide,
            lambda a, t: {"windows": len(t.counts), "falsifications": len(t.falsifications)})),
        (clusters, "trace_csv", fmt("clusters", clusters.trace_csv)),
        (clusters, "falsifications_jsonl", fmt("clusters", clusters.falsifications_jsonl)),
        (clusters, "extract_m_runs", fmt("clusters", clusters.extract_m_runs)),
        (tuples, "greedy_sieve", tracer.wrap(
            "tuples.greedy_sieve", tuples.greedy_sieve,
            lambda a, s: {"survivors": len(s)})),
        (tuples, "count_spaced_selections", tracer.wrap(
            "tuples.count_spaced_selections", tuples.count_spaced_selections,
            lambda a, r: {"dp_cells": len(a[0]) * a[1]})),
        (tuples, "singular_series", tracer.wrap(
            "tuples.singular_series", tuples.singular_series)),
    ]
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)


def _sum(spans, name, key=None) -> float:
    return float(sum((s[END] - s[START]) if key is None else (s[COUNTS] or {}).get(key, 0)
                     for s in spans if s[NAME] == name))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans of one traced run."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_time = {layer: 0.0 for layer in ("primes", "density", "clusters", "tuples", "cli")}
    for i, s in enumerate(spans):
        self_time[s[NAME].split(".")[0]] += s[END] - s[START] - child_time[i]

    m = {}
    build_s = _sum(spans, "primes.build_table")
    m["primes.build_table.s"] = build_s
    m["primes.build_table.n_per_s"] = _sum(spans, "primes.build_table", "n") / build_s if build_s else 0.0
    m["primes.bitmap_bytes"] = _sum(spans, "primes.build_table", "bitmap_bytes")
    m["primes.count"] = _sum(spans, "primes.build_table", "primes")
    m["primes.index.s"] = _sum(spans, "primes.index")
    m["primes.index_bytes"] = _sum(spans, "primes.index", "index_bytes")

    scan_s = _sum(spans, "density.measure_density")
    m["density.measure_density.s"] = scan_s
    m["density.n_scanned"] = _sum(spans, "density.measure_density", "n")
    m["density.n_per_s"] = m["density.n_scanned"] / scan_s if scan_s else 0.0
    m["density.format.s"] = _sum(spans, "density.format")

    # find_clusters runs as one span per yielded cluster; the bases it scanned
    # to yield them run from x_lo to the last yielded base of each scan
    last_base: dict[int, int] = {}
    for s in spans:
        if s[NAME] == "clusters.find_clusters" and s[COUNTS]:
            last_base[s[COUNTS]["x_lo"]] = s[COUNTS]["base"]
    m["clusters.find_clusters.s"] = _sum(spans, "clusters.find_clusters")
    m["clusters.yielded"] = float(
        sum(1 for s in spans if s[NAME] == "clusters.find_clusters" and s[COUNTS]))
    m["clusters.bases_scanned"] = float(sum(b - lo + 1 for lo, b in last_base.items()))
    m["clusters.yield_ratio"] = (
        m["clusters.yielded"] / m["clusters.bases_scanned"] if m["clusters.bases_scanned"] else 0.0)
    slide_us = np.array([(s[END] - s[START]) * 1e6 for s in spans if s[NAME] == "clusters.slide"])
    m["clusters.slide.s"] = float(slide_us.sum() / 1e6)
    m["clusters.slide.p50_us"] = float(np.percentile(slide_us, 50)) if len(slide_us) else 0.0
    m["clusters.slide.p99_us"] = float(np.percentile(slide_us, 99)) if len(slide_us) else 0.0
    m["clusters.windows"] = _sum(spans, "clusters.slide", "windows")
    m["clusters.falsifications"] = _sum(spans, "clusters.slide", "falsifications")
    m["clusters.format.s"] = _sum(spans, "clusters.format")

    m["tuples.greedy_sieve.s"] = _sum(spans, "tuples.greedy_sieve")
    m["tuples.survivors"] = _sum(spans, "tuples.greedy_sieve", "survivors")
    m["tuples.count_spaced_selections.s"] = _sum(spans, "tuples.count_spaced_selections")
    m["tuples.dp_cells"] = _sum(spans, "tuples.count_spaced_selections", "dp_cells")
    m["tuples.singular_series.s"] = _sum(spans, "tuples.singular_series")
    series = {i for i, s in enumerate(spans) if s[NAME] == "tuples.singular_series"}
    m["tuples.series_primes"] = float(sum(
        s[COUNTS]["primes"] for s in spans
        if s[NAME] == "primes.build_table" and s[PARENT] in series))

    for layer, seconds in self_time.items():
        m[f"{layer}.self.s"] = seconds
    return m
