"""Spans, the order statistics the benchmark reports, and per-layer metrics.

A span is a dict with `id`, `name`, `rid` (the request it serves),
`parent` (a span id or None), `start` and `end` in seconds of
`time.perf_counter`, which is the system-wide monotonic clock on Linux,
so spans from different processes share one time base. Extra keys carry
counts measured at the same boundary.

A layer the benchmark cannot enter from outside (build_corpus, classify,
cli.main) is decomposed by replaying its parts on the same input right
after it; the replayed spans name the call they decompose as parent.
A span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, rid: str, parent: dict | None = None, **attrs) -> Iterator[dict]:
        """Time the body; the span is kept only if the body returns."""
        record = {
            "id": f"{self.tag}:{len(self.spans)}",
            "name": name,
            "rid": rid,
            "parent": parent["id"] if parent else None,
            **attrs,
        }
        record["start"] = time.perf_counter()
        yield record
        record["end"] = time.perf_counter()
        self.spans.append(record)

    def record(self, name: str, rid: str, start: float, end: float, **attrs) -> None:
        """Add a root span timed elsewhere, such as a child process."""
        self.spans.append(
            {"id": f"{self.tag}:{len(self.spans)}", "name": name, "rid": rid, "parent": None,
             "start": start, "end": end, **attrs}
        )


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); the maximum when there are fewer than 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


class SpanIndex:
    """Spans grouped by name and by parent."""

    def __init__(self, spans: list[dict]) -> None:
        self.by_name: dict[str, list[dict]] = {}
        self.children: dict[str, list[dict]] = {}
        for span in spans:
            self.by_name.setdefault(span["name"], []).append(span)
            if span["parent"] is not None:
                self.children.setdefault(span["parent"], []).append(span)

    def named(self, name: str, **match) -> list[dict]:
        return [s for s in self.by_name.get(name, []) if all(s.get(k) == v for k, v in match.items())]

    def roots(self, name: str) -> list[dict]:
        return [s for s in self.by_name.get(name, []) if s["parent"] is None]

    def child_sum(self, parent: dict, name: str, key: str | None = None) -> float | None:
        """Total duration (or total of `key`) of the parent's children
        called `name`; None when there are none."""
        kids = [s for s in self.children.get(parent["id"], []) if s["name"] == name]
        if not kids or (key and any(s.get(key) is None for s in kids)):
            return None
        return sum(s[key] if key else duration(s) for s in kids)

    def self_time(self, parent: dict, parts: tuple[str, ...]) -> float | None:
        """Duration minus the children's, once every named part was replayed."""
        sums = [self.child_sum(parent, part) for part in parts]
        if any(s is None for s in sums):
            return None
        return duration(parent) - sum(sums)


# A build_corpus call is replayed as file reads, tokenization and the
# index build; a classify call as tokenize, the containment check and
# four pair similarities; a cli.main call as the corpus load and the
# command's compute.
BUILD_PARTS = ("corpus.read", "tokenizer.tokenize", "corpus.index")
CLASSIFY_PARTS = ("tokenizer.tokenize", "classifier.containment_class", "similarity.pair_similarity")
CLI_COMMANDS = ("stats", "classify", "matrix")
CLI_PARTS = {
    "stats": ("corpus.load",),
    "classify": ("corpus.load", "classifier.classify"),
    "matrix": ("corpus.load", "similarity.class_similarity_matrix"),
}

MS = 1000.0


def layer_metrics(spans: list[dict], untraced_s: list[float]) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as name -> (value, unit, sample count).

    A metric whose spans are missing, because the function it times is
    gone or failed, is left out rather than reported as zero.
    """
    index = SpanIndex(spans)
    builds = index.roots("corpus.build_corpus")
    requests = index.roots("classifier.classify")
    out: dict[str, tuple[float, str, int]] = {}

    def put(name: str, values, unit: str, scale: float = 1.0, how=statistics.median) -> None:
        values = [v for v in values if v is not None]
        if values:
            out[name] = (how(values) * scale, unit, len(values))

    put("tokenizer.corpus_ms", [index.child_sum(b, "tokenizer.tokenize") for b in builds], "ms", MS)
    put("tokenizer.corpus_tokens", [index.child_sum(b, "tokenizer.tokenize", "tokens") for b in builds], "count")
    put("tokenizer.query_ms", [index.child_sum(r, "tokenizer.tokenize") for r in requests], "ms", MS)
    put(
        "tokenizer.query_tokens",
        [index.child_sum(r, "tokenizer.tokenize", "tokens") for r in requests],
        "count",
        how=statistics.fmean,
    )
    put("corpus.manifest_ms", [duration(s) for s in index.named("corpus.load_manifest")], "ms", MS)
    put("corpus.read_ms", [index.child_sum(b, "corpus.read") for b in builds], "ms", MS)
    put("corpus.read_bytes", [index.child_sum(b, "corpus.read", "bytes") for b in builds], "bytes")
    put("corpus.index_ms", [index.child_sum(b, "corpus.index") for b in builds], "ms", MS)
    put("corpus.build_self_ms", [index.self_time(b, BUILD_PARTS) for b in builds], "ms", MS)
    put("similarity.pair_ms", [index.child_sum(r, "similarity.pair_similarity") for r in requests], "ms", MS)
    put(
        "similarity.pair_terms",
        [index.child_sum(r, "similarity.pair_similarity", "pair_vocab_size") for r in requests],
        "count",
    )
    put("similarity.matrix_ms", [duration(s) for s in index.named("similarity.class_similarity_matrix")], "ms", MS)
    put(
        "classifier.containment_ms",
        [index.child_sum(r, "classifier.containment_class") for r in requests],
        "ms",
        MS,
    )
    put("classifier.classify_ms", [duration(r) for r in requests], "ms", MS)
    put("classifier.self_ms", [index.self_time(r, CLASSIFY_PARTS) for r in requests], "ms", MS)
    put(
        "classifier.containment_share",
        [r.get("decision") == "containment" for r in requests if "decision" in r],
        "ratio",
        how=statistics.fmean,
    )
    put("cli.interpreter_ms", [duration(s) for s in index.named("cli.interpreter")], "ms", MS)
    put("cli.import_ms", [duration(s) for s in index.named("cli.import")], "ms", MS)
    for cmd in CLI_COMMANDS:
        put(f"cli.process_ms.{cmd}", [duration(s) for s in index.named("cli.process", cmd=cmd)], "ms", MS)
        put(
            f"cli.self_ms.{cmd}",
            [index.self_time(s, CLI_PARTS[cmd]) for s in index.named("cli.main", cmd=cmd)],
            "ms",
            MS,
        )
    if requests and untraced_s:
        traced = statistics.median(duration(r) for r in requests)
        untraced = statistics.median(untraced_s)
        out["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%", len(requests))
    return out
