"""The process that holds the corpus: one fresh interpreter per job.

    python3 bench/worker.py setup --manifest M --out F [--trace]
    python3 bench/worker.py batch --manifest M --queries DIR --pool P
        --seconds S --min-ops K --out F [--trace]
    python3 bench/worker.py probe --manifest M --input Q --requests R --out F

`setup` times load_manifest plus build_corpus once. `batch` loads the
corpus, warms up on the queries w0.txt and w1.txt, then classifies
q0000.txt, q0001.txt, ... in a closed loop (starting over once the pool
is used up) until S seconds and K operations have passed, each started
on a quiet CPU (see quiet.py). `probe` times
what the traced run needs besides the loop: cli.main per command, the
class matrix, and R classify requests on one input. Results go to F as
JSON; the harness checks them.

With --trace, a call the benchmark cannot enter is accompanied by
replays of its parts on the same input (see spans.py). Only names the
library keeps public are called; a replayed part whose function is gone
is listed as absent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import textgrade  # noqa: E402
from textgrade import GRADES, build_corpus, classify, load_manifest  # noqa: E402

from quiet import QuietGate  # noqa: E402
from spans import CLI_COMMANDS, Tracer  # noqa: E402

WARMUP_QUERIES = ("w0.txt", "w1.txt")
CLI_REPEATS = 2
# What a replay may hit when a public name it calls was removed or changed.
GONE = (AttributeError, TypeError, ImportError)


class Job:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.tracer = Tracer(f"{args.mode}-{os.getpid()}")
        self.absent: dict[str, str] = {}
        self.out: dict = {}

    def replay(self, name: str, fn) -> None:
        """Run replayed parts; note them as absent if a function is gone."""
        try:
            fn()
        except GONE as exc:
            self.absent.setdefault(name, f"{type(exc).__name__}: {exc}")

    def load(self):
        t = self.tracer
        with t.span("corpus.load_manifest", "load"):
            manifest = load_manifest(self.args.manifest)
        with t.span("corpus.build_corpus", "load") as build:
            corpus = build_corpus(manifest)
        return manifest, corpus, build

    # --- set-up -------------------------------------------------------------

    def setup(self) -> None:
        start = time.perf_counter()
        manifest, corpus, build = self.load()
        self.out["load_s"] = time.perf_counter() - start
        stats = corpus.stats
        self.out["stats"] = {
            "total_tokens": stats.total_tokens,
            "unique_tokens": stats.unique_tokens,
            "overall_unique": stats.overall_unique,
        }
        if self.args.trace:
            # dropped first, so that the replay builds on the same heap
            del corpus, stats
            self.replay("corpus", lambda: self._replay_build(manifest, build))

    def _replay_build(self, manifest, parent: dict) -> None:
        t, rid = self.tracer, parent["rid"]
        texts = {g: [] for g in GRADES}
        for grade, path in manifest.entries:
            with t.span("corpus.read", rid, parent) as s:
                text = path.read_text(encoding="utf-8")
            s["bytes"] = path.stat().st_size
            texts[grade].append(text)
        sequences = {}
        for g in GRADES:
            joined = "\n".join(texts[g])
            with t.span("tokenizer.tokenize", rid, parent) as s:
                sequences[g] = textgrade.tokenize(joined)
            s["tokens"] = len(sequences[g])
        with t.span("corpus.index", rid, parent):
            textgrade.GradedCorpus.from_token_sequences(sequences)

    # --- classification -------------------------------------------------------

    def decomposed(self, call, parts, parts_first: bool):
        """Run `call`, which records one span and returns (result, span),
        and `parts`, which replays its parts on the same input, in the
        given order; the replayed spans become children of the call's.
        Alternating the order keeps warm-up effects out of self times."""
        spans = self.tracer.spans
        first = len(spans)
        if parts_first:
            parts()
        result, root = call()
        if not parts_first:
            parts()
        for span in spans[first:]:
            if span is not root:
                span["parent"] = root["id"]
        return result, root

    def classify_traced(self, i: int, text: str, corpus) -> tuple[float, object]:
        """One classify call as a root span plus its parts replayed."""
        rid = f"q{i}"

        def call():
            with self.tracer.span("classifier.classify", rid) as root:
                result = classify(text, corpus)
            root["decision"] = result.decision
            return result, root

        result, root = self.decomposed(
            call,
            lambda: self.replay("classify parts", lambda: self._replay_classify(text, corpus, rid)),
            parts_first=i % 2 == 1,
        )
        return root["end"] - root["start"], result

    def _replay_classify(self, text: str, corpus, rid: str) -> None:
        t = self.tracer
        with t.span("tokenizer.tokenize", rid) as s:
            query = textgrade.tokenize(text)
        s["tokens"] = len(query)
        vocab = textgrade.Vocabulary.from_tokens(query)
        with t.span("classifier.containment_class", rid):
            textgrade.containment_class(vocab, corpus)
        classes = [corpus.classes[g] for g in GRADES]
        coll = textgrade.DocumentCollection(tuple(c.tokens for c in classes) + (query,))
        for class_doc in classes:
            with t.span("similarity.pair_similarity", rid) as s:
                pair = textgrade.pair_similarity(query, class_doc, coll)
            s["pair_vocab_size"] = getattr(pair, "pair_vocab_size", None)

    @staticmethod
    def timed_classify(text: str, corpus) -> tuple[float, object]:
        start = time.perf_counter()
        result = classify(text, corpus)
        return time.perf_counter() - start, result

    def request(self, i: int, text: str, corpus) -> dict:
        """One closed-loop operation; a failure is recorded, not raised."""
        op: dict = {"i": i}
        try:
            if not self.args.trace:
                op["s"], result = self.timed_classify(text, corpus)
            else:
                # the untraced call goes first for every other pair of requests
                untraced_first = i % 4 < 2
                if untraced_first:
                    op["untraced_s"], _ = self.timed_classify(text, corpus)
                op["s"], result = self.classify_traced(i, text, corpus)
                if not untraced_first:
                    op["untraced_s"], _ = self.timed_classify(text, corpus)
        except Exception:  # the loop must go on; the failure is reported
            op["error"] = traceback.format_exc(limit=3)
            return op
        op.update(
            chosen=result.chosen_grade,
            decision=result.decision,
            scores=[result.scores[g] for g in GRADES],
            shared=[result.shared_unique[g] for g in GRADES],
        )
        return op

    def batch(self) -> None:
        args = self.args
        _, corpus, _ = self.load()
        queries = Path(args.queries)
        gate = QuietGate()
        for name in WARMUP_QUERIES:
            gate.wait()
            classify((queries / name).read_text(encoding="utf-8"), corpus)
        ops = []
        start = time.perf_counter()
        while True:
            i = len(ops)
            text = (queries / f"q{i % args.pool:04d}.txt").read_text(encoding="utf-8")
            gate.wait()
            ops.append(self.request(i, text, corpus))
            if time.perf_counter() - start >= args.seconds and len(ops) >= args.min_ops:
                break
        self.out["wall_s"] = time.perf_counter() - start
        self.out["gate_wait_s"] = gate.waited_s
        self.out["ops"] = ops

    # --- probes for the traced run ------------------------------------------------

    def probe(self) -> None:
        args = self.args
        outputs = {}
        for rep in range(CLI_REPEATS):
            for cmd in CLI_COMMANDS:
                outputs[cmd] = self.cli_main_decomposed(cmd, parts_first=rep % 2 == 1)
        self.out["cli_outputs"] = outputs
        _, corpus, _ = self.load()
        text = Path(args.input).read_text(encoding="utf-8")
        gate = QuietGate()
        self.out["ops"] = []
        for i in range(args.requests):
            gate.wait()
            self.out["ops"].append(self.request(i, text, corpus))

    def cli_main_decomposed(self, cmd: str, parts_first: bool) -> str:
        """In-process cli.main plus its corpus load and compute replayed;
        returns what cli.main printed."""
        from textgrade import cli

        args, t = self.args, self.tracer
        argv = [cmd, "--manifest", args.manifest, "--format", "table"]
        if cmd == "classify":
            argv += ["--input", args.input]
        rid = f"cli-{cmd}"

        def call():
            buffer = io.StringIO()
            with t.span("cli.main", rid, cmd=cmd) as main:
                with contextlib.redirect_stdout(buffer):
                    cli.main(argv)
            return buffer.getvalue(), main

        def parts() -> None:
            with t.span("corpus.load", rid):
                loaded = build_corpus(load_manifest(args.manifest))
            if cmd == "classify":
                with t.span("classifier.classify", rid):
                    classify(Path(args.input).read_text(encoding="utf-8"), loaded)
            elif cmd == "matrix":
                with t.span("similarity.class_similarity_matrix", rid):
                    textgrade.class_similarity_matrix(loaded)

        return self.decomposed(call, parts, parts_first)[0]


def peak_rss_kb() -> int:
    """This process's peak resident memory (VmHWM); unlike ru_maxrss it
    does not carry over the parent's high-water mark across exec."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("VmHWM missing from /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "batch", "probe"))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--queries")
    parser.add_argument("--pool", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--min-ops", type=int)
    parser.add_argument("--input")
    parser.add_argument("--requests", type=int, default=0)
    args = parser.parse_args()
    if args.mode == "probe":
        args.trace = True
    job = Job(args)
    getattr(job, args.mode)()
    job.out["spans"] = job.tracer.spans if args.trace else []
    job.out["absent"] = job.absent
    job.out["peak_rss_kb"] = peak_rss_kb()
    Path(args.out).write_text(json.dumps(job.out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
