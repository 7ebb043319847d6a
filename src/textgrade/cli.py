"""Command-line front end: stats, matrix, and classify reports."""

from __future__ import annotations

import argparse
import errno
import os
import sys
from decimal import ROUND_HALF_UP, Decimal, localcontext

from .classifier import ClassificationResult, classify
from .corpus import GRADES, CorpusStats, load_manifest, read_blocks
from .errors import EmptyClassError, TextGradeError
from .index import build_corpus
from .record import Record
from .scoring import ClassSimilarityMatrix, class_similarity_matrix

FORMATS = ("table", "tsv", "json")

# The shortest repr of a double in [0, 1] has no digit past the 324th
# decimal place (5e-324 is the least positive double), so more places
# would only add zeros.
MAX_PRECISION = 324


class OutputSpec(Record):
    """How a report prints: its format and the decimal places of its scores."""

    __slots__ = ("format", "precision")

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        if not 1 <= self.precision <= MAX_PRECISION:
            raise ValueError(f"precision must be from 1 to {MAX_PRECISION}")


def _digits(text: str) -> int:
    """Read an option value that is a nonempty run of ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def format_score(value: float, precision: int) -> str:
    """Render a score in fixed point with half-away-from-zero rounding."""
    with localcontext() as ctx:
        ctx.rounding = ROUND_HALF_UP
        return format(Decimal(repr(value)), f".{precision}f")


# Each renderer rounds each score once with `format_score`; the table and
# the TSV print those strings, and JSON prints the float they spell.

def _json(payload: dict) -> str:
    import json  # imported on first use: a table or tsv report never needs it

    return json.dumps(payload, ensure_ascii=False, indent=2)


def _table(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)


def _tsv(rows: list[tuple[str, ...]]) -> str:
    return "\n".join("\t".join(row) for row in rows)


def render_stats(stats: CorpusStats, output: OutputSpec) -> str:
    if output.format == "json":
        grades = [
            {
                "grade": g,
                "total_tokens": stats.total_tokens[g],
                "unique_tokens": stats.unique_tokens[g],
            }
            for g in GRADES
        ]
        return _json({"grades": grades, "overall_unique": stats.overall_unique})
    rows = [("grade", "total_tokens", "unique_tokens")]
    rows += [(str(g), str(stats.total_tokens[g]), str(stats.unique_tokens[g])) for g in GRADES]
    rows.append(("overall", "", str(stats.overall_unique)))
    return _tsv(rows) if output.format == "tsv" else _table(rows)


def render_matrix(matrix: ClassSimilarityMatrix, output: OutputSpec) -> str:
    pairs = [(i, j) for i in GRADES for j in GRADES]
    score = {(i, j): format_score(matrix.cell(i, j).score, output.precision) for i, j in pairs}
    shared = {(i, j): matrix.cell(i, j).shared_unique for i, j in pairs}
    if output.format == "json":
        cells = [
            [{"score": float(score[i, j]), "shared_unique": shared[i, j]} for j in GRADES]
            for i in GRADES
        ]
        return _json({"grades": list(GRADES), "cells": cells})
    if output.format == "tsv":
        rows = [("row_grade", "col_grade", "score", "shared_unique")]
        rows += [(str(i), str(j), score[i, j], str(shared[i, j])) for i, j in pairs]
        return _tsv(rows)
    rows = [("grade", *map(str, GRADES))]
    for i in GRADES:
        cells = (f"{'1' if i == j else score[i, j]} {shared[i, j]}" for j in GRADES)
        rows.append((str(i), *cells))
    return _table(rows)


def render_classification(result: ClassificationResult, output: OutputSpec) -> str:
    score = {g: format_score(result.scores[g], output.precision) for g in GRADES}
    if output.format == "json":
        grades = [
            {"grade": g, "score": float(score[g]), "shared_unique": result.shared_unique[g]}
            for g in GRADES
        ]
        return _json(
            {"grades": grades, "chosen_grade": result.chosen_grade, "decision": result.decision}
        )
    rows = [(str(g), score[g], str(result.shared_unique[g])) for g in GRADES]
    if output.format == "tsv":
        verdict = (str(result.chosen_grade), result.decision)
        head = ("grade", "score", "shared_unique", "chosen_grade", "decision")
        return _tsv([head] + [row + verdict for row in rows])
    return "\n".join(
        [
            _table([("grade", "score", "shared_unique"), *rows]),
            "",
            f"decision: {result.decision}",
            f"chosen grade: {result.chosen_grade}",
            f"recommended for grade {result.chosen_grade}",
        ]
    )


def _report(args: argparse.Namespace, output: OutputSpec) -> str:
    manifest = load_manifest(args.manifest)
    try:
        corpus = build_corpus(manifest)
    except EmptyClassError as exc:
        files = ", ".join(str(path) for g, path in manifest.entries if g == exc.args[0])
        raise TextGradeError(f"{exc} in {files}") from None
    if args.command == "stats":
        return render_stats(corpus.stats, output)
    if args.command == "matrix":
        return render_matrix(class_similarity_matrix(corpus), output)
    try:
        result = classify(read_blocks(args.input), corpus)
    except (OSError, UnicodeDecodeError) as exc:
        # the corpus is read by now, so the input is the file at fault
        raise TextGradeError(f"input: {exc}") from None
    return render_classification(result, output)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="textgrade",
        description="Match texts to school grades 1-4 by similarity to a reference corpus.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("stats", "per-grade token and vocabulary counts"),
        ("matrix", "pairwise class similarity matrix"),
        ("classify", "assign a grade to a text"),
    ):
        command = commands.add_parser(name, help=summary)
        command.add_argument("--manifest", required=True, help="corpus manifest file")
        if name == "classify":
            command.add_argument("--input", required=True, help="UTF-8 text file to classify")
        command.add_argument("--format", choices=FORMATS, default="table", help="output format")
        command.add_argument(
            "--precision",
            type=_digits,
            default=2,
            help=f"decimal places for scores, 1 to {MAX_PRECISION} (default 2)",
        )
    args = parser.parse_args(argv)
    try:
        output = OutputSpec(args.format, args.precision)
    except ValueError as exc:
        # `choices` has already checked the format, so the precision is out of range
        commands.choices[args.command].error(f"argument --precision: {exc}")
    try:
        report = _report(args, output)
    except (TextGradeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if sys.stdout is None:
        # fd 1 was closed at start, so Python set sys.stdout to None and
        # print would write nothing
        print(f"error: cannot write standard output: {os.strerror(errno.EBADF)}", file=sys.stderr)
        return 1
    try:
        print(report)
        sys.stdout.flush()
    except OSError as exc:
        # a closed pipe or a full device; the flush at exit would fail again
        # unless stdout points at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
