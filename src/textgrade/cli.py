"""Command-line front end: stats, matrix, and classify reports."""

from __future__ import annotations

import argparse
import os
import sys
from decimal import ROUND_HALF_UP, Decimal, localcontext
from pathlib import Path

from .classifier import ClassificationResult, classify
from .corpus import (
    GRADES,
    CorpusStats,
    GradedCorpus,
    build_corpus,
    corpus_stats,
    count_corpus,
    load_manifest,
    read_blocks,
)
from .errors import TextGradeError
from .record import Record, setfield
from .scoring import ClassSimilarityMatrix, class_similarity_matrix

FORMATS = ("table", "tsv", "json")

# The shortest repr of a double in [0, 1] has no digit past the 324th
# decimal place (5e-324 is the least positive double), so more places
# would only add zeros.
MAX_PRECISION = 324


class OutputSpec(Record):
    __slots__ = ("format", "precision")

    def __init__(self, format: str = "table", precision: int = 2) -> None:
        setfield(self, "format", format)
        setfield(self, "precision", precision)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        if not 1 <= self.precision <= MAX_PRECISION:
            raise ValueError(f"precision must be from 1 to {MAX_PRECISION}")


def format_score(value: float, precision: int) -> str:
    """Render a score in fixed point with half-away-from-zero rounding."""
    quantum = Decimal(1).scaleb(-precision)
    with localcontext() as ctx:
        ctx.prec = max(28, precision + 10)
        # format "f", not str: str writes a small or zero score as "0E-7"
        return format(Decimal(str(value)).quantize(quantum, rounding=ROUND_HALF_UP), "f")


def _json_score(value: float, precision: int) -> float:
    return float(format_score(value, precision))


def _json(payload: dict) -> str:
    import json  # imported on first use: a table or tsv report never needs it

    return json.dumps(payload, ensure_ascii=False, indent=2)


def _table(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)


def _tsv(rows: list[tuple[str, ...]]) -> str:
    return "\n".join("\t".join(row) for row in rows)


def _load(manifest_path: str | Path) -> GradedCorpus:
    return build_corpus(load_manifest(manifest_path))


# --- stats -----------------------------------------------------------------

def _stats_rows(stats: CorpusStats) -> list[tuple[str, ...]]:
    rows = [("grade", "total_tokens", "unique_tokens")]
    for g in GRADES:
        rows.append((str(g), str(stats.total_tokens[g]), str(stats.unique_tokens[g])))
    rows.append(("overall", "", str(stats.overall_unique)))
    return rows


def render_stats(stats: CorpusStats, output: OutputSpec) -> str:
    if output.format == "json":
        payload = {
            "grades": [
                {
                    "grade": g,
                    "total_tokens": stats.total_tokens[g],
                    "unique_tokens": stats.unique_tokens[g],
                }
                for g in GRADES
            ],
            "overall_unique": stats.overall_unique,
        }
        return _json(payload)
    rows = _stats_rows(stats)
    return _tsv(rows) if output.format == "tsv" else _table(rows)


def cmd_stats(manifest_path: str | Path, output: OutputSpec) -> str:
    # the statistics need the term counts only, not the scoring index
    stats, _ = corpus_stats(count_corpus(load_manifest(manifest_path)))
    return render_stats(stats, output)


# --- matrix ----------------------------------------------------------------

def render_matrix(matrix: ClassSimilarityMatrix, output: OutputSpec) -> str:
    if output.format == "json":
        payload = {
            "grades": list(GRADES),
            "cells": [
                [
                    {
                        "score": _json_score(cell.score, output.precision),
                        "shared_unique": cell.shared_unique,
                    }
                    for cell in row
                ]
                for row in matrix.cells
            ],
        }
        return _json(payload)
    if output.format == "tsv":
        rows = [("row_grade", "col_grade", "score", "shared_unique")]
        for i in GRADES:
            for j in GRADES:
                cell = matrix.cell(i, j)
                rows.append(
                    (str(i), str(j), format_score(cell.score, output.precision), str(cell.shared_unique))
                )
        return _tsv(rows)
    rows = [("grade",) + tuple(str(g) for g in GRADES)]
    for i in GRADES:
        cells = []
        for j in GRADES:
            cell = matrix.cell(i, j)
            score = "1" if i == j else format_score(cell.score, output.precision)
            cells.append(f"{score} {cell.shared_unique}")
        rows.append((str(i),) + tuple(cells))
    return _table(rows)


def cmd_matrix(manifest_path: str | Path, output: OutputSpec) -> str:
    return render_matrix(class_similarity_matrix(_load(manifest_path)), output)


# --- classify ---------------------------------------------------------------

def render_classification(result: ClassificationResult, output: OutputSpec) -> str:
    if output.format == "json":
        payload = {
            "grades": [
                {
                    "grade": g,
                    "score": _json_score(result.scores[g], output.precision),
                    "shared_unique": result.shared_unique[g],
                }
                for g in GRADES
            ],
            "chosen_grade": result.chosen_grade,
            "decision": result.decision,
        }
        return _json(payload)
    if output.format == "tsv":
        rows = [("grade", "score", "shared_unique", "chosen_grade", "decision")]
        for g in GRADES:
            rows.append(
                (
                    str(g),
                    format_score(result.scores[g], output.precision),
                    str(result.shared_unique[g]),
                    str(result.chosen_grade),
                    result.decision,
                )
            )
        return _tsv(rows)
    rows = [("grade", "score", "shared_unique")]
    for g in GRADES:
        rows.append(
            (str(g), format_score(result.scores[g], output.precision), str(result.shared_unique[g]))
        )
    return "\n".join(
        [
            _table(rows),
            "",
            f"decision: {result.decision}",
            f"chosen grade: {result.chosen_grade}",
            f"recommended for grade {result.chosen_grade}",
        ]
    )


def cmd_classify(manifest_path: str | Path, input_path: str | Path, output: OutputSpec) -> str:
    corpus = _load(manifest_path)
    return render_classification(classify(read_blocks(Path(input_path)), corpus), output)


# --- entry point --------------------------------------------------------------

def _positive_precision(value: str) -> int:
    try:
        precision = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"precision must be an integer, got {value!r}") from None
    if not 1 <= precision <= MAX_PRECISION:
        raise argparse.ArgumentTypeError(f"precision must be from 1 to {MAX_PRECISION}")
    return precision


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="table", help="output format")
    parser.add_argument(
        "--precision",
        type=_positive_precision,
        default=2,
        help=f"decimal places for scores, 1 to {MAX_PRECISION} (default 2)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textgrade",
        description="Match texts to school grades 1-4 by similarity to a reference corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="per-grade token and vocabulary counts")
    stats.add_argument("--manifest", required=True, help="corpus manifest file")
    _add_output_options(stats)

    matrix = sub.add_parser("matrix", help="pairwise class similarity matrix")
    matrix.add_argument("--manifest", required=True, help="corpus manifest file")
    _add_output_options(matrix)

    cls = sub.add_parser("classify", help="assign a grade to a text")
    cls.add_argument("--manifest", required=True, help="corpus manifest file")
    cls.add_argument("--input", required=True, help="UTF-8 text file to classify")
    _add_output_options(cls)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    output = OutputSpec(args.format, args.precision)
    try:
        if args.command == "stats":
            report = cmd_stats(args.manifest, output)
        elif args.command == "matrix":
            report = cmd_matrix(args.manifest, output)
        else:
            report = cmd_classify(args.manifest, args.input, output)
    except (TextGradeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
