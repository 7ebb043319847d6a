"""End-to-end grade assignment.

A query's terms are counted, then one pass scores every grade by TF-IDF
cosine over the collection of the four class documents plus the query
(N = 5, see `scoring.query_similarities`) and counts the query terms
each grade shares. The lowest grade sharing every query term contains
the query: it wins outright, and its score is reported as 1. Without
containment the best-scoring grade is chosen, lowest grade winning ties.
"""

from __future__ import annotations

from collections.abc import Iterable

from .corpus import GRADES, GradedCorpus
from .errors import EmptyQueryError
from .record import Record
from .scoring import query_similarities
from .tokenizer import count_terms

CONTAINMENT = "containment"
COSINE_ARGMAX = "cosine-argmax"


class ClassificationResult(Record):
    """Per-grade scores and the chosen grade with its decision path."""

    __slots__ = ("chosen_grade", "scores", "decision", "shared_unique")


def containment_class(terms: Iterable[str], corpus: GradedCorpus) -> int | None:
    """Smallest grade whose vocabulary contains every one of `terms`, if any.

    A term outside `corpus.terms` means no grade; otherwise the lowest
    grade whose count is nonzero in all their rows wins, grade 1 for no
    terms. `classify` reads the same grade off its scoring pass's
    shared-term counts.
    """
    found = set(map(corpus.terms.get, terms))
    if None in found:
        return None
    for grade in GRADES:
        if all(row[grade] for row in found):
            return grade
    return None


def classify(raw_text: str | Iterable[str], corpus: GradedCorpus) -> ClassificationResult:
    """Assign the query text, a `str` or an iterable of `str` blocks that
    concatenate to it (such as `corpus.read_blocks` of a file), to the
    most similar grade; blocks are counted as they arrive."""
    counts = count_terms(raw_text)
    if not counts:
        raise EmptyQueryError("input text contains no tokens")

    scores, shared = query_similarities(counts, corpus)
    for grade in GRADES:
        if shared[grade] == len(counts):
            scores[grade] = 1.0
            return ClassificationResult(grade, scores, CONTAINMENT, shared)
    # max keeps the first of equal scores, so ties go to the lowest grade
    chosen = max(GRADES, key=scores.__getitem__)
    return ClassificationResult(chosen, scores, COSINE_ARGMAX, shared)
