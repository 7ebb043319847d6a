"""End-to-end grade assignment.

A query's terms are counted and first checked for vocabulary
containment: the lowest grade whose vocabulary includes every query term
wins outright with score 1 and is not scored. The other grades are scored by TF-IDF
cosine over the collection of the four class documents plus the query
(N = 5, see `scoring.query_similarities`), so reports always carry all
four scores. Without containment the best-scoring grade is chosen,
lowest grade winning ties.
"""

from __future__ import annotations

from collections.abc import Iterable, Set

from .corpus import GRADES, GradedCorpus
from .errors import EmptyQueryError
from .record import Record, setfield
from .scoring import query_similarities
from .tokenizer import count_terms

CONTAINMENT = "containment"
COSINE_ARGMAX = "cosine-argmax"


class ClassificationResult(Record):
    """Per-grade scores and the chosen grade with its decision path."""

    __slots__ = ("chosen_grade", "scores", "decision", "shared_unique")

    def __init__(
        self,
        chosen_grade: int,
        scores: dict[int, float],
        decision: str,
        shared_unique: dict[int, int],
    ) -> None:
        setfield(self, "chosen_grade", chosen_grade)
        setfield(self, "scores", scores)
        setfield(self, "decision", decision)
        setfield(self, "shared_unique", shared_unique)


def containment_class(terms: Iterable[str], corpus: GradedCorpus) -> int | None:
    """Smallest grade whose vocabulary contains every one of `terms`, if any.

    A set or a dict's keys are tested as they are; other iterables are
    collected into a frozenset first.
    """
    if not isinstance(terms, Set):
        terms = frozenset(terms)
    for grade in GRADES:
        if corpus.counts[grade].keys() >= terms:
            return grade
    return None


def classify(raw_text: str, corpus: GradedCorpus) -> ClassificationResult:
    """Assign the query text to the most similar grade."""
    counts = count_terms((raw_text,))
    if not counts:
        raise EmptyQueryError("input text contains no tokens")

    contained = containment_class(counts.keys(), corpus)
    grades = [g for g in GRADES if g != contained]
    pairs = query_similarities(counts, sum(counts.values()), corpus, grades)
    scores = {g: pairs[g].score if g in pairs else 1.0 for g in GRADES}
    shared = {g: pairs[g].shared_unique if g in pairs else len(counts) for g in GRADES}
    if contained is not None:
        return ClassificationResult(contained, scores, CONTAINMENT, shared)
    # max keeps the first of equal scores, so ties go to the lowest grade
    chosen = max(GRADES, key=scores.__getitem__)
    return ClassificationResult(chosen, scores, COSINE_ARGMAX, shared)
