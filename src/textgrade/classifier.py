"""End-to-end grade assignment.

A query is tokenized and first checked for vocabulary containment: the
lowest grade whose vocabulary includes every query term wins outright
with score 1 and is not scored. The other grades are scored by TF-IDF
cosine over the collection of the four class documents plus the query
(N = 5, see `scoring.query_similarities`), so reports always carry all
four scores. Without containment the best-scoring grade is chosen,
lowest grade winning ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .corpus import GRADES, GradedCorpus
from .errors import EmptyQueryError
from .scoring import query_similarities
from .tokenizer import tokenize

CONTAINMENT = "containment"
COSINE_ARGMAX = "cosine-argmax"


@dataclass(frozen=True)
class ClassificationResult:
    """Per-grade scores and the chosen grade with its decision path."""

    chosen_grade: int
    scores: dict[int, float]
    decision: str
    shared_unique: dict[int, int]


def containment_class(terms: Iterable[str], corpus: GradedCorpus) -> int | None:
    """Smallest grade whose vocabulary contains every one of `terms`, if any."""
    terms = frozenset(terms)
    for grade in GRADES:
        if corpus.classes[grade].tokens.types.issuperset(terms):
            return grade
    return None


def classify(raw_text: str, corpus: GradedCorpus) -> ClassificationResult:
    """Assign the query text to the most similar grade."""
    query = tokenize(raw_text)
    if not query:
        raise EmptyQueryError("input text contains no tokens")

    contained = containment_class(query.types, corpus)
    pairs = query_similarities(query, corpus, [g for g in GRADES if g != contained])
    scores = {g: pairs[g].score if g in pairs else 1.0 for g in GRADES}
    shared = {g: pairs[g].shared_unique if g in pairs else len(query.types) for g in GRADES}
    if contained is not None:
        return ClassificationResult(contained, scores, CONTAINMENT, shared)
    # max keeps the first of equal scores, so ties go to the lowest grade
    chosen = max(GRADES, key=scores.__getitem__)
    return ClassificationResult(chosen, scores, COSINE_ARGMAX, shared)
