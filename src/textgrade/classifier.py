"""End-to-end grade assignment.

A query is tokenized and first checked for vocabulary containment: the
lowest grade whose vocabulary includes every query term wins outright
with score 1. Otherwise all four grades are scored by TF-IDF cosine
over the collection of the four class documents plus the query (N = 5)
and the best-scoring grade is chosen, lowest grade winning ties. Cosine
scores for the remaining grades are computed on both paths so reports
always carry all four.

Scoring reads the corpus index (`GradedCorpus.df4`, `.norms5`) and makes
one pass over the query's distinct terms per grade. Only shared terms
add to the dot product. A grade term the query lacks keeps the weight it
has in the stored norm; for a shared term df rises by one, so the stored
norm is corrected by the difference of its squared weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import GRADES, IDF5, GradedCorpus, Vocabulary
from .errors import EmptyQueryError
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


def _lowest_containing(terms: frozenset[str], corpus: GradedCorpus) -> int | None:
    for grade in GRADES:
        if terms <= corpus.classes[grade].tokens.types:
            return grade
    return None


def containment_class(query_vocab: Vocabulary, corpus: GradedCorpus) -> int | None:
    """Smallest grade whose vocabulary contains every query term, if any."""
    return _lowest_containing(query_vocab.term_set, corpus)


def classify(raw_text: str, corpus: GradedCorpus) -> ClassificationResult:
    """Assign the query text to the most similar grade."""
    query = tokenize(raw_text)
    if not query:
        raise EmptyQueryError("input text contains no tokens")

    contained = _lowest_containing(query.types, corpus)
    df4 = corpus.df4
    length = len(query)
    # every query term is in the query, so its df is its grade count plus one
    weights = [(term, (count / length) * IDF5[df4[term] + 1]) for term, count in query.counts.items()]
    query_norm = math.sqrt(math.fsum(w * w for _, w in weights))
    scores: dict[int, float] = {}
    shared: dict[int, int] = {}
    for grade in GRADES:
        if grade == contained:
            scores[grade], shared[grade] = 1.0, len(weights)
            continue
        doc = corpus.classes[grade].tokens
        counts, total = doc.counts, len(doc)
        dot = correction = 0.0
        n_shared = 0
        for term, w in weights:
            count = counts.get(term)
            if count is not None:
                n_shared += 1
                tf = count / total
                df = df4[term]
                alone, with_query = tf * IDF5[df], tf * IDF5[df + 1]
                dot += w * with_query
                correction += with_query * with_query - alone * alone
        norm = math.sqrt(corpus.norms5[grade] + correction)
        scores[grade] = min(1.0, dot / (query_norm * norm))
        shared[grade] = n_shared

    if contained is not None:
        return ClassificationResult(contained, scores, CONTAINMENT, shared)

    chosen = GRADES[0]
    for grade in GRADES[1:]:
        if scores[grade] > scores[chosen]:
            chosen = grade
    return ClassificationResult(chosen, scores, COSINE_ARGMAX, shared)
