"""Cosine similarity between weighted vectors and the 4x4 class matrix.

Pairs are scored sparsely: the dot product runs over the terms both
documents hold, and each norm over the document's own terms. The zero
coordinates of the pair-union vocabulary add nothing to a dot product or
a norm, so the cosine equals the dense one of `cosine`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import GRADES, ClassDocument, GradedCorpus, smoothed_idf, squared_norm
from .errors import VocabularyMismatchError, ZeroVectorError
from .tokenizer import TokenSequence
from .weighting import DocumentCollection, WeightedVector


@dataclass(frozen=True)
class PairSimilarity:
    """Similarity of one (query, class) pair."""

    score: float
    shared_unique: int
    pair_vocab_size: int


@dataclass(frozen=True)
class ClassSimilarityMatrix:
    """4x4 grid of pairwise class similarities, indexed by grade."""

    cells: tuple[tuple[PairSimilarity, ...], ...]

    def cell(self, row_grade: int, col_grade: int) -> PairSimilarity:
        return self.cells[row_grade - 1][col_grade - 1]


def cosine(v: WeightedVector, w: WeightedVector) -> float:
    """Normalized dot product of two vectors over the same vocabulary.

    Nonnegative coordinates keep the result in [0, 1]; it is clamped at
    1.0 against float rounding on identical vectors.
    """
    if v.vocab is not w.vocab and v.vocab.terms != w.vocab.terms:
        raise VocabularyMismatchError("vectors are aligned to different vocabularies")
    dot = norm_v = norm_w = 0.0
    for a, b in zip(v.coords, w.coords):
        dot += a * b
        norm_v += a * a
        norm_w += b * b
    if norm_v == 0.0 or norm_w == 0.0:
        raise ZeroVectorError("cosine is undefined for an all-zero vector")
    return min(1.0, dot / (math.sqrt(norm_v) * math.sqrt(norm_w)))


def _cosine(
    a: TokenSequence,
    a_norm: float,
    b: TokenSequence,
    b_norm: float,
    df: Mapping[str, int],
    idf: Sequence[float],
) -> PairSimilarity:
    """Cosine of the TF-IDF vectors of `a` and `b` given their norms, over
    the terms both hold, with the shared and union term counts."""
    small, large = (a, b) if len(a.counts) <= len(b.counts) else (b, a)
    small_total, large_total, large_counts = len(small), len(large), large.counts
    products = [
        (count / small_total) * idf[df[term]] * ((large_counts[term] / large_total) * idf[df[term]])
        for term, count in small.counts.items()
        if term in large_counts
    ]
    # fsum rounds the exact sum once, so no term order can change the score
    score = min(1.0, math.fsum(products) / (a_norm * b_norm))
    return PairSimilarity(score, len(products), len(a.counts) + len(b.counts) - len(products))


def pair_similarity(
    query: TokenSequence, class_doc: ClassDocument, coll: DocumentCollection
) -> PairSimilarity:
    """Score one query against one class over their pair vocabulary."""
    df = coll.frequencies
    idf = [smoothed_idf(coll.size, k) for k in range(coll.size + 1)]
    doc = class_doc.tokens
    query_norm, doc_norm = (math.sqrt(squared_norm(d, df, idf)) for d in (query, doc))
    return _cosine(query, query_norm, doc, doc_norm, df, idf)


def class_similarity_matrix(corpus: GradedCorpus) -> ClassSimilarityMatrix:
    """Pairwise similarities of the four class documents (N = 4).

    Cell (i, j) scores class j's text against class i; the collection is
    the four class documents, with no query involved. Each off-diagonal
    pair is scored once and mirrored, so the matrix is exactly symmetric;
    a diagonal cell is 1 with the class's vocabulary size as its count.
    """
    idf = [smoothed_idf(len(GRADES), k) for k in range(len(GRADES) + 1)]
    docs = {g: corpus.classes[g].tokens for g in GRADES}
    norms = {g: math.sqrt(squared_norm(doc, corpus.df4, idf)) for g, doc in docs.items()}
    cells = {(g, g): PairSimilarity(1.0, len(doc.types), len(doc.types)) for g, doc in docs.items()}
    for i, j in itertools.combinations(GRADES, 2):
        cells[i, j] = cells[j, i] = _cosine(docs[j], norms[j], docs[i], norms[i], corpus.df4, idf)
    return ClassSimilarityMatrix(tuple(tuple(cells[i, j] for j in GRADES) for i in GRADES))
