"""TF-IDF weights and cosine similarity: queries, pairs and the class matrix.

Term frequency is the relative frequency count/len(doc). Inverse
document frequency is smoothed,

    idf(t) = ln((1 + N) / (1 + df(t))) + 1

with N the collection size and df the number of collection documents
containing t, so a term present in every document still weighs 1.0 and
a term in none is defined. Natural log throughout.

The spec compares two documents over their pair vocabulary, the union of
their terms. A term missing from one side adds nothing to the dot
product or to that side's norm, so pairs are scored sparsely: the dot
product runs over the terms both documents hold, each norm over the
document's own terms.

Every dot product and squared norm is summed by one rule. A term's
weight is (count / total) * idf[df], so the terms of one df add
idf[df]**2 / scale times an integer sum: of count_a * count_b over the
shared terms for a dot product (scale total_a * total_b), of count**2
for a squared norm (scale total**2). The integer sums are exact; each is
scaled once and the scaled sums are added with math.fsum. So no score
depends on the order of any document's terms, and documents holding the
same bag of words tie exactly.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .corpus import GRADES, ClassDocument, GradedCorpus, Vocabulary, square_sums
from .errors import VocabularyMismatchError, ZeroVectorError
from .tokenizer import TokenSequence


def smoothed_idf(n: int, df: int) -> float:
    """IDF of a term held by `df` of `n` documents: ln((1 + n) / (1 + df)) + 1."""
    return math.log((1 + n) / (1 + df)) + 1.0


def _idf_table(n: int) -> tuple[float, ...]:
    """smoothed_idf(n, df) indexed by df = 0..n."""
    return tuple(smoothed_idf(n, df) for df in range(n + 1))


# the four grades alone (the class matrix), and with a query (classify)
IDF4 = _idf_table(len(GRADES))
IDF5 = _idf_table(len(GRADES) + 1)


@dataclass(frozen=True)
class DocumentCollection:
    """The reference collection over which document frequencies are taken."""

    docs: tuple[TokenSequence, ...]

    def __post_init__(self) -> None:
        if not self.docs:
            raise ValueError("collection must hold at least one document")
        if any(not doc for doc in self.docs):
            raise ValueError("collection documents must be nonempty")

    @property
    def size(self) -> int:
        return len(self.docs)

    @cached_property
    def frequencies(self) -> Counter[str]:
        """Number of documents containing each term, counted once."""
        df: Counter[str] = Counter()
        for doc in self.docs:
            df.update(doc.types)
        return df


@dataclass(frozen=True)
class WeightedVector:
    """Nonnegative TF-IDF coordinates aligned to a vocabulary."""

    vocab: Vocabulary
    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.vocab):
            raise ValueError(
                f"{len(self.coords)} coordinates for {len(self.vocab)} vocabulary terms"
            )


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


def term_frequency(term: str, doc: TokenSequence) -> float:
    """Relative frequency of `term` in `doc`."""
    if not doc:
        raise ValueError("term frequency is undefined for an empty document")
    return doc.counts[term] / len(doc)


def inverse_document_frequency(term: str, coll: DocumentCollection) -> float:
    """Smoothed IDF of `term` over the collection; minimum 1.0 at df = N."""
    return smoothed_idf(coll.size, coll.frequencies[term])


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


def _weigh(sums: Sequence[int], idf: Sequence[float], scale: int) -> float:
    """The sum over df of idf[df]**2 / scale * sums[df], rounded once."""
    return math.fsum(weight * weight / scale * s for weight, s in zip(idf, sums))


def _pair(
    a: TokenSequence,
    a_norm: float,
    b: TokenSequence,
    b_norm: float,
    df: Mapping[str, int],
    idf: Sequence[float],
) -> PairSimilarity:
    """Cosine of `a` and `b` given their squared norms, with the shared and
    union term counts."""
    small, large = (a.counts, b.counts) if len(a.counts) <= len(b.counts) else (b.counts, a.counts)
    products = [0] * len(idf)
    shared = 0
    for term, count in small.items():
        other = large.get(term)
        if other is not None:
            products[df[term]] += count * other
            shared += 1
    dot = _weigh(products, idf, len(a) * len(b))
    score = min(1.0, dot / math.sqrt(a_norm * b_norm))
    return PairSimilarity(score, shared, len(a.counts) + len(b.counts) - shared)


def pair_similarity(
    query: TokenSequence, class_doc: ClassDocument, coll: DocumentCollection
) -> PairSimilarity:
    """Score one query against one class over their pair vocabulary."""
    df, idf = coll.frequencies, _idf_table(coll.size)
    doc = class_doc.tokens
    query_norm, doc_norm = (
        _weigh(square_sums(d, df, coll.size), idf, len(d) ** 2) for d in (query, doc)
    )
    return _pair(query, query_norm, doc, doc_norm, df, idf)


def query_similarities(
    query: TokenSequence, corpus: GradedCorpus, grades: Iterable[int]
) -> dict[int, PairSimilarity]:
    """Score a nonempty query against each of `grades` (N = 5).

    The collection is the four class documents plus the query. A query
    term's df is its grade count plus one. A grade term keeps its df4
    unless the query holds it too; then its square moves from the
    grade's stored bucket `squares4[df4]` to df4 + 1.
    """
    df4 = corpus.df4
    query_squares = [0] * len(IDF5)
    known = []
    for term, count in query.counts.items():
        df = df4.get(term, 0)
        query_squares[df + 1] += count * count
        if df:
            known.append((term, count, df))
    query_norm = _weigh(query_squares, IDF5, len(query) ** 2)
    pairs = {}
    for grade in grades:
        doc = corpus.classes[grade].tokens
        counts = doc.counts
        products = [0] * len(IDF5)
        squares = [*corpus.squares4[grade], 0]
        shared = 0
        for term, count, df in known:
            other = counts.get(term)
            if other is not None:
                products[df + 1] += count * other
                squares[df] -= other * other
                squares[df + 1] += other * other
                shared += 1
        dot = _weigh(products, IDF5, len(query) * len(doc))
        norm = _weigh(squares, IDF5, len(doc) ** 2)
        score = min(1.0, dot / math.sqrt(query_norm * norm))
        pairs[grade] = PairSimilarity(score, shared, len(query.counts) + len(counts) - shared)
    return pairs


def class_similarity_matrix(corpus: GradedCorpus) -> ClassSimilarityMatrix:
    """Pairwise similarities of the four class documents (N = 4).

    Cell (i, j) scores class j's text against class i; the collection is
    the four class documents, with no query involved. Each off-diagonal
    pair is scored once and mirrored, so the matrix is exactly symmetric;
    a diagonal cell is 1 with the class's vocabulary size as its count.
    """
    docs = {g: corpus.classes[g].tokens for g in GRADES}
    norms = {g: _weigh(corpus.squares4[g], IDF4, len(doc) ** 2) for g, doc in docs.items()}
    cells = {(g, g): PairSimilarity(1.0, len(doc.types), len(doc.types)) for g, doc in docs.items()}
    for i, j in itertools.combinations(GRADES, 2):
        cells[i, j] = cells[j, i] = _pair(docs[j], norms[j], docs[i], norms[i], corpus.df4, IDF4)
    return ClassSimilarityMatrix(tuple(tuple(cells[i, j] for j in GRADES) for i in GRADES))
