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
from collections.abc import Mapping, Sequence
from functools import cached_property

from .corpus import GRADES, ClassDocument, GradedCorpus, _pair_sums
from .errors import VocabularyMismatchError, ZeroVectorError
from .record import Record
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


class DocumentCollection(Record):
    """The reference collection over which document frequencies are taken."""

    __slots__ = ("docs", "__dict__")

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
        return Counter(itertools.chain(*(doc.counts for doc in self.docs)))


class WeightedVector(Record):
    """Nonnegative TF-IDF coordinates aligned to a vocabulary."""

    __slots__ = ("vocab", "coords")

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.vocab):
            raise ValueError(
                f"{len(self.coords)} coordinates for {len(self.vocab)} vocabulary terms"
            )


class PairSimilarity(Record):
    """Similarity of one (query, class) pair."""

    __slots__ = ("score", "shared_unique", "pair_vocab_size")


class ClassSimilarityMatrix(Record):
    """4x4 grid of pairwise class similarities, indexed by grade."""

    __slots__ = ("cells",)

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


def _cosine(
    products: Sequence[int], idf: Sequence[float], scale: int, norm_a: float, norm_b: float
) -> float:
    """The weighed dot product over the root of the squared norms' product,
    clamped at 1.0 against float rounding on identical documents."""
    return min(1.0, _weigh(products, idf, scale) / math.sqrt(norm_a * norm_b))


def pair_similarity(
    query: TokenSequence, class_doc: ClassDocument, coll: DocumentCollection
) -> PairSimilarity:
    """Score one query against one class over their pair vocabulary."""
    df, idf = coll.frequencies, _idf_table(coll.size)
    doc = class_doc.tokens
    norms = []
    for d in (query, doc):
        squares = [0] * len(idf)
        for term, count in d.counts.items():
            squares[df[term]] += count * count
        norms.append(_weigh(squares, idf, len(d) ** 2))
    query_norm, doc_norm = norms
    small, large = sorted((query.counts, doc.counts), key=len)
    products = [0] * len(idf)
    shared = 0
    for term, count in small.items():
        other = large.get(term)
        if other is not None:
            products[df[term]] += count * other
            shared += 1
    score = _cosine(products, idf, len(query) * len(doc), query_norm, doc_norm)
    return PairSimilarity(score, shared, len(query.counts) + len(doc.counts) - shared)


def query_similarities(
    query: Mapping[str, int], corpus: GradedCorpus
) -> tuple[dict[int, float], dict[int, int]]:
    """Score a nonempty query, given as its term counts, against each
    grade (N = 5): each grade's cosine score, and the number of the
    query's distinct terms it holds.

    The collection is the four class documents plus the query. One pass
    over the query's distinct terms looks each up once in `corpus.terms`;
    its df is its row's df4 plus one. For each grade holding the term,
    the pass adds the count product to that df's bucket, counts the term
    as shared, and notes that the grade's square of it moves from its
    stored bucket `squares4[df4]` to df4 + 1. A term outside the corpus
    has df 1 and is shared with no grade.
    """
    terms = corpus.terms
    size = len(IDF5)
    query_squares = [0] * size
    products = [[0] * size for _ in GRADES]
    moved = [[0] * size for _ in GRADES]  # moved[g - 1][df]: squares moved into df
    p1, p2, p3, p4 = products
    m1, m2, m3, m4 = moved
    s1 = s2 = s3 = s4 = 0
    # unrolled over the four grades: an inner loop would double the time
    for term, count in query.items():
        row = terms.get(term)
        if row is None:
            query_squares[1] += count * count
            continue
        df, a, b, c, d = row
        df += 1
        query_squares[df] += count * count
        if a:
            p1[df] += count * a
            m1[df] += a * a
            s1 += 1
        if b:
            p2[df] += count * b
            m2[df] += b * b
            s2 += 1
        if c:
            p3[df] += count * c
            m3[df] += c * c
            s3 += 1
        if d:
            p4[df] += count * d
            m4[df] += d * d
            s4 += 1
    total = sum(query.values())
    query_norm = _weigh(query_squares, IDF5, total**2)
    totals = corpus.stats.total_tokens
    scores = {}
    for grade, into, grade_products in zip(GRADES, moved, products):
        squares = [
            s + gained - lost
            for s, gained, lost in zip((*corpus.squares4[grade], 0), into, (*into[1:], 0))
        ]
        norm = _weigh(squares, IDF5, totals[grade] ** 2)
        scores[grade] = _cosine(grade_products, IDF5, total * totals[grade], query_norm, norm)
    return scores, dict(zip(GRADES, (s1, s2, s3, s4)))


def class_similarity_matrix(corpus: GradedCorpus) -> ClassSimilarityMatrix:
    """Pairwise similarities of the four class documents (N = 4).

    Cell (i, j) scores class j's text against class i; the collection is
    the four class documents, with no query involved. Each off-diagonal
    pair is scored once and mirrored, so the matrix is exactly symmetric;
    a diagonal cell is 1 with the class's vocabulary size as its count.
    Many terms share one row of `corpus.terms`, so the pairs are summed
    over `corpus.rows`, the distinct rows each with the number k of terms
    holding it: a row both grades hold adds k times its count product to
    its df4's bucket and k to the shared count.
    """
    totals, unique = corpus.stats.total_tokens, corpus.stats.unique_tokens
    norms = {g: _weigh(corpus.squares4[g], IDF4, totals[g] ** 2) for g in GRADES}
    cells = {(g, g): PairSimilarity(1.0, unique[g], unique[g]) for g in GRADES}
    pairs = _pair_sums(corpus.rows, itertools.combinations(GRADES, 2))
    for (i, j), (products, shared) in pairs.items():
        score = _cosine(products, IDF4, totals[j] * totals[i], norms[j], norms[i])
        cells[i, j] = cells[j, i] = PairSimilarity(score, shared, unique[i] + unique[j] - shared)
    return ClassSimilarityMatrix(tuple(tuple(cells[i, j] for j in GRADES) for i in GRADES))
