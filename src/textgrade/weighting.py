"""TF-IDF weights and pair-aligned document vectors.

Term frequency is the relative frequency count/len(doc). Inverse
document frequency is smoothed,

    idf(t) = ln((1 + N) / (1 + df(t))) + 1

with N the collection size and df the number of collection documents
containing t, so a term present in every document still weighs 1.0 and
a term in none is defined. Natural log throughout.

Two documents are compared over their pair vocabulary, the sorted union
of their term sets; a coordinate is zero exactly when the term is absent
from the vector's source document.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .corpus import Vocabulary, smoothed_idf
from .tokenizer import TokenSequence


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

    def document_frequency(self, term: str) -> int:
        return self.frequencies[term]


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


def term_frequency(term: str, doc: TokenSequence) -> float:
    """Relative frequency of `term` in `doc`."""
    if not doc:
        raise ValueError("term frequency is undefined for an empty document")
    return doc.counts[term] / len(doc)


def inverse_document_frequency(term: str, coll: DocumentCollection) -> float:
    """Smoothed IDF of `term` over the collection; minimum 1.0 at df = N."""
    return smoothed_idf(coll.size, coll.document_frequency(term))


def weighted_vector(
    doc: TokenSequence, vocab: Vocabulary, coll: DocumentCollection
) -> WeightedVector:
    """TF-IDF vector of `doc` over `vocab`; zero where a term is absent."""
    if not len(vocab):
        raise ValueError("cannot build a vector over an empty vocabulary")
    if not doc:
        raise ValueError("cannot build a vector for an empty document")
    coords = tuple(
        term_frequency(term, doc) * inverse_document_frequency(term, coll)
        if term in doc.types
        else 0.0
        for term in vocab
    )
    return WeightedVector(vocab, coords)


def pair_vocabulary(a: TokenSequence, b: TokenSequence) -> Vocabulary:
    """Sorted union of the distinct terms of both documents."""
    return Vocabulary(tuple(sorted(a.types | b.types)))
