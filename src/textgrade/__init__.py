"""Match Uzbek texts to school grades 1-4 by TF-IDF cosine similarity."""

from .classifier import classify, containment_class
from .corpus import GRADES, ClassDocument, GradedCorpus, Vocabulary, build_corpus, load_manifest
from .scoring import (
    DocumentCollection,
    WeightedVector,
    class_similarity_matrix,
    cosine,
    inverse_document_frequency,
    pair_similarity,
    term_frequency,
)
from .tokenizer import tokenize

__version__ = "0.1.0"

__all__ = [
    "GRADES",
    "ClassDocument",
    "DocumentCollection",
    "GradedCorpus",
    "Vocabulary",
    "WeightedVector",
    "build_corpus",
    "class_similarity_matrix",
    "classify",
    "containment_class",
    "cosine",
    "inverse_document_frequency",
    "load_manifest",
    "pair_similarity",
    "term_frequency",
    "tokenize",
]
