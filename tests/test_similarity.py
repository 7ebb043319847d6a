import random

import pytest

from textgrade import (
    GRADES,
    ClassDocument,
    DocumentCollection,
    GradedCorpus,
    Vocabulary,
    WeightedVector,
    class_similarity_matrix,
    cosine,
    pair_similarity,
    tokenize,
)
from textgrade.errors import VocabularyMismatchError, ZeroVectorError

ABC = Vocabulary(("a", "b", "c"))


def vec(*coords, vocab=ABC):
    return WeightedVector(vocab, tuple(float(c) for c in coords))


def random_vector(rng, vocab):
    coords = [rng.uniform(0.0, 5.0) for _ in vocab.terms]
    coords[rng.randrange(len(coords))] += 1.0  # never all-zero
    return WeightedVector(vocab, tuple(coords))


class TestCosine:
    def test_self_similarity(self):
        v = vec(0.3, 1.2, 0.0)
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_support(self):
        assert cosine(vec(1, 0, 1), vec(0, 1, 0)) == 0.0

    def test_half_overlap(self):
        assert cosine(vec(1, 0, 1), vec(1, 1, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_mismatched_vocabulary(self):
        other = WeightedVector(Vocabulary(("a", "b", "d")), (1.0, 0.0, 1.0))
        with pytest.raises(VocabularyMismatchError):
            cosine(vec(1, 0, 1), other)

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            cosine(vec(0, 0, 0), vec(1, 1, 0))

    def test_symmetric_exactly(self):
        rng = random.Random(2)
        for _ in range(300):
            v, w = random_vector(rng, ABC), random_vector(rng, ABC)
            assert cosine(v, w) == cosine(w, v)

    def test_positive_scaling_invariance(self):
        rng = random.Random(3)
        for _ in range(300):
            v, w = random_vector(rng, ABC), random_vector(rng, ABC)
            scaled = WeightedVector(ABC, tuple(7.5 * c for c in v.coords))
            assert cosine(scaled, w) == pytest.approx(cosine(v, w), abs=1e-9)

    def test_bounded_between_zero_and_one(self):
        rng = random.Random(4)
        for _ in range(300):
            v, w = random_vector(rng, ABC), random_vector(rng, ABC)
            assert 0.0 <= cosine(v, w) <= 1.0

    def test_vocabulary_permutation_invariance(self):
        # rename terms so the ascending sort induces a different coordinate
        # order, then compare
        rng = random.Random(5)
        terms = tuple(f"t{i:02d}" for i in range(8))
        vocab = Vocabulary(terms)
        for _ in range(100):
            v, w = random_vector(rng, vocab), random_vector(rng, vocab)
            positions = list(range(len(terms)))
            rng.shuffle(positions)
            renamed = Vocabulary(tuple(f"t{p:02d}" for p in sorted(positions)))
            v_coords = [0.0] * len(terms)
            w_coords = [0.0] * len(terms)
            for i, p in enumerate(positions):
                v_coords[p] = v.coords[i]
                w_coords[p] = w.coords[i]
            v2 = WeightedVector(renamed, tuple(v_coords))
            w2 = WeightedVector(renamed, tuple(w_coords))
            assert cosine(v2, w2) == pytest.approx(cosine(v, w), abs=1e-12)


class TestPairSimilarity:
    @pytest.fixture
    def collection(self):
        return DocumentCollection(
            (tokenize("olma nok olma"), tokenize("olma uzum anor uzum"), tokenize("olma behi"))
        )

    def test_against_grade_one(self, collection):
        query = tokenize("olma behi")
        grade1 = ClassDocument.from_tokens(1, tokenize("olma nok olma"))
        result = pair_similarity(query, grade1, collection)
        assert result.score == pytest.approx(0.3881338864, abs=1e-9)
        assert result.shared_unique == 1
        assert result.pair_vocab_size == 3

    def test_against_grade_two(self, collection):
        query = tokenize("olma behi")
        grade2 = ClassDocument.from_tokens(2, tokenize("olma uzum anor uzum"))
        result = pair_similarity(query, grade2, collection)
        assert result.score == pytest.approx(0.1298682825, abs=1e-9)
        assert result.shared_unique == 1
        assert result.pair_vocab_size == 4

    def test_identical_documents(self, collection):
        doc = tokenize("olma nok olma")
        result = pair_similarity(doc, ClassDocument.from_tokens(1, doc), collection)
        assert result.score == pytest.approx(1.0, abs=1e-9)
        assert result.shared_unique == 2

    def test_no_shared_terms_means_zero(self, collection):
        result = pair_similarity(
            tokenize("qargʻa"), ClassDocument.from_tokens(1, tokenize("olma nok olma")), collection
        )
        assert result.score == 0.0
        assert result.shared_unique == 0


class TestClassSimilarityMatrix:
    def test_diagonal_is_one(self, mini_corpus):
        matrix = class_similarity_matrix(mini_corpus)
        for g in GRADES:
            assert matrix.cell(g, g).score == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_counts_are_vocabulary_sizes(self, mini_corpus):
        matrix = class_similarity_matrix(mini_corpus)
        for g in GRADES:
            assert matrix.cell(g, g).shared_unique == len(mini_corpus.classes[g].tokens.types)

    def test_exactly_symmetric(self, mini_corpus):
        matrix = class_similarity_matrix(mini_corpus)
        for i in GRADES:
            for j in GRADES:
                assert matrix.cell(i, j).score == matrix.cell(j, i).score
                assert matrix.cell(i, j).shared_unique == matrix.cell(j, i).shared_unique

    def test_disjoint_vocabularies_give_zero_off_diagonal(self):
        corpus = GradedCorpus.from_token_sequences(
            {1: tokenize("a"), 2: tokenize("b"), 3: tokenize("c"), 4: tokenize("d")}
        )
        matrix = class_similarity_matrix(corpus)
        for i in GRADES:
            for j in GRADES:
                if i != j:
                    cell = matrix.cell(i, j)
                    assert cell.score == 0.0
                    assert cell.shared_unique == 0

    def test_shared_counts_are_intersection_sizes(self, mini_corpus):
        matrix = class_similarity_matrix(mini_corpus)
        assert matrix.cell(1, 2).shared_unique == 1  # only "olma"
        assert matrix.cell(3, 4).shared_unique == 0
