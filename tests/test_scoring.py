"""The sparse scoring paths against the dense pair-union oracle.

classify, pair_similarity and class_similarity_matrix score over the
terms the two documents share, from exact per-df integer sums. The
reference is the oracle in tests/reference.py, which builds the dense
vectors of the spec over each pair's union vocabulary.
"""

import random

import pytest

from textgrade import (
    GRADES,
    DocumentCollection,
    GradedCorpus,
    Vocabulary,
    WeightedVector,
    class_similarity_matrix,
    classify,
    pair_similarity,
    tokenize,
)
from textgrade.classifier import CONTAINMENT, COSINE_ARGMAX

from conftest import random_case
from reference import ref_classify, ref_pair_similarity, ref_union_vocab

TOLERANCE = 1e-12


def dense_pair(query, class_tokens, coll):
    """(score, shared terms, pair vocabulary size) from the oracle."""
    a, b = list(query.tokens), list(class_tokens.tokens)
    score, shared = ref_pair_similarity(a, b, [list(doc.tokens) for doc in coll.docs])
    return score, shared, len(ref_union_vocab(a, b))


def random_corpora(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        classes, query = random_case(rng)
        corpus = GradedCorpus.from_token_sequences(
            {g: tokenize(" ".join(tokens)) for g, tokens in classes.items()}
        )
        yield corpus, tokenize(" ".join(query))


def test_classify_matches_dense_pairs():
    paths = set()
    for corpus, query in random_corpora(seed=11, count=200):
        result = classify(" ".join(query.tokens), corpus)
        paths.add(result.decision)
        coll = DocumentCollection(tuple(corpus.classes[g].tokens for g in GRADES) + (query,))
        for g in GRADES:
            score, shared, _ = dense_pair(query, corpus.classes[g].tokens, coll)
            assert result.shared_unique[g] == shared
            if result.decision == CONTAINMENT and g == result.chosen_grade:
                assert result.scores[g] == 1.0
            else:
                assert abs(result.scores[g] - score) <= TOLERANCE
    assert paths == {CONTAINMENT, COSINE_ARGMAX}


def test_pair_similarity_matches_dense_pairs():
    for corpus, query in random_corpora(seed=12, count=100):
        coll = DocumentCollection(tuple(corpus.classes[g].tokens for g in GRADES) + (query,))
        for g in GRADES:
            pair = pair_similarity(query, corpus.classes[g], coll)
            score, shared, vocab_size = dense_pair(query, corpus.classes[g].tokens, coll)
            assert abs(pair.score - score) <= TOLERANCE
            assert (pair.shared_unique, pair.pair_vocab_size) == (shared, vocab_size)


def test_matrix_matches_dense_n4_reference():
    for corpus, _ in random_corpora(seed=13, count=100):
        docs = tuple(corpus.classes[g].tokens for g in GRADES)
        coll = DocumentCollection(docs)
        matrix = class_similarity_matrix(corpus)
        for i in GRADES:
            for j in GRADES:
                cell = matrix.cell(i, j)
                score, shared, vocab_size = dense_pair(docs[j - 1], docs[i - 1], coll)
                assert (cell.shared_unique, cell.pair_vocab_size) == (shared, vocab_size)
                if i == j:
                    assert cell.score == 1.0
                else:
                    assert abs(cell.score - score) <= TOLERANCE
                    assert cell == matrix.cell(j, i)


def test_same_bag_of_words_in_two_grades_ties_exactly():
    # grades 3 and 4 hold one bag of words in different orders; summing
    # squared weights in the counts' insertion order would let rounding
    # split the tie and hand the text to grade 4
    rng = random.Random(17)
    words = [f"w{chr(97 + a)}{chr(97 + b)}" for a in range(8) for b in range(5)]
    for _ in range(60):
        bag = [w for w in words for _ in range(rng.randint(1, 9))]
        third, fourth = bag[:], bag[:]
        rng.shuffle(third)
        rng.shuffle(fourth)
        corpus = GradedCorpus.from_token_sequences(
            {
                1: tokenize("a"),
                2: tokenize("b"),
                3: tokenize(" ".join(third)),
                4: tokenize(" ".join(fourth)),
            }
        )
        query = rng.sample(words, 12) + ["qx"]
        result = classify(" ".join(query), corpus)
        assert result.decision == COSINE_ARGMAX
        assert result.scores[3] == result.scores[4]
        assert result.chosen_grade == 3


def test_scoring_builds_no_dense_vectors(monkeypatch, mini_corpus):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense helper called on a scoring path")

    monkeypatch.setattr(Vocabulary, "__post_init__", forbidden)
    monkeypatch.setattr(WeightedVector, "__post_init__", forbidden)
    corpus = GradedCorpus.from_token_sequences({g: mini_corpus.classes[g].tokens for g in GRADES})
    assert classify("olma nok", corpus).decision == CONTAINMENT
    assert classify("olma behi", corpus).decision == COSINE_ARGMAX
    class_similarity_matrix(corpus)



# Grades 1 and 2 hold different bags of words whose scores against both
# queries tie in exact arithmetic; the queries are one bag in two orders.
TIE_TEXTS = {
    1: "we we wa wa we wd wc we wd wc wa wb wd we wb",
    2: "wd we wb wa wb wa wc wb we wd we we wd wa wb",
    3: "wd wc wb wc wd wb wd we we wc we",
    4: "we we wd wd wb wd wc we wc wb wb",
}


@pytest.mark.parametrize(
    "query", ["wa qxa wb qxb wc we we wb qxa wd we", "wc we qxb qxa we qxa wa wb we wb wd"]
)
def test_word_order_cannot_split_a_tie(query):
    corpus = GradedCorpus.from_token_sequences({g: tokenize(t) for g, t in TIE_TEXTS.items()})
    result = classify(query, corpus)
    assert result.decision == COSINE_ARGMAX
    assert result.scores[1] == result.scores[2]
    assert result.chosen_grade == 1


def test_shuffled_query_gives_identical_scores_and_the_oracle_decision():
    rng = random.Random(5)
    for _ in range(3000):
        classes, query = random_case(rng)
        corpus = GradedCorpus.from_token_sequences(
            {g: tokenize(" ".join(tokens)) for g, tokens in classes.items()}
        )
        result = classify(" ".join(query), corpus)
        expected = ref_classify(query, classes)
        assert (result.chosen_grade, result.decision) == (expected["chosen"], expected["decision"])
        for _ in range(3):
            shuffled = rng.sample(query, len(query))
            assert classify(" ".join(shuffled), corpus) == result
