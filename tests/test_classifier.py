import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from textgrade import (
    GRADES,
    GradedCorpus,
    Vocabulary,
    classify,
    containment_class,
    tokenize,
)
from textgrade.classifier import CONTAINMENT, COSINE_ARGMAX
from textgrade.errors import EmptyQueryError

from conftest import random_case
from reference import ref_classify


def vocab(*terms):
    return Vocabulary(tuple(sorted(terms)))


class TestContainment:
    def test_subset_of_grade_one(self, mini_corpus):
        assert containment_class(vocab("olma"), mini_corpus) == 1

    def test_lowest_grade_wins_when_contained_everywhere(self):
        corpus = GradedCorpus.from_token_sequences({g: tokenize("olma nok") for g in GRADES})
        assert containment_class(vocab("olma"), corpus) == 1

    def test_unknown_term_means_no_containment(self, mini_corpus):
        assert containment_class(vocab("olma", "qor"), mini_corpus) is None

    def test_later_grade_found(self, mini_corpus):
        assert containment_class(vocab("uzum", "anor"), mini_corpus) == 2

    def test_one_shot_generator(self, mini_corpus):
        assert containment_class((t for t in ("uzum", "anor", "uzum")), mini_corpus) == 2
        assert containment_class((t for t in ("olma", "qor")), mini_corpus) is None

    def test_no_terms_are_contained_in_grade_one(self, mini_corpus):
        assert containment_class(iter(()), mini_corpus) == 1
        assert containment_class([], mini_corpus) == 1

    def test_classify_decides_containment_as_the_helper_does(self):
        # classify reads containment off its scoring pass; the helper tests
        # vocabulary inclusion directly, and the two must name the same grade
        rng = random.Random(11)
        contained = 0
        for case in range(120):
            classes, query = random_case(rng)
            if case % 3 == 0:
                query = query + ["qzz"]  # outside every corpus alphabet
            corpus = GradedCorpus.from_token_sequences(
                {g: tokenize(" ".join(tokens)) for g, tokens in classes.items()}
            )
            expected = containment_class(tokenize(" ".join(query)).types, corpus)
            result = classify(" ".join(query), corpus)
            assert (result.decision == CONTAINMENT) == (expected is not None)
            if expected is not None:
                contained += 1
                assert result.chosen_grade == expected
                assert result.scores[expected] == 1.0
        assert 0 < contained < 120


class TestClassify:
    def test_cosine_path_scores(self, mini_corpus):
        # frozen from the naive-loop reference over the N=5 collection
        result = classify("olma behi", mini_corpus)
        assert result.decision == COSINE_ARGMAX
        assert result.chosen_grade == 1
        assert result.scores[1] == pytest.approx(0.4458891921, abs=1e-9)
        assert result.scores[2] == pytest.approx(0.1596523760, abs=1e-9)
        assert result.scores[3] == 0.0
        assert result.scores[4] == 0.0
        assert result.shared_unique == {1: 1, 2: 1, 3: 0, 4: 0}

    def test_containment_path(self, mini_corpus):
        result = classify("olma nok", mini_corpus)
        assert result.decision == CONTAINMENT
        assert result.chosen_grade == 1
        assert result.scores[1] == 1.0
        assert result.scores[2] > 0.0  # shares "olma"; still reported
        assert result.scores[3] == 0.0 and result.scores[4] == 0.0

    def test_query_equal_to_class_document(self, mini_corpus):
        result = classify("daraxt", mini_corpus)
        assert result.decision == CONTAINMENT
        assert result.chosen_grade == 3
        assert result.scores[3] == 1.0

    def test_chosen_score_is_maximal(self, mini_corpus):
        result = classify("olma uzum anor qor", mini_corpus)
        assert result.scores[result.chosen_grade] == max(result.scores.values())

    def test_tie_breaks_to_lowest_grade(self):
        corpus = GradedCorpus.from_token_sequences(
            {1: tokenize("a"), 2: tokenize("b"), 3: tokenize("x c"), 4: tokenize("x d")}
        )
        result = classify("x y", corpus)
        assert result.decision == COSINE_ARGMAX
        assert result.scores[3] == result.scores[4]
        assert result.chosen_grade == 3

    @pytest.mark.parametrize("text", ["", "123 456", "?!...", "…"])
    def test_empty_query_rejected(self, mini_corpus, text):
        with pytest.raises(EmptyQueryError):
            classify(text, mini_corpus)

    def test_deterministic(self, mini_corpus):
        assert classify("olma behi uzum", mini_corpus) == classify("olma behi uzum", mini_corpus)


class TestOracleEquivalence:
    def test_matches_naive_reference_on_random_corpora(self):
        rng = random.Random(7)
        for _ in range(60):
            classes, query = random_case(rng)
            corpus = GradedCorpus.from_token_sequences(
                {g: tokenize(" ".join(tokens)) for g, tokens in classes.items()}
            )
            expected = ref_classify(query, classes)
            result = classify(" ".join(query), corpus)
            assert result.chosen_grade == expected["chosen"]
            assert result.decision == expected["decision"]
            for g in GRADES:
                assert result.scores[g] == pytest.approx(expected["scores"][g], abs=1e-9)
                assert result.shared_unique[g] == expected["shared"][g]


# Words over small Latin and Cyrillic alphabets, so that grades and
# queries share terms, and oʻ/gʻ words spelled with every apostrophe
# variant; joined by spaces, digits, punctuation and apostrophes (which
# glue two words into one token).
APOSTROPHES = ["'", "‘", "’", "ʻ", "ʼ", "`"]
WORDS = st.one_of(
    st.text(alphabet="abOq", min_size=1, max_size=2),
    st.text(alphabet="мкТў", min_size=1, max_size=2),
    st.builds(
        lambda stem, apostrophe, tail: stem + apostrophe + tail,
        st.sampled_from(["o", "g", "Gʻo", "bo"]),
        st.sampled_from(APOSTROPHES),
        st.text(alphabet="aqz", max_size=2),
    ),
)
JOINERS = st.sampled_from([" ", "\n", "1", "2024", ", ", ".", "!", "«", "»", "—", "…", "-"] + APOSTROPHES)
TEXTS = st.lists(st.tuples(WORDS, JOINERS), min_size=1, max_size=25).map(
    lambda parts: "".join(word + joiner for word, joiner in parts)
)
CORPORA = st.fixed_dictionaries({g: TEXTS for g in GRADES})


def mixed_corpus(texts):
    return GradedCorpus.from_token_sequences({g: tokenize(t) for g, t in texts.items()})


class TestMetamorphic:
    @given(CORPORA, TEXTS)
    def test_matches_oracle_on_mixed_text(self, texts, query):
        classes = {g: list(tokenize(t).tokens) for g, t in texts.items()}
        expected = ref_classify(list(tokenize(query).tokens), classes)
        result = classify(query, mixed_corpus(texts))
        assert result.decision == expected["decision"]
        assert result.shared_unique == expected["shared"]
        for g in GRADES:
            assert result.scores[g] == pytest.approx(expected["scores"][g], abs=1e-9)
        if result.decision == CONTAINMENT:
            assert result.chosen_grade == expected["chosen"]
        else:
            # a tie in exact arithmetic may round either way in the oracle
            best = max(expected["scores"].values())
            assert expected["scores"][result.chosen_grade] >= best - 1e-9

    @given(CORPORA, TEXTS)
    def test_doubled_query_is_unchanged(self, texts, query):
        corpus = mixed_corpus(texts)
        assert classify(query + " " + query, corpus) == classify(query, corpus)

    @given(CORPORA)
    def test_grade_text_is_decided_by_containment(self, texts):
        corpus = mixed_corpus(texts)
        for g in GRADES:
            result = classify(texts[g], corpus)
            assert result.decision == CONTAINMENT
            assert result.chosen_grade <= g
