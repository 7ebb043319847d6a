import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from textgrade import DocumentCollection, inverse_document_frequency, term_frequency, tokenize

token_lists = st.lists(st.sampled_from(["olma", "nok", "behi", "uzum", "anor"]), min_size=1, max_size=30)


def seq(text):
    return tokenize(text)


@pytest.fixture
def mini_collection():
    return DocumentCollection((seq("olma nok olma"), seq("olma uzum anor uzum"), seq("olma behi")))


class TestTermFrequency:
    def test_relative_count(self):
        assert term_frequency("olma", seq("olma nok olma")) == pytest.approx(2 / 3)

    def test_absent_term(self):
        assert term_frequency("behi", seq("olma nok olma")) == 0.0

    def test_single_token_document(self):
        assert term_frequency("x", seq("x")) == 1.0

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            term_frequency("x", seq(""))

    @given(token_lists)
    def test_sums_to_one_over_distinct_terms(self, tokens):
        doc = seq(" ".join(tokens))
        total = sum(term_frequency(t, doc) for t in doc.types)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestInverseDocumentFrequency:
    def test_term_in_every_document_weighs_exactly_one(self, mini_collection):
        assert inverse_document_frequency("olma", mini_collection) == 1.0

    def test_df_one_of_three(self, mini_collection):
        expected = math.log(2) + 1  # ln((1+3)/(1+1)) + 1
        assert inverse_document_frequency("nok", mini_collection) == pytest.approx(expected)

    def test_unseen_term_in_five_docs(self):
        coll = DocumentCollection(tuple(seq(t) for t in ["a", "b", "c", "d", "e"]))
        expected = math.log(6) + 1  # ln((1+5)/(1+0)) + 1
        assert inverse_document_frequency("zzz", coll) == pytest.approx(expected)

    def test_nonincreasing_in_df_with_minimum_at_n(self):
        # six docs; term "t" appears in the first k of them
        values = []
        for k in range(7):
            docs = tuple(seq("t filler") if i < k else seq("filler") for i in range(6))
            values.append(inverse_document_frequency("t", DocumentCollection(docs)))
        assert values == sorted(values, reverse=True)
        assert values[-1] == 1.0

    def test_collection_validation(self):
        with pytest.raises(ValueError):
            DocumentCollection(())
        with pytest.raises(ValueError):
            DocumentCollection((seq("x"), seq("")))
