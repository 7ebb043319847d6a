import itertools
import re
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from textgrade.tokenizer import _REPLACE_LIMIT, CANONICAL_APOSTROPHE, concat, normalize, tokenize

APOSTROPHE_VARIANTS = ["'", "‘", "’", "ʻ", "ʼ", "`"]

# True separators only: apostrophe lookalikes are word-internal, not listed.
SEPARATORS = [" ", "\t", "\n", ",", ".", "!", "?", ";", ":", "-", "_", "5", "…", "«"]


class TestNormalize:
    def test_casefold_when_apostrophe_already_canonical(self):
        assert normalize("Oʻzbek") == "oʻzbek"

    def test_ascii_apostrophe_unified(self):
        assert normalize("O'zbek") == "oʻzbek"

    def test_empty(self):
        assert normalize("") == ""

    @pytest.mark.parametrize("variant", APOSTROPHE_VARIANTS)
    def test_every_variant_maps_to_canonical(self, variant):
        assert normalize(f"g{variant}o{variant}za") == "gʻoʻza"

    def test_output_is_canonically_composed(self):
        decomposed = "élan"  # e + combining acute
        assert normalize(decomposed) == "élan"
        assert unicodedata.is_normalized("NFC", normalize(decomposed))


class TestTokenize:
    def test_sentence(self):
        assert tokenize("Men maktabga boraman.").tokens == ("men", "maktabga", "boraman")

    def test_internal_apostrophes_kept(self):
        assert tokenize("gʻoʻza, gʻoʻza!").tokens == ("gʻoʻza", "gʻoʻza")

    def test_no_letter_runs(self):
        assert tokenize("12345 …").tokens == ()

    def test_edge_apostrophes_stripped(self):
        assert tokenize("'olma'").tokens == ("olma",)

    def test_apostrophe_only_run_dropped(self):
        assert tokenize("'' ''").tokens == ()

    def test_digits_split_runs(self):
        assert tokenize("ab12cd").tokens == ("ab", "cd")

    def test_numeric_letters_are_separators(self):
        # Nl and No characters are word chars to the re module but not letters
        assert tokenize("ab¼cd Ⅳ x").tokens == ("ab", "cd", "x")

    def test_underscore_splits(self):
        assert tokenize("ab_cd").tokens == ("ab", "cd")

    def test_cyrillic_tokenized_without_transliteration(self):
        assert tokenize("Мактаб 5-синф").tokens == ("мактаб", "синф")

    def test_combining_mark_without_precomposed_form_splits(self):
        # a stress mark on Cyrillic а, and the dot that İ keeps when lowercased
        assert tokenize("ма\u0301ктаб").tokens == ("ма", "ктаб")
        assert tokenize("İstanbul").tokens == ("i", "stanbul")

    def test_duplicates_and_order_preserved(self):
        assert tokenize("b a b").tokens == ("b", "a", "b")


class TestTokenSequence:
    def test_counts_and_types(self):
        seq = tokenize("olma nok olma")
        assert seq.counts == {"olma": 2, "nok": 1}
        assert seq.types == frozenset({"olma", "nok"})
        assert len(seq) == 3 and bool(seq)

    def test_concat(self):
        combined = concat([tokenize("olma nok"), tokenize("behi")])
        assert combined.tokens == ("olma", "nok", "behi")


class TestProperties:
    @given(st.text(max_size=200))
    def test_idempotent_on_space_join(self, raw):
        once = tokenize(raw)
        again = tokenize(" ".join(once.tokens))
        assert again.tokens == once.tokens

    @given(st.text(max_size=200))
    def test_deterministic(self, raw):
        assert tokenize(raw) == tokenize(raw)

    @given(
        st.lists(st.sampled_from(["olma", "nok", "gʻoʻza", "behi"]), min_size=1, max_size=8),
        st.sampled_from(SEPARATORS),
        st.sampled_from(SEPARATORS),
    )
    def test_separator_choice_is_irrelevant(self, words, sep_a, sep_b):
        assert tokenize(sep_a.join(words)).tokens == tokenize(sep_b.join(words)).tokens

    @given(st.text(max_size=200))
    def test_tokens_are_normalized_letter_runs(self, raw):
        for token in tokenize(raw).tokens:
            assert token
            assert token == token.lower()
            assert not token.startswith(CANONICAL_APOSTROPHE)
            assert not token.endswith(CANONICAL_APOSTROPHE)
            assert all(ch.isalpha() for ch in token)


# Frozen copy of the regex tokenizer that `tokenize` replaced; the
# reference its output must keep equal to.
_WORD_RUN = re.compile(r"[^\W\d_]+")


def _letter_pieces(run):
    if run.isalpha():
        yield run
        return
    for is_letter, group in itertools.groupby(run, key=str.isalpha):
        if is_letter:
            yield "".join(group)


def reference_tokens(raw):
    tokens = []
    for run in _WORD_RUN.findall(normalize(raw)):
        for piece in _letter_pieces(run):
            term = piece.strip(CANONICAL_APOSTROPHE)
            if term:
                tokens.append(term)
    return tuple(tokens)


# Latin and Cyrillic letters, every apostrophe variant, ASCII and
# Arabic-Indic digits, numerics that are not letters, a combining acute,
# underscore, punctuation, and unusual whitespace (no-break space, line
# separator, ideographic space, file separator).
MIXED_TEXT = st.text(
    alphabet=st.sampled_from(
        list("abgoOzAYʻ") + list("мактабСИНФёЎқ") + APOSTROPHE_VARIANTS
        + list("0159٣¼²Ⅳ\u0301_«»…—.,- ") + ["\u00a0", "\u2028", "\u3000", "\u001c"]
    ),
    max_size=80,
)


class TestMatchesRegexReference:
    @given(MIXED_TEXT)
    def test_mixed_script_text(self, raw):
        assert tokenize(raw).tokens == reference_tokens(raw)

    @given(st.text(max_size=200))
    def test_any_text(self, raw):
        assert tokenize(raw).tokens == reference_tokens(raw)

    @pytest.mark.parametrize("distinct", [20, _REPLACE_LIMIT, _REPLACE_LIMIT + 1, 2000])
    def test_both_separator_branches(self, distinct):
        # a different symbol (category So, unchanged by normalize) in each fragment
        symbols = [
            ch
            for ch in map(chr, range(0x2000, 0x30000))
            if unicodedata.category(ch) == "So" and normalize(ch) == ch
        ][:distinct]
        raw = "".join(f"Oʻzbek{sym}мактаб2{sym}'olma' " for sym in symbols)
        separators = {ch for ch in normalize(raw) if not (ch.isalpha() or ch.isspace())}
        assert len(separators) == distinct + 1  # the digit 2 as well
        assert tokenize(raw).tokens == reference_tokens(raw)
        assert len(tokenize(raw)) == 3 * distinct
