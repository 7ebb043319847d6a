import itertools
import re
import time
import tracemalloc
import unicodedata
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from textgrade import tokenizer
from textgrade.tokenizer import (
    _REPLACE_LIMIT,
    CANONICAL_APOSTROPHE,
    count_terms,
    normalize,
    tokenize,
)

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


class TestProperties:
    @given(st.text(max_size=200))
    def test_idempotent_on_space_join(self, raw):
        once = tokenize(raw)
        again = tokenize(" ".join(once.tokens))
        assert again.tokens == once.tokens

    @given(st.text(max_size=200))
    def test_deterministic(self, raw):
        assert tokenize(raw) == tokenize(raw)

    @given(st.lists(st.text(max_size=60), max_size=4))
    @example(["ΑΣ", "Σα", "́olma'", "'noḱ"])
    def test_newline_join_gives_each_texts_tokens_in_turn(self, texts):
        # build_corpus tokenizes a grade's files joined by a newline
        joined = tokenize("\n".join(texts)).tokens
        assert joined == tuple(token for text in texts for token in tokenize(text).tokens)

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
        # the branch counts non-ASCII separators only: the byte table
        # replaces the digit 2
        separators = {
            ch for ch in normalize(raw) if not (ch.isascii() or ch.isalpha() or ch.isspace())
        }
        assert len(separators) == distinct
        assert tokenize(raw).tokens == reference_tokens(raw)
        assert len(tokenize(raw)) == 3 * distinct


class TestCountTerms:
    # build_corpus and classify count terms without a token tuple
    @given(MIXED_TEXT)
    @example("'ʻ‘ olma' ’nok` ʼʼ oʻzbek ʻ'ʻ o‘ʼ x`")
    def test_equals_counting_the_tokens(self, raw):
        tokens = tokenize(raw).tokens
        counts = count_terms(raw)
        assert sorted(counts.items()) == sorted(Counter(tokens).items())
        assert sum(counts.values()) == len(tokens)


# Characters that st.text() never draws or rarely draws: lone surrogates
# (category Cs, which UTF-8 cannot encode), the C0 controls, DEL, and
# whitespace outside ASCII (next line, no-break, ogham, line separator,
# ideographic), with every other ASCII character too. `tokenize` maps
# each ASCII byte through a table and scans the other characters'
# UTF-8 bytes for separators, so these are where it could part from the
# reference.
UNDRAWN = (
    ["\ud800", "\udfff"]
    + [chr(c) for c in range(0x80)]
    + ["\x85", "\xa0", "\u1680", "\u2028", "\u3000"]
)

# Any character, lone surrogates included.
TEXT_WITH_SURROGATES = st.text(
    alphabet=st.one_of(st.characters(categories=["Cs"]), st.characters(codec="utf-8")),
    max_size=80,
)


class TestCharactersTextLeavesOut:
    @pytest.mark.parametrize("ch", UNDRAWN, ids=lambda ch: f"U+{ord(ch):04X}")
    def test_between_words(self, ch):
        raw = f"Olma{ch}nok 5{ch}oʻzbek{ch}{ch}МАКТАБ,{ch}'x{ch}"
        assert tokenize(raw).tokens == reference_tokens(raw)
        assert count_terms(raw) == Counter(reference_tokens(raw))

    @given(TEXT_WITH_SURROGATES)
    @example("a\ud800b")
    @example("\udfff\ud800a\udc00")
    def test_text_with_lone_surrogates(self, raw):
        assert tokenize(raw).tokens == reference_tokens(raw)
        assert count_terms(raw) == Counter(reference_tokens(raw))


# Where a cut after whitespace could change a token if the cut were
# wrong: combining marks that NFC composes or lowercasing keeps, the
# sigmas whose lowercase depends on their neighbours, İ, every line
# break and unusual space, every apostrophe variant, Cyrillic, digits
# and lone surrogates.
PIECE_UNITS = (
    list("aeiOΣσςİМактабё05 ") + ["\u0301", "\u0307"] + APOSTROPHE_VARIANTS
    + ["\t", "\r", "\n", "\r\n", "\u2028", "\u00a0", "\u3000", "\ud800", "\udfff"]
)
PIECE_TEXT = st.lists(st.sampled_from(PIECE_UNITS), max_size=120).map("".join)


class TestPieces:
    # count_terms counts long texts, and texts given in blocks, in pieces
    @given(PIECE_TEXT, st.integers(1, 64))
    @example("aΣ a\u0301Σ\u0307 ς\r\nİ'a", 3)
    def test_piece_sizes_count_as_the_whole_text(self, raw, size):
        with mock.patch.object(tokenizer, "_PIECE", size):
            counts = count_terms(raw)
        assert counts == Counter(tokenize(raw).tokens)

    @given(PIECE_TEXT, st.lists(st.integers(0, 120), max_size=12))
    @example("olma nok", [2, 2, 2])
    def test_blocks_count_as_their_concatenation(self, raw, cuts):
        bounds = [0, *sorted(cuts), len(raw)]
        blocks = [raw[a:b] for a, b in zip(bounds, bounds[1:])]
        assert count_terms(iter(blocks)) == Counter(tokenize(raw).tokens)

    def test_whitespace_free_text_is_one_piece_in_linear_time(self):
        # ".", U+3000 and U+2028 separate words but are no cut point; blocks
        # of 16 characters make a join per block cost minutes over 2 MB
        raw = "Olma.\u2028nok\u3000мактаб\u2028" * 100_000
        with mock.patch.object(tokenizer, "_PIECE", 16):
            assert list(tokenizer._pieces([raw[i : i + 16] for i in range(0, 64, 16)])) == [raw[:64]]
            started = time.perf_counter()
            counts = count_terms(raw)
            elapsed = time.perf_counter() - started
        assert counts == {"olma": 100_000, "nok": 100_000, "мактаб": 100_000}
        assert count_terms(raw) == counts
        assert elapsed < 5


def nfc(text):
    return unicodedata.normalize("NFC", text)


def composes_with(x):
    """The code points y for which NFC(x + y) is not x + NFC(y), or NFC(y + x)
    is not NFC(y) + x: every code point is tried between two copies of x.

    x is ASCII, so it is its own decomposition and a starter: NFC acts on
    each stretch from one x to the next on its own, and any composition
    with x removes that x. So a chunk whose NFC equals its pairs' holds
    no such y, and only chunks that differ are tried one code point at a
    time.
    """
    assert x.isascii() and unicodedata.decomposition(x) == "" and not unicodedata.combining(x)
    found = set()
    for start in range(0, 0x110000, 1 << 14):
        chunk = [chr(c) for c in range(start, min(start + (1 << 14), 0x110000))]
        whole = x.join(["", *chunk, ""])
        if nfc(whole) != x.join(["", *map(nfc, chunk), ""]):
            found.update(y for y in chunk if nfc(x + y + x) != x + nfc(y) + x)
    return found


def sigma_looks_across(x):
    """Whether `normalize` lowers a capital sigma beside x differently
    when the text is cut just after x: the final-sigma rule of
    `str.lower` looks across case-ignorable characters."""
    return any(
        normalize(left + x + right) != normalize(left + x) + normalize(right)
        for left, right in [("αΣ", "β"), ("α", "Σ"), ("αΣ", "Σβ")]
    )


CUTS = tokenizer._WHITESPACE_CUTS + tokenizer._SEPARATOR_CUTS


class TestCutPoints:
    # `_pieces` cuts only where counting the two sides apart counts the same

    @pytest.mark.parametrize("x", CUTS, ids=lambda x: f"U+{ord(x):04X}")
    def test_nfc_composes_nothing_across_a_cut(self, x):
        assert composes_with(x) == set()

    def test_nfc_trial_finds_the_characters_left_out(self):
        # each composes with a combining long solidus overlay, as in ≮
        for x in "<=>":
            assert composes_with(x) == {"\u0338"}

    def test_final_sigma_rule_looks_across_no_cut(self):
        assert [x for x in CUTS if sigma_looks_across(x)] == []
        # case-ignorable, so left out
        assert all(map(sigma_looks_across, ".:'"))

    @pytest.mark.parametrize("x", CUTS, ids=lambda x: f"U+{ord(x):04X}")
    def test_cut_characters_separate_words(self, x):
        assert normalize(x) == x and not x.isalpha()
        assert tokenize(f"Olma{x}nok").tokens == ("olma", "nok")


# Text without ASCII whitespace, so that `_pieces` cuts only at separators:
# every cut separator and the ASCII punctuation left out of the cut set,
# the sigmas, characters that compose or lower with a neighbour (combining
# acute, dot above and long solidus overlay, İ), every apostrophe variant,
# Cyrillic and non-ASCII whitespace.
UNSPACED_UNITS = (
    list("aeoOΣσςİМактабё") + list(tokenizer._SEPARATOR_CUTS) + list(".:<=>-/")
    + ["\u0301", "\u0307", "\u0338"] + APOSTROPHE_VARIANTS + ["\u2028", "\u3000"]
)
UNSPACED_TEXT = st.lists(st.sampled_from(UNSPACED_UNITS), max_size=120).map("".join)


class TestSeparatorCuts:
    # a block without ASCII space, TAB, LF or CR is cut after a separator
    @given(UNSPACED_TEXT, st.integers(1, 64), st.lists(st.integers(0, 120), max_size=12))
    @example("αΣ,β\u0301Σ.Σ(α'Σ)<\u0338 oʻ1ʻzbek", 3, [5, 9, 9, 17])
    def test_blocks_of_any_size_count_as_the_whole_text(self, raw, size, cuts):
        expected = Counter(tokenize(raw).tokens)
        with mock.patch.object(tokenizer, "_PIECE", size):
            assert count_terms(raw) == expected
        bounds = [0, *sorted(cuts), len(raw)]
        blocks = [raw[a:b] for a, b in zip(bounds, bounds[1:])]
        pieces = list(tokenizer._pieces(blocks))
        assert "".join(pieces) == raw
        assert all(piece[-1] in CUTS for piece in pieces[:-1])
        assert count_terms(iter(blocks)) == expected

    @pytest.mark.parametrize(
        ("given_as", "joiner"),
        [("str", ","), ("blocks", ","), ("str", " "), ("blocks", " ")],
        ids=["str", "blocks", "str-spaced", "blocks-spaced"],
    )
    def test_comma_separated_text_counts_in_bounded_memory(self, given_as, joiner):
        # 3.6 million characters (7.2 MB), joined by commas with no
        # whitespace or by spaces: held whole, its normalized copies and
        # word list would peak at 72 MB. Counted in pieces, it peaks at
        # 0.38 MB as a `str` and 0.10 MB in blocks (CPython 3.11).
        raw = joiner.join(["Olma", "nok", "мактаб", "Oʻzbek", "gʻoʻza", "kitob"] * 100_000)
        text = raw if given_as == "str" else (raw[i : i + 4096] for i in range(0, len(raw), 4096))
        tracemalloc.start()
        try:
            counts = count_terms(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == {w: 100_000 for w in ["olma", "nok", "мактаб", "oʻzbek", "gʻoʻza", "kitob"]}
        assert peak < 1_000_000
