"""Normalization and tokenization for Uzbek Latin-script text.

Uzbek orthography spells the letters oʻ and gʻ with an apostrophe-like
modifier, officially U+02BB, but real-world text mixes half a dozen
lookalikes (ASCII quote, curly quotes, backtick, U+02BC). Everything
apostrophe-like is unified to U+02BB before splitting, so words such as
oʻzbek and gʻoʻza survive tokenization as single tokens.

Cyrillic input is split by the same letter-run rule; no transliteration
is attempted.
"""

from __future__ import annotations

import itertools
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

CANONICAL_APOSTROPHE = "ʻ"

# one str.replace per variant is much faster than str.translate on non-ASCII text
_OTHER_APOSTROPHES = "'‘’ʼ`"

# Word-character runs. U+02BB carries category Lm (a letter), so
# apostrophe-bearing words stay in one run; decimal digits, underscore,
# and all punctuation split.
_WORD_RUN = re.compile(r"[^\W\d_]+")


def _letter_pieces(run: str) -> Iterator[str]:
    if run.isalpha():
        yield run
        return
    # \w also admits numeric "letters" (Nl, No) such as Ⅳ or ¼; those are
    # separators here, only true letters survive
    for is_letter, group in itertools.groupby(run, key=str.isalpha):
        if is_letter:
            yield "".join(group)


@dataclass(frozen=True)
class TokenSequence:
    """Ordered tokens of one document plus the raw character count."""

    tokens: tuple[str, ...]
    source_len: int

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def __bool__(self) -> bool:
        return bool(self.tokens)

    @cached_property
    def counts(self) -> Counter[str]:
        """Occurrences per term."""
        return Counter(self.tokens)

    @cached_property
    def types(self) -> frozenset[str]:
        """The distinct terms (the document's bag-of-words)."""
        return frozenset(self.counts)


def normalize(raw: str) -> str:
    """Canonically compose, lowercase, and unify apostrophes.

    All of U+0027, U+2018, U+2019, U+02BB, U+02BC, U+0060 map to the
    canonical U+02BB. Lowercasing can denormalize a composed string in
    rare cases, so composition is applied again afterwards.
    """
    text = unicodedata.normalize("NFC", raw)
    text = unicodedata.normalize("NFC", text.lower())
    for variant in _OTHER_APOSTROPHES:
        text = text.replace(variant, CANONICAL_APOSTROPHE)
    return text


def tokenize(raw: str) -> TokenSequence:
    """Split text into normalized tokens.

    Tokens are maximal runs of letters (including the canonical
    apostrophe) in `normalize(raw)`, with leading and trailing
    apostrophes stripped from each run. Digits, punctuation, and symbols
    separate tokens and are discarded. Order and duplicates are kept.
    """
    tokens = []
    for run in _WORD_RUN.findall(normalize(raw)):
        for piece in _letter_pieces(run):
            term = piece.strip(CANONICAL_APOSTROPHE)
            if term:
                tokens.append(term)
    return TokenSequence(tuple(tokens), len(raw))


def concat(sequences: Iterable[TokenSequence]) -> TokenSequence:
    """Concatenate token sequences, summing their source lengths."""
    tokens: list[str] = []
    source_len = 0
    for seq in sequences:
        tokens.extend(seq.tokens)
        source_len += seq.source_len
    return TokenSequence(tuple(tokens), source_len)
