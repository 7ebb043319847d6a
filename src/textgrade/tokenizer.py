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

import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

CANONICAL_APOSTROPHE = "ʻ"

# one str.replace per variant is much faster than str.translate on non-ASCII text
_OTHER_APOSTROPHES = "'‘’ʼ`"

# Above this many distinct separators in one text, one str.translate pass
# replaces them all instead of one str.replace pass each, so adversarial
# input cannot make tokenizing quadratic. A translate pass over non-ASCII
# text costs about as much as 450 replace passes (200k characters,
# CPython 3.11 on x86-64). Pure-ASCII text has too few distinct
# characters to reach the limit.
_REPLACE_LIMIT = 256


@dataclass(frozen=True)
class TokenSequence:
    """Ordered tokens of one document."""

    tokens: tuple[str, ...]

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

    Tokens are maximal runs of letters (`str.isalpha`, which includes
    the canonical apostrophe) in `normalize(raw)`, with leading and
    trailing apostrophes stripped from each run. Whitespace and every
    other character (digits, numerics such as ¼ or Ⅳ, punctuation,
    symbols) separate tokens and are discarded. Order and duplicates are
    kept.
    """
    text = normalize(raw)
    separators = [ch for ch in set(text) if not (ch.isalpha() or ch.isspace())]
    if len(separators) > _REPLACE_LIMIT:
        text = text.translate(dict.fromkeys(map(ord, separators), " "))
    else:
        for ch in separators:
            text = text.replace(ch, " ")
    tokens = tuple([term for run in text.split() if (term := run.strip(CANONICAL_APOSTROPHE))])
    return TokenSequence(tokens)


def concat(sequences: Iterable[TokenSequence]) -> TokenSequence:
    """Concatenate token sequences."""
    tokens: list[str] = []
    for seq in sequences:
        tokens.extend(seq.tokens)
    return TokenSequence(tuple(tokens))
