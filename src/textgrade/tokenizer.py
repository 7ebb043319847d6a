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
from collections import Counter, _count_elements
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import islice, repeat

from .record import Record

CANONICAL_APOSTROPHE = "ʻ"

# one str.replace per variant is much faster than str.translate on non-ASCII text
_OTHER_APOSTROPHES = "'‘’ʼ`"

# Above this many distinct non-ASCII separators in one text, one
# str.translate pass replaces them all instead of one str.replace pass
# each, so adversarial input cannot make tokenizing quadratic. A
# translate pass over non-ASCII text costs about as much as 450 replace
# passes (200k characters, CPython 3.11 on x86-64). ASCII separators
# never reach the limit: `_ASCII_SEPARATOR_TABLE` replaces them all in
# one pass over the bytes.
_REPLACE_LIMIT = 256

# A long `str` is counted in pieces cut from blocks of this many
# characters (`_pieces`), so that counting it holds the normalized copies
# and the word list of one piece at a time, not of the whole text. It
# equals `corpus._BLOCK`, the 16 KiB a file is read in, so a text given
# as a `str` is held in pieces no larger than the same text read from a
# file; a larger piece only holds more and counts no faster.
_PIECE = 1 << 14

# Where `_pieces` cuts a block: after its last ASCII space, TAB, LF or CR,
# or, in a block with none of those, after its last character of
# `_SEPARATOR_CUTS`. Each of these is a separator that NFC composes with
# no neighbour and that the final-sigma rule of `str.lower` does not look
# across (not case-ignorable), so a cut after one changes no token. Some
# other ASCII punctuation fails one of the two: `<`, `=` and `>` compose
# with U+0338, and `.`, `:` and `'` are case-ignorable.
_WHITESPACE_CUTS = " \t\n\r"
_SEPARATOR_CUTS = ',;!?()[]{}"0123456789'

# A byte table that maps every ASCII byte but the letters to a space and
# leaves the bytes of non-ASCII characters (0x80 and up) as they are, so
# one pass over a text's UTF-8 bytes removes its ASCII separators.
_ASCII_SEPARATOR_TABLE = bytes(
    c if c >= 0x80 or chr(c).isalpha() else 0x20 for c in range(256)
)
_ASCII_BYTES = bytes(range(0x80))


class TokenSequence(Record):
    """Ordered tokens of one document."""

    __slots__ = ("tokens", "__dict__")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

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


def _words(raw: str) -> list[str]:
    """The letter runs of `normalize(raw)`, edge apostrophes not yet stripped.

    Every distinct character that is neither a letter nor whitespace is
    replaced by a space, then the text is split on whitespace. ASCII
    characters are replaced in one pass over the UTF-8 bytes
    (`_ASCII_SEPARATOR_TABLE`), and the other separators are looked for
    only among the characters left when every ASCII byte is deleted.
    Replacing or deleting bytes below 0x80 splits no UTF-8 sequence, and
    "surrogatepass" carries lone surrogates through, so both decode to
    the same characters in order.
    """
    data = normalize(raw).encode("utf-8", "surrogatepass").translate(_ASCII_SEPARATOR_TABLE)
    text = data.decode("utf-8", "surrogatepass")
    rest = data.translate(None, _ASCII_BYTES).decode("utf-8", "surrogatepass")
    separators = [ch for ch in set(rest) if not (ch.isalpha() or ch.isspace())]
    if len(separators) > _REPLACE_LIMIT:
        text = text.translate(dict.fromkeys(map(ord, separators), " "))
    else:
        for ch in separators:
            text = text.replace(ch, " ")
    return text.split()


def tokenize(raw: str) -> TokenSequence:
    """Split text into normalized tokens.

    Tokens are maximal runs of letters (`str.isalpha`, which includes
    the canonical apostrophe) in `normalize(raw)`, with leading and
    trailing apostrophes stripped from each run. Whitespace and every
    other character (digits, numerics such as ¼ or Ⅳ, punctuation,
    symbols) separate tokens and are discarded. Order and duplicates are
    kept.
    """
    tokens = filter(None, map(str.strip, _words(raw), repeat(CANONICAL_APOSTROPHE)))
    return TokenSequence(tuple(tokens))


def _pieces(blocks: Iterable[str]) -> Iterator[str]:
    """The concatenation of `blocks`, in pieces that each end just after
    the last cut point of a block (`_WHITESPACE_CUTS`, else
    `_SEPARATOR_CUTS`), or at the end of the text.

    A piece is the rest of one block and the head of the next, unless
    blocks without a cut point come between: those are held and joined
    once, so a text without one, such as a single long word, is one
    piece. Counting the pieces one by one counts the whole text, because
    a cut after one of those characters changes no token.
    """
    held: list[str] = []
    for block in blocks:
        cut = max(map(block.rfind, _WHITESPACE_CUTS)) + 1
        if not cut:
            cut = max(map(block.rfind, _SEPARATOR_CUTS)) + 1
        if cut:
            held.append(block[:cut])
            yield "".join(held)
            held = [block[cut:]]
        else:
            held.append(block)
    yield "".join(held)


def count_terms(text: str | Iterable[str], counts: dict[str, int] | None = None) -> dict[str, int]:
    """Count each token of `text`, a `str` or an iterable of `str` blocks
    that concatenate to it, such as a file being decoded, into `counts`,
    a `dict` or `Counter` (a new `Counter` if none is given), and return it.

    Adds what `Counter(tokenize(text).tokens)` holds, without building
    a token tuple: every text given in blocks is counted in pieces
    (`_pieces`), and so is a `str` longer than `_PIECE` (16,384)
    characters, cut into blocks of that size as a file is read, so that
    counting holds one piece at a time either way. The letter runs of each
    piece are counted as they are, then only the keys this call added
    that have an edge apostrophe are stripped and merged, so a key
    string `counts` already holds is reused and never stored twice.
    `counts` must hold no key with an edge apostrophe.

    So a term new to `counts` is keyed where its bare form first occurs
    in the text, and a term the text holds only with an edge apostrophe
    after every other new term, in the order its edged forms first occur.
    """
    if not isinstance(text, str):
        pieces = _pieces(text)
    elif len(text) > _PIECE:
        pieces = _pieces(text[i : i + _PIECE] for i in range(0, len(text), _PIECE))
    else:
        pieces = (text,)
    if counts is None:
        counts = Counter()
    known = len(counts)
    for piece in pieces:
        # the C loop of Counter.update, which fills a plain dict alike
        _count_elements(counts, _words(piece))
    edged = [
        w
        for w in islice(counts, known, None)
        if w[0] == CANONICAL_APOSTROPHE or w[-1] == CANONICAL_APOSTROPHE
    ]
    for word in edged:
        n = counts.pop(word)
        term = word.strip(CANONICAL_APOSTROPHE)
        if term:
            counts[term] = counts.get(term, 0) + n
    return counts
