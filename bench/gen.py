"""Seeded synthetic corpus and queries shaped like the published School corpus.

The School corpus cannot be redistributed, so the benchmark generates a
stand-in from a seed: four grade documents whose token totals match the
published ones exactly and whose distinct-word counts land within about
1% of them. The text is for speed measurement only; it says nothing
about classification accuracy.

Words are drawn from a Zipf law over a seeded lexicon of pseudo-Uzbek
Latin words, with about 2% of the sentences drawn from a pseudo-Uzbek
Cyrillic lexicon. Each grade has its own exponent, fitted so that the
expected distinct count at the grade's token total matches the published
one. Rendering exercises the tokenizer: all six apostrophe variants,
capitals, digits glued to words, punctuation and quotes. Every document
and query keeps its ground-truth token list, so the checker needs no
tokenizer.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

GRADES = (1, 2, 3, 4)

# Published per-grade sizes, the same numbers as EXPECTED_TOTAL and
# EXPECTED_UNIQUE in tests/test_acceptance.py.
EXPECTED_TOTAL = {1: 24107, 2: 56650, 3: 90225, 4: 109024}
EXPECTED_UNIQUE = {1: 7978, 2: 14858, 3: 21124, 4: 24736}

LATIN_WORDS = 60_000
CYRILLIC_WORDS = 6_000
# Words past the Zipf range: never in the corpus, so a query holding
# one cannot be decided by containment.
RESERVED_WORDS = 2_000
CYRILLIC_SHARE = 0.02
CYRILLIC_EXPONENT = 1.0
# Fitted by bisection on sum(1 - (1 - p_r) ** total) over both lexicons.
EXPONENT = {1: 1.00361, 2: 1.00002, 3: 0.98386, 4: 0.9683}
FILES_PER_GRADE = 3
UNIQUE_TOLERANCE = 0.015

APOSTROPHE = "ʻ"
APOSTROPHE_VARIANTS = ("'", "‘", "’", "ʻ", "ʼ", "`")

_LATIN = (
    ("b", "ch", "d", "f", "g", "gʻ", "h", "j", "k", "l", "m", "n", "p", "q", "r", "s",
     "sh", "t", "v", "x", "y", "z", ""),
    ("a", "e", "i", "o", "u", "oʻ"),
    ("", "", "", "", "n", "r", "l", "m", "s", "k", "t", "sh", "q", "z", "ng", "b", "d"),
)
_CYRILLIC = (
    ("б", "в", "г", "д", "ж", "з", "й", "к", "л", "м", "н", "п", "р", "с", "т", "ф",
     "х", "ч", "ш", "қ", "ғ", "ҳ", ""),
    ("а", "е", "и", "о", "у", "ў", "э", "я", "ю"),
    ("", "", "", "н", "р", "л", "м", "с", "к", "т", "ш", "қ"),
)
_END = (".", ".", ".", ".", "!", "?", "…", "...")
_QUOTES = (("«", "»"), ("“", "”"), ("'", "'"), ("‘", "’"), ("`", "`"), ('"', '"'))
_GOLDEN = (math.sqrt(5) - 1) / 2


def _lexicon(rng: random.Random, letters, count: int) -> list[str]:
    """`count` distinct words, shorter words first, as frequent words are."""
    onsets, vowels, codas = letters
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < count:
        syllables = rng.choices((1, 2, 3, 4), weights=(2, 5, 4, 2))[0]
        parts = []
        for i in range(syllables):
            vowel = rng.choice(vowels)
            coda = rng.choice(codas)
            if i == syllables - 1 and vowel.endswith(APOSTROPHE) and not coda:
                # a trailing apostrophe is stripped by the tokenizer
                coda = "n"
            parts.append(rng.choice(onsets) + vowel + coda)
        word = "".join(parts)
        if len(word) > 1 and word not in seen:
            seen.add(word)
            words.append(word)
    words.sort(key=len)
    return words


def _cumulative(count: int, exponent: float) -> list[float]:
    return list(itertools.accumulate(r ** -exponent for r in range(1, count + 1)))


def _lengths(rng: random.Random, count: int, low: int, high: int, mode: int) -> list[int]:
    """`count` query lengths from a triangular law, at quantiles that step
    by the golden ratio from a seeded start. Every prefix of the list,
    whatever the seed, then spreads evenly over the law, so a run that
    gets through n queries meets the same mix of lengths on every seed."""
    start = rng.random()
    c = (mode - low) / (high - low)
    out = []
    for i in range(count):
        u = (start + i * _GOLDEN) % 1.0
        if u < c:
            length = low + math.sqrt(u * (high - low) * (mode - low))
        else:
            length = high - math.sqrt((1 - u) * (high - low) * (high - mode))
        out.append(round(length))
    return out


@dataclass(frozen=True)
class Document:
    """Rendered text and the tokens textgrade must find in it."""

    text: str
    tokens: list[str]


class Generator:
    """Renders seeded sentences over the shared lexicons."""

    def __init__(self, seed: int) -> None:
        lex_rng = random.Random(f"textgrade-bench-lexicon-{seed}")
        latin = _lexicon(lex_rng, _LATIN, LATIN_WORDS + RESERVED_WORDS)
        cyrillic = _lexicon(lex_rng, _CYRILLIC, CYRILLIC_WORDS + RESERVED_WORDS)
        self.latin, self.reserved = latin[:LATIN_WORDS], latin[LATIN_WORDS:]
        self.cyrillic = cyrillic[:CYRILLIC_WORDS]
        self.reserved_cyrillic = cyrillic[CYRILLIC_WORDS:]
        self._latin_cum = {g: _cumulative(LATIN_WORDS, EXPONENT[g]) for g in GRADES}
        self._cyrillic_cum = _cumulative(CYRILLIC_WORDS, CYRILLIC_EXPONENT)
        self.seed = seed

    # --- word streams -------------------------------------------------------

    def _sentence_tokens(self, rng: random.Random, grade: int, cyrillic_share: float) -> list[str]:
        length = rng.randint(4, 18)
        if rng.random() < cyrillic_share:
            return rng.choices(self.cyrillic, cum_weights=self._cyrillic_cum, k=length)
        return rng.choices(self.latin, cum_weights=self._latin_cum[grade], k=length)

    def _sentences(self, rng: random.Random, grade: int, total: int, cyrillic_share: float):
        """Sentences of the grade's distribution holding exactly `total` tokens."""
        out = []
        left = total
        while left > 0:
            tokens = self._sentence_tokens(rng, grade, cyrillic_share)[:left]
            left -= len(tokens)
            out.append(tokens)
        return out

    # --- rendering --------------------------------------------------------------

    @staticmethod
    def _surface(rng: random.Random, token: str, first: bool) -> str:
        if APOSTROPHE in token:
            token = token.replace(APOSTROPHE, rng.choice(APOSTROPHE_VARIANTS))
        roll = rng.random()
        if first or roll < 0.04:
            return token[0].upper() + token[1:]
        if roll < 0.05:
            return token.upper()
        return token

    def render(self, rng: random.Random, sentences: list[list[str]]) -> str:
        """Text whose tokenization is exactly the concatenated sentences."""
        parts: list[str] = []
        for tokens in sentences:
            words = [self._surface(rng, t, j == 0) for j, t in enumerate(tokens)]
            for j in range(1, len(words)):
                roll = rng.random()
                if roll < 0.07:
                    words[j - 1] += ","
                elif roll < 0.09:
                    words[j] = f"{rng.randint(1, 2024)}-{words[j]}"
                elif roll < 0.10:
                    words[j - 1] += f" {rng.randint(0, 999)}"
                elif roll < 0.11:
                    words[j - 1] += " —"
            if len(words) > 3 and rng.random() < 0.06:
                a = rng.randrange(len(words) - 2)
                b = rng.randrange(a + 1, len(words))
                left, right = rng.choice(_QUOTES)
                words[a] = left + words[a]
                words[b] += right
            parts.append(" ".join(words) + rng.choice(_END))
            parts.append("\n\n" if rng.random() < 0.15 else " ")
        return "".join(parts)

    # --- corpus and queries -----------------------------------------------------

    def corpus(self) -> dict[int, list[Document]]:
        """Per grade, FILES_PER_GRADE documents with the published token
        total and a distinct count within UNIQUE_TOLERANCE of the
        published one (a grade is redrawn in the rare case it is not)."""
        return {grade: self._grade_documents(grade) for grade in GRADES}

    def _grade_documents(self, grade: int) -> list[Document]:
        total = EXPECTED_TOTAL[grade]
        for attempt in itertools.count():
            rng = random.Random(f"textgrade-bench-corpus-{self.seed}-{grade}-{attempt}")
            cuts = sorted(rng.sample(range(1, total), FILES_PER_GRADE - 1))
            docs = []
            for a, b in zip([0] + cuts, cuts + [total]):
                sentences = self._sentences(rng, grade, b - a, CYRILLIC_SHARE)
                docs.append(Document(self.render(rng, sentences), [t for s in sentences for t in s]))
            unique = len({t for d in docs for t in d.tokens})
            if abs(unique - EXPECTED_UNIQUE[grade]) <= UNIQUE_TOLERANCE * EXPECTED_UNIQUE[grade]:
                return docs

    def batch_queries(self, corpus: dict[int, list[Document]], count: int, salt: str) -> list[Document]:
        """Queries of 50-1,000 tokens (median about 400).

        Every fourth is a passage of one grade's text, so containment
        decides it; the rest are Zipf draws holding one reserved word,
        so cosine decides them.
        """
        rng = random.Random(f"textgrade-bench-batch-{salt}-{self.seed}")
        streams = {g: [t for d in corpus[g] for t in d.tokens] for g in GRADES}
        out = []
        for i, length in enumerate(_lengths(rng, count, 50, 1000, 250)):
            grade = rng.choice(GRADES)
            if i % 4 == 0:
                stream = streams[grade]
                start = rng.randrange(len(stream) - length)
                tokens = stream[start:start + length]
                sentences = [tokens[k:k + 12] for k in range(0, length, 12)]
            else:
                sentences = self._sentences(rng, grade, length - 1, 0.0)
                sentences[-1].append(rng.choice(self.reserved))
            text = self.render(rng, sentences)
            out.append(Document(text, [t for s in sentences for t in s]))
        return out

    def long_queries(self, count: int, salt: str) -> list[Document]:
        """Queries of 10k-50k tokens (median about 22k) mixing Latin text
        with Cyrillic passages that include reserved words."""
        rng = random.Random(f"textgrade-bench-long-{salt}-{self.seed}")
        cyr_cum = _cumulative(CYRILLIC_WORDS + RESERVED_WORDS, CYRILLIC_EXPONENT)
        cyr_words = self.cyrillic + self.reserved_cyrillic
        out = []
        for length in _lengths(rng, count, 10_000, 50_000, 10_000):
            sentences: list[list[str]] = []
            left = length
            while left > 0:
                if rng.random() < 0.1:
                    passage = rng.randint(20, 200)
                    tokens = rng.choices(cyr_words, cum_weights=cyr_cum, k=min(passage, left))
                    sentences.extend(tokens[k:k + 10] for k in range(0, len(tokens), 10))
                    left -= len(tokens)
                else:
                    run = min(rng.randint(40, 400), left)
                    sentences.extend(self._sentences(rng, 4, run, 0.0))
                    left -= run
            text = self.render(rng, sentences)
            out.append(Document(text, [t for s in sentences for t in s]))
        return out


def write_corpus(corpus: dict[int, list[Document]], directory: Path) -> Path:
    """Write the grade files and a manifest; return the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["# synthetic School-sized corpus", ""]
    for grade in GRADES:
        for k, doc in enumerate(corpus[grade], start=1):
            name = f"grade-{grade}-book-{k}.txt"
            (directory / name).write_text(doc.text, encoding="utf-8")
            lines.append(f"{grade}\t{name}")
    manifest = directory / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def corpus_stats(corpus: dict[int, list[Document]]) -> dict:
    """Ground-truth totals and distinct counts, with the deviation from
    the published sizes in percent."""
    vocab = {g: {t for d in corpus[g] for t in d.tokens} for g in GRADES}
    total = {g: sum(len(d.tokens) for d in corpus[g]) for g in GRADES}
    unique = {g: len(vocab[g]) for g in GRADES}
    return {
        "total_tokens": total,
        "unique_tokens": unique,
        "overall_unique": len(set().union(*vocab.values())),
        "unique_dev_pct": {
            g: round(100 * (unique[g] - EXPECTED_UNIQUE[g]) / EXPECTED_UNIQUE[g], 2) for g in GRADES
        },
        "total_dev_pct": {
            g: round(100 * (total[g] - EXPECTED_TOTAL[g]) / EXPECTED_TOTAL[g], 2) for g in GRADES
        },
    }
