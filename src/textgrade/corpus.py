"""Graded reference corpus: manifest loading, class documents, statistics.

The corpus is four logical documents, one per school grade 1-4, each the
concatenation of that grade's plain-text files as listed in a manifest.
A manifest is UTF-8 text, with or without a byte-order mark, holding
one `<grade><TAB><path>` entry per line; blank lines and lines starting
with '#' are ignored. Relative paths are resolved against the manifest's
directory.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from .errors import (
    EmptyClassError,
    GradeRangeError,
    IncompleteCorpusError,
    ManifestError,
)
from .tokenizer import TokenSequence, concat, tokenize

GRADES = (1, 2, 3, 4)


def square_sums(doc: TokenSequence, df: Mapping[str, int], n: int) -> tuple[int, ...]:
    """Sums of the squared counts of `doc`'s terms, indexed by df = 0..n."""
    sums = [0] * (n + 1)
    for term, count in doc.counts.items():
        sums[df[term]] += count * count
    return tuple(sums)


@dataclass(frozen=True)
class Vocabulary:
    """Distinct terms of a document in ascending code-point order."""

    terms: tuple[str, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.terms, self.terms[1:]):
            if a >= b:
                raise ValueError(f"vocabulary not strictly ascending at {a!r}, {b!r}")

    @classmethod
    def from_tokens(cls, seq: TokenSequence) -> "Vocabulary":
        return cls(tuple(sorted(seq.types)))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[str]:
        return iter(self.terms)


@dataclass(frozen=True)
class ClassDocument:
    """One grade's concatenated text."""

    grade: int
    tokens: TokenSequence

    @classmethod
    def from_tokens(cls, grade: int, seq: TokenSequence) -> "ClassDocument":
        return cls(grade, seq)


@dataclass(frozen=True)
class CorpusStats:
    """Token and type counts per grade plus the cross-grade type count."""

    total_tokens: dict[int, int]
    unique_tokens: dict[int, int]
    overall_unique: int


@dataclass(frozen=True)
class CorpusManifest:
    """Validated (grade, path) entries; every grade 1-4 appears."""

    entries: tuple[tuple[int, Path], ...]


@dataclass(frozen=True)
class GradedCorpus:
    """Immutable index of the four class documents. Treat as read-only;
    safe to share among concurrent readers.

    Besides each grade's term counts and token total (`classes[g].tokens`),
    it holds what scoring needs from the corpus alone: `df4`, the number
    of grades containing each term, and `squares4`, per grade the sums
    of its terms' squared counts indexed by df4. All of it is integers,
    so it holds no IDF; scoring weighs it under N = 4 or 5.
    """

    classes: dict[int, ClassDocument]
    stats: CorpusStats
    df4: Counter[str]
    squares4: dict[int, tuple[int, ...]]

    @classmethod
    def from_token_sequences(cls, sequences: Mapping[int, TokenSequence]) -> "GradedCorpus":
        """Build a corpus directly from per-grade token sequences."""
        if set(sequences) != set(GRADES):
            raise ValueError(f"grades must be exactly {set(GRADES)}, got {set(sequences)}")
        classes = {}
        for grade in GRADES:
            seq = sequences[grade]
            if not seq:
                raise EmptyClassError(f"grade {grade} has no tokens")
            classes[grade] = ClassDocument.from_tokens(grade, seq)
        df4: Counter[str] = Counter()
        for doc in classes.values():
            df4.update(doc.tokens.types)
        squares4 = {grade: square_sums(doc.tokens, df4, len(GRADES)) for grade, doc in classes.items()}
        stats = CorpusStats(
            total_tokens={g: len(classes[g].tokens) for g in GRADES},
            unique_tokens={g: len(classes[g].tokens.types) for g in GRADES},
            overall_unique=len(df4),
        )
        return cls(classes, stats, df4, squares4)


def read_text(path: Path, encoding: str = "utf-8") -> str:
    """Read a text file; a decoding error names the file in its reason."""
    try:
        return path.read_text(encoding=encoding)
    except UnicodeDecodeError as exc:
        raise UnicodeDecodeError(
            exc.encoding, exc.object, exc.start, exc.end, f"{exc.reason} in {path}"
        ) from None


def load_manifest(path: str | Path) -> CorpusManifest:
    """Parse a manifest file into validated entries.

    Raises ManifestError on malformed lines (with the line number),
    GradeRangeError on grades outside 1-4, and IncompleteCorpusError
    when some grade has no entry.
    """
    path = Path(path)
    base = path.parent
    entries: list[tuple[int, Path]] = []
    seen: set[tuple[int, Path]] = set()
    for lineno, line in enumerate(read_text(path, "utf-8-sig").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split("\t")
        if len(fields) != 2 or not fields[1]:
            raise ManifestError(f"{path}:{lineno}: expected '<grade><TAB><path>', got {line!r}")
        if "\0" in fields[1]:
            raise ManifestError(f"{path}:{lineno}: path holds a NUL byte: {fields[1]!r}")
        try:
            grade = int(fields[0])
        except ValueError:
            raise ManifestError(f"{path}:{lineno}: grade is not an integer: {fields[0]!r}") from None
        if grade not in GRADES:
            raise GradeRangeError(f"{path}:{lineno}: grade {grade} outside 1-4")
        entry_path = Path(fields[1])
        if not entry_path.is_absolute():
            entry_path = base / entry_path
        entry = (grade, entry_path)
        if entry in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate entry {grade}\t{fields[1]}")
        seen.add(entry)
        entries.append(entry)
    missing = [g for g in GRADES if g not in {grade for grade, _ in entries}]
    if missing:
        raise IncompleteCorpusError(f"{path}: no files for grade(s) {', '.join(map(str, missing))}")
    return CorpusManifest(tuple(entries))


def build_corpus(manifest: CorpusManifest) -> GradedCorpus:
    """Tokenize every manifest file and assemble the per-grade documents.

    Files of one grade are concatenated in manifest order. Unreadable
    files raise OSError and files that are not UTF-8 raise
    UnicodeDecodeError, both naming the path; a grade whose
    concatenation has no tokens raises EmptyClassError.
    """
    sequences: dict[int, TokenSequence] = {}
    for grade in GRADES:
        parts = [
            tokenize(read_text(entry_path))
            for entry_grade, entry_path in manifest.entries
            if entry_grade == grade
        ]
        sequences[grade] = concat(parts)
    return GradedCorpus.from_token_sequences(sequences)
