"""Graded reference corpus: manifest loading, class documents, statistics.

The corpus is four logical documents, one per school grade 1-4, each the
concatenation of that grade's plain-text files as listed in a manifest.
A manifest is UTF-8 text, with or without a byte-order mark, holding
one `<grade><TAB><path>` entry per line, ending at LF, CR or CRLF only;
blank lines and lines starting with '#' are ignored. Relative paths are
resolved against the manifest's directory. Every file, the manifest and
a classified `--input` included, is read in blocks by `read_blocks`.
"""

from __future__ import annotations

import codecs
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from itertools import chain, repeat, tee
from pathlib import Path

from .errors import (
    EmptyClassError,
    GradeRangeError,
    IncompleteCorpusError,
    ManifestError,
)
from .record import Record
from .tokenizer import TokenSequence, count_terms

GRADES = (1, 2, 3, 4)

# Files are read in binary blocks of this many bytes and decoded one
# block at a time, so that counting never holds a whole file.
_BLOCK = 1 << 16


class Vocabulary(Record):
    """Distinct terms of a document in ascending code-point order."""

    __slots__ = ("terms",)

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


class ClassDocument(Record):
    """One grade's concatenated text."""

    __slots__ = ("grade", "tokens")

    @classmethod
    def from_tokens(cls, grade: int, seq: TokenSequence) -> "ClassDocument":
        return cls(grade, seq)


class CorpusStats(Record):
    """Token and type counts per grade plus the cross-grade type count."""

    __slots__ = ("total_tokens", "unique_tokens", "overall_unique")


class CorpusManifest(Record):
    """Validated (grade, path) entries; every grade 1-4 appears."""

    __slots__ = ("entries",)


def corpus_stats(counts: Mapping[int, Counter[str]]) -> tuple[CorpusStats, Counter[str]]:
    """The statistics of each grade's term counts, and each term's
    document frequency (the number of grades holding it) in first-seen
    order, grade by grade.

    Raises ValueError unless the grades are exactly 1-4, and
    EmptyClassError(grade) for a grade without tokens.
    """
    if set(counts) != set(GRADES):
        raise ValueError(f"grades must be exactly {set(GRADES)}, got {set(counts)}")
    for grade in GRADES:
        if not counts[grade]:
            raise EmptyClassError(grade)
    df = Counter(chain(*(counts[g] for g in GRADES)))
    stats = CorpusStats(
        total_tokens={g: sum(counts[g].values()) for g in GRADES},
        unique_tokens={g: len(counts[g]) for g in GRADES},
        overall_unique=len(df),
    )
    return stats, df


class GradedCorpus(Record):
    """Immutable index of the four class documents. Treat as read-only;
    safe to share among concurrent readers.

    It holds what scoring needs from the corpus and nothing else: `terms`
    maps each corpus term, in first-seen order, to its row
    `(df4, c1, c2, c3, c4)`, where df4 is the number of grades holding
    the term and `row[g]` its count in grade g, 0 where g lacks it; terms
    with equal rows share one tuple. `squares4` holds, per grade, the
    sums of its terms' squared counts indexed by df4, and `stats` each
    grade's token total and distinct-term count. No token order is kept:
    TF-IDF reads none. All of it is integers, so it holds no IDF;
    scoring weighs it under N = 4 or 5.
    """

    __slots__ = ("stats", "terms", "squares4", "__dict__")

    @classmethod
    def from_counts(cls, counts: Mapping[int, Counter[str]]) -> "GradedCorpus":
        """Build a corpus from each grade's term counts, keeping only its index."""
        stats, df = corpus_stats(counts)
        columns = (map(counts[g].get, df, repeat(0)) for g in GRADES)
        # equal rows share one tuple (`setdefault` of each row to itself):
        # many terms have equal rows, so this keeps the index small
        rows: dict[tuple[int, ...], tuple[int, ...]] = {}
        terms = dict(zip(df, map(rows.setdefault, *tee(zip(df.values(), *columns)))))
        sums = [[0] * (len(GRADES) + 1) for _ in GRADES]
        s1, s2, s3, s4 = sums
        for (df4, a, b, c, d), k in cls.row_counts(terms).items():
            s1[df4] += k * a * a
            s2[df4] += k * b * b
            s3[df4] += k * c * c
            s4[df4] += k * d * d
        return cls(stats, terms, dict(zip(GRADES, map(tuple, sums))))

    @staticmethod
    def row_counts(terms: Mapping[str, tuple[int, ...]]) -> Counter[tuple[int, ...]]:
        """Each distinct row of `terms` with the number k of terms holding it,
        counted on each call and never kept. Few rows are distinct, so a sum
        over the terms weighs each distinct row once, times k."""
        return Counter(terms.values())

    @classmethod
    def from_token_sequences(cls, sequences: Mapping[int, TokenSequence]) -> "GradedCorpus":
        """Build a corpus from per-grade token sequences; only their counts are kept."""
        return cls.from_counts({g: seq.counts for g, seq in sequences.items()})

    @cached_property
    def classes(self) -> dict[int, ClassDocument]:
        """Each grade as a class document rebuilt from the rows on first read,
        tokens grouped by term in row order; scoring never reads it."""
        classes = {}
        for grade in GRADES:
            # each term the grade holds, repeated by its count, in row order
            runs = (repeat(term, row[grade]) for term, row in self.terms.items())
            classes[grade] = ClassDocument(grade, TokenSequence(tuple(chain.from_iterable(runs))))
        return classes


class _FileDecodeError(UnicodeDecodeError):
    """A decoding error whose `start` and `end` are offsets in a file, and
    whose `object` holds only the undecodable bytes, not the whole file.
    The message is the one the codec gives when it decodes the file whole.
    """

    def __str__(self) -> str:
        if self.end - self.start == 1:
            where = f"byte 0x{self.object[0]:02x} in position {self.start}"
        else:
            where = f"bytes in position {self.start}-{self.end - 1}"
        return f"'{self.encoding}' codec can't decode {where}: {self.reason}"


def read_blocks(path: Path) -> Iterator[str]:
    """The text of a UTF-8 file, decoded block by block.

    A decoding error names the file and the offset of the bad bytes from
    its start, in the words the codec uses for a whole file. A byte-order
    mark is kept and CR is not translated: the tokenizer splits words at
    both, and `load_manifest` drops the one and translates the other.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    read = 0
    with open(path, "rb") as fh:
        while True:
            # the decoder's input starts with the bytes it held back last time
            start = read - len(decoder.getstate()[0])
            block = fh.read(_BLOCK)
            read += len(block)
            try:
                text = decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                raise _FileDecodeError(
                    exc.encoding,
                    exc.object[exc.start : exc.end],
                    start + exc.start,
                    start + exc.end,
                    f"{exc.reason} in {path}",
                ) from None
            yield text
            if not block:
                return


def load_manifest(path: str | Path) -> CorpusManifest:
    """Parse a manifest file into validated entries.

    One leading byte-order mark is dropped and CRLF, then CR, become LF;
    lines split at LF only, so a form feed or U+2028 stays in its line.

    A grade is one of the ASCII digits 1, 2, 3 or 4. Raises ManifestError
    on malformed lines (with the line number), GradeRangeError on any
    other field of ASCII digits, such as 0, 5 or 01, and
    IncompleteCorpusError when some grade has no entry.
    """
    path = Path(path)
    base = path.parent
    entries: list[tuple[int, Path]] = []
    seen: set[tuple[int, Path]] = set()
    text = "".join(read_blocks(path)).removeprefix("\ufeff")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split("\t")
        if len(fields) != 2 or not fields[1]:
            raise ManifestError(f"{path}:{lineno}: expected '<grade><TAB><path>', got {line!r}")
        if "\0" in fields[1]:
            raise ManifestError(f"{path}:{lineno}: path holds a NUL byte: {fields[1]!r}")
        if not (fields[0].isascii() and fields[0].isdigit()):
            raise ManifestError(f"{path}:{lineno}: grade is not an integer: {fields[0]!r}")
        if fields[0] not in {str(g) for g in GRADES}:
            raise GradeRangeError(f"{path}:{lineno}: grade {fields[0]} outside 1-4")
        grade = int(fields[0])
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


def count_corpus(manifest: CorpusManifest) -> dict[int, Counter[str]]:
    """Count the terms of every manifest file into per-grade counts.

    A grade's text is the newline join of its files in manifest order:
    `tokenizer.count_terms` gets each file's blocks in turn, a "\n"
    block between files. A file is opened when the count reaches it, so
    memory holds a few blocks of text beside the counts. Unreadable
    files raise OSError and files that are not UTF-8 raise
    UnicodeDecodeError, both naming the path.
    """
    return {
        grade: count_terms(_newline_join(path for g, path in manifest.entries if g == grade))
        for grade in GRADES
    }


def _newline_join(paths: Iterable[Path]) -> Iterator[str]:
    """The blocks of each file in turn, with a "\n" block between files."""
    for i, path in enumerate(paths):
        if i:
            yield "\n"
        yield from read_blocks(path)


def build_corpus(manifest: CorpusManifest) -> GradedCorpus:
    """Count the terms of every manifest file into the per-grade
    documents (`count_corpus`) and index them; a grade whose files hold
    no tokens raises EmptyClassError."""
    return GradedCorpus.from_counts(count_corpus(manifest))
