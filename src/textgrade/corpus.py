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
import zlib
from collections import Counter, _count_elements
from collections.abc import Generator, Iterable, Iterator, Mapping
from functools import cached_property
from itertools import chain, repeat, zip_longest
from operator import countOf
from pathlib import Path

from .errors import (
    CorpusFileError,
    EmptyClassError,
    GradeRangeError,
    IncompleteCorpusError,
    ManifestError,
)
from .record import Record
from .tokenizer import TokenSequence, count_terms

GRADES = (1, 2, 3, 4)

# Files are read in binary blocks of this many bytes and decoded one
# block at a time, so that counting never holds a whole file. A corpus
# file is counted in pieces cut from its blocks, and the text copies and
# word list of one piece set the peak memory of counting.
_BLOCK = 1 << 14


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
    """Token and type counts per grade plus the cross-grade type count.

    Raises EmptyClassError(grade) for the lowest grade without tokens.
    """

    __slots__ = ("total_tokens", "unique_tokens", "overall_unique")

    def __post_init__(self) -> None:
        for grade in sorted(self.unique_tokens):
            if not self.unique_tokens[grade]:
                raise EmptyClassError(grade)


class CorpusManifest(Record):
    """Validated (grade, path) entries, in which every grade 1-4 appears;
    the manifest's own path, and the line number of each entry in it."""

    __slots__ = ("entries", "path", "lines")


class GradedCorpus(Record):
    """Immutable index of the four class documents. Treat as read-only;
    safe to share among concurrent readers.

    It holds what scoring needs from the corpus and nothing else: `terms`
    maps each corpus term to its row `(df4, c1, c2, c3, c4)`, where df4
    is the number of grades holding the term and `row[g]` its count in
    grade g, 0 where g lacks it; terms with equal rows share one tuple.
    Terms are keyed grade by grade where their token first occurs; no
    score reads the order. `squares4` holds, per grade, the sums of its
    terms' squared counts indexed by df4, and `stats` each grade's token
    total and distinct-term count. No token order is kept: TF-IDF reads
    none. All of it is integers, so it holds no IDF; scoring weighs it
    under N = 4 or 5.
    """

    __slots__ = ("stats", "terms", "squares4", "__dict__")

    @classmethod
    def from_token_sequences(cls, sequences: Mapping[int, TokenSequence]) -> "GradedCorpus":
        """Build a corpus from per-grade token sequences; only their counts are kept.

        Raises ValueError unless the grades are exactly 1-4, and
        EmptyClassError(grade) for a grade without tokens.
        """
        if set(sequences) != set(GRADES):
            raise ValueError(f"grades must be exactly {set(GRADES)}, got {set(sequences)}")
        table: dict[str, int] = {}

        def counted(grade: int) -> tuple[int, dict[str, int]]:
            _count_elements(_zero(table), sequences[grade].tokens)
            return grade, table

        return _fold(map(counted, GRADES))

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


def read_blocks(path: Path) -> Generator[str, None, tuple[int, int]]:
    """The text of a UTF-8 file, decoded block by block; the generator
    returns the byte length and the CRC-32 of the bytes it decoded, so
    `size, crc = yield from read_blocks(path)` names what was read.

    A decoding error names the file and the offset of the bad bytes from
    its start, in the words the codec uses for a whole file. A byte-order
    mark is kept and CR is not translated: the tokenizer splits words at
    both, and `load_manifest` drops the one and translates the other.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    read = crc = 0
    with open(path, "rb") as fh:
        while True:
            # the decoder's input starts with the bytes it held back last time
            start = read - len(decoder.getstate()[0])
            block = fh.read(_BLOCK)
            read += len(block)
            crc = zlib.crc32(block, crc)
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
                return read, crc


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
    linenos: list[int] = []
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
        # an absolute right operand replaces the base
        entry = (grade, base / fields[1])
        if entry in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate entry {grade}\t{fields[1]}")
        seen.add(entry)
        entries.append(entry)
        linenos.append(lineno)
    missing = [g for g in GRADES if g not in {grade for grade, _ in entries}]
    if missing:
        raise IncompleteCorpusError(f"{path}: no files for grade(s) {', '.join(map(str, missing))}")
    return CorpusManifest(tuple(entries), path, tuple(linenos))


def count_corpus(
    manifest: CorpusManifest, digests: dict[int, tuple[int, int]] | None = None
) -> Iterator[tuple[int, dict[str, int]]]:
    """Count the terms of every manifest file into one running table:
    yield each grade with the table, in grade order.

    The table is one plain `dict` for the whole corpus. Before each grade
    every count in it is set to 0 in place, then the grade's files are
    counted into it, so when the grade is yielded the table maps every
    term seen so far to its count in that grade; its nonzero counts are
    the grade's own. Each term's key string is stored once, keyed where
    its token first occurs in the text of the first grade holding it. The
    next grade reuses the table, so read what a grade needs before
    drawing the next one.

    A grade's text is the newline join of its files in manifest order:
    `tokenizer.count_terms` gets each file's blocks in turn, a "\n"
    block between files. A grade's files are opened only when the
    iteration reaches that grade, one at a time, so memory holds a few
    blocks of text beside the table. A file that cannot be opened, read
    or decoded raises CorpusFileError, which names its manifest line and
    holds the OSError or UnicodeDecodeError as its cause.

    If `digests` is given, a `dict`, each file counted puts in it, under
    the file's position in `manifest.entries`, the byte length and the
    CRC-32 of the bytes counted (`read_blocks`).
    """
    table: dict[str, int] = {}
    for grade in GRADES:
        files = [
            (i, path, f"{manifest.path}:{line}")
            for i, ((g, path), line) in enumerate(zip(manifest.entries, manifest.lines))
            if g == grade
        ]
        yield grade, count_terms(_newline_join(files, digests), _zero(table))


def _zero(table: dict[str, int]) -> dict[str, int]:
    """`table` with every count set to 0 in place, its keys and their order kept."""
    table.update(zip(table, repeat(0)))
    return table


def _newline_join(
    files: Iterable[tuple[int, Path, str]], digests: dict[int, tuple[int, int]] | None
) -> Iterator[str]:
    """The blocks of each (entry position, path, manifest line) file in
    turn, with a "\n" block between files; each file's (byte length,
    CRC-32) goes into `digests`, if given, under its entry position."""
    for n, (i, path, where) in enumerate(files):
        if n:
            yield "\n"
        try:
            digest = yield from read_blocks(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusFileError(f"{where}: {exc}") from exc
        if digests is not None:
            digests[i] = digest


def _fold(tables: Iterable[tuple[int, dict[str, int]]]) -> GradedCorpus:
    """Index (grade, table) pairs of grades 1-4 in order, one grade at a
    time, where every pair holds one running plain `dict`, as
    `count_corpus` yields them; the table becomes the corpus's `terms`.

    Each grade's column is the table's values as that grade is drawn:
    its count of every term seen so far, in the table's key order, 0
    where it lacks the term. Grades 1-3 keep their column as a list; the
    last grade's column is the table's own values. An earlier column
    lacks exactly the terms keyed later, so the columns padded with 0
    give each term its four counts. Each distinct row is built once,
    weighed into `squares4` once, times the number of terms holding it,
    and written in place over the last grade's count of every term
    holding it, so those terms share one tuple.
    """
    columns: list[Iterable[int]] = []
    totals, unique = {}, {}
    for grade, table in tables:
        column = table.values() if grade == GRADES[-1] else list(table.values())
        columns.append(column)
        totals[grade], unique[grade] = sum(column), len(table) - countOf(column, 0)
    # built once every grade is read, so that a later grade's unreadable
    # file is reported before an earlier grade's lack of tokens
    stats = CorpusStats(totals, unique, len(table))
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    sums = [[0] * (len(GRADES) + 1) for _ in GRADES]
    for counts4, k in Counter(zip_longest(*columns, fillvalue=0)).items():
        df4 = len(counts4) - counts4.count(0)
        rows[counts4] = (df4, *counts4)
        for grade_sums, n in zip(sums, counts4):
            grade_sums[df4] += k * n * n
    # zip draws each key, then the row read off the key's own last-grade
    # count, before the update writes that row over the count: every value
    # is read before it is written, and no key is added or removed, so the
    # dict never changes size under the iterators reading it
    table.update(zip(table, map(rows.__getitem__, zip_longest(*columns, fillvalue=0))))
    return GradedCorpus(stats, table, dict(zip(GRADES, map(tuple, sums))))


def build_corpus(
    manifest: CorpusManifest, digests: dict[int, tuple[int, int]] | None = None
) -> GradedCorpus:
    """Count the terms of every manifest file into the per-grade
    documents (`count_corpus`, which fills `digests` if given) and index
    them one grade at a time; a grade whose files hold no tokens raises
    EmptyClassError, once every grade has been read."""
    return _fold(count_corpus(manifest, digests))
