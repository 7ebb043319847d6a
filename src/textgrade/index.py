"""The corpus index stored beside its manifest, so that a later process
loads it instead of counting the corpus again, and `open_corpus`, which
gives every command its corpus either way.

`<manifest>.textgrade-index`, format 2, is five sections one after the
other:

    <key>                               one line of UTF-8 text
    <row bytes> <term count> <width>    the sizes of the next two sections
    <df4> <c1> <c2> <c3> <c4> <k>       one line per distinct row of `terms`
    <row numbers>                       one per term, in `terms` order
    <term>                              one line per term, in `terms` order
    <CRC-32 of the sections after the key, 8 hex digits>

Every line ends at LF. The header line gives the byte length of the row
lines, the number of terms, and the width in bytes of a row number: 1,
2, 4 or 8, the least that holds the largest one. `k` is the number of
terms with that row, and the row lines go from the largest k down, so
that most row numbers are small. A row number counts the row lines from
0; the row numbers are one packed block of unsigned little-endian
integers, not text, so they may hold the byte 0x0A and the file is never
split into lines across them. The file holds no pickled or marshalled
data: a reader checks every number and term it reads.

The key names everything the counts depend on: the format, the Unicode
data and the Python version the tokenizer runs under, the CRC-32 of the
source of `tokenizer.py` and `corpus.py`, and the grade, byte length
and CRC-32 of each manifest entry's file, in manifest order. A file
whose key is not the corpus's own, or that fails any check, is not used,
and is written again after the corpus is built. Deleting it is always
safe.
"""

from __future__ import annotations

import io
import os
import struct
import sys
import unicodedata
import zlib
from collections import _count_elements
from collections.abc import Iterable, Iterator
from contextlib import suppress
from itertools import accumulate, compress, islice, repeat
from operator import add, mul
from pathlib import Path

from .corpus import _BLOCK, GRADES, CorpusManifest, CorpusStats, GradedCorpus, build_corpus
from .errors import EmptyClassError, TextGradeError

SUFFIX = ".textgrade-index"
_FORMAT = "textgrade-index 2"
_SOURCES = ("tokenizer.py", "corpus.py")
# The struct code of an unsigned row number of each width in bytes; the
# numbers are packed and unpacked little-endian ("<") on every host.
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
# Row numbers and term lines are encoded and written this many at a
# time, and the term lines read back in blocks of `_BLOCK` bytes, so
# that neither holds a copy of the whole file beside the corpus; a larger
# chunk raises the peak memory of a run that builds and stores the corpus.
_TERMS_PER_WRITE = 256


def open_corpus(manifest: CorpusManifest) -> GradedCorpus:
    """The corpus index, loaded from the index stored beside the manifest
    if it matches the corpus files, else built from them and stored for
    the next run.

    A grade without tokens raises TextGradeError naming the grade's files.
    """
    corpus = load_index(manifest)
    if corpus is not None:
        return corpus
    try:
        return build_and_store(manifest)
    except EmptyClassError as exc:
        files = ", ".join(str(path) for g, path in manifest.entries if g == exc.args[0])
        raise TextGradeError(f"{exc} in {files}") from None


def index_path(manifest: CorpusManifest) -> str:
    """Where the index of `manifest` is stored: beside it, its name plus SUFFIX."""
    return f"{manifest.path}{SUFFIX}"


def _key(entries: Iterable[tuple[int, int, int]]) -> bytes:
    """The key line for (grade, byte length, CRC-32) of each manifest entry,
    in manifest order."""
    here = Path(__file__).parent
    sources = " ".join(f"{zlib.crc32((here / name).read_bytes()):08x}" for name in _SOURCES)
    files = " ".join(f"{grade}:{size}:{crc:08x}" for grade, size, crc in entries)
    python = "{}.{}".format(*sys.version_info[:2])
    return (
        f"{_FORMAT} unicode {unicodedata.unidata_version} python {python}"
        f" source {sources} files {files}\n"
    ).encode("utf-8")


def _digest(path: Path) -> tuple[int, int]:
    """The byte length and CRC-32 of the file at `path` as it is now."""
    size = crc = 0
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK):
            size += len(block)
            crc = zlib.crc32(block, crc)
    return size, crc


def load_index(manifest: CorpusManifest) -> GradedCorpus | None:
    """The corpus stored beside `manifest`, or None if there is no file,
    its key is not the one of the files the manifest lists as they are
    now, it fails a check (`_parse`), or any of them cannot be read."""
    try:
        with open(index_path(manifest), "rb") as fh:
            key = _key((grade, *_digest(path)) for grade, path in manifest.entries)
            if fh.readline() != key:
                return None
            return _parse(fh)
    except (OSError, ValueError, LookupError, struct.error, EmptyClassError):
        return None


def _parse(fh: io.BufferedReader) -> GradedCorpus:
    """The corpus in the sections of an index file after its key.

    Raises ValueError unless the header is three numbers whose sections
    fit in the file, each row is six runs of ASCII digits with df4 from
    1 to 4 equal to the number of nonzero counts, the term lines are as
    many distinct nonempty terms as there are row numbers, each row is
    named by exactly k of them, so k is at least 1 and the term count is
    the sum of k, and the CRC matches. Raises KeyError for a width that
    is not 1, 2, 4 or 8, IndexError for a row number past the rows,
    struct.error for a term line past the row numbers, and
    EmptyClassError if a grade has no terms.
    """
    head = fh.readline()
    row_bytes, count, width = map(int, head.split())
    code = _CODES[width]
    # a size too large for the file is refused before a block that large is
    # allocated to read it; a negative one, by the read
    if fh.tell() + row_bytes + count * width > os.fstat(fh.fileno()).st_size:
        raise ValueError("index sections run past its end")
    section = fh.read(row_bytes)
    df4s, *counts, ks = _columns(section)
    rows = list(zip(df4s, *counts))
    # with df4 at least 1, row.count(0) counts the grades lacking the term
    zeros = map(tuple.count, rows, repeat(0))
    if min(df4s) < 1 or list(map(add, df4s, zeros)) != [len(GRADES)] * len(rows):
        raise ValueError("index row has a wrong df4")
    packed = fh.read(count * width)
    crc = zlib.crc32(packed, zlib.crc32(section, zlib.crc32(head)))
    terms: dict[str, tuple[int, ...]] = {}
    named: dict[int, int] = {}
    # The term lines are read, decoded and split a piece at a time, and
    # the row numbers of a piece's terms unpacked with them, so that no
    # copy of the whole file is held. A piece ends at a line end, and the
    # last line read is held back until the next piece, so that the CRC
    # line, the file's last, is never taken for a term line. A row number
    # past the rows raises IndexError, a term line past the row numbers
    # struct.error.
    held, read = b"", 0
    while block := fh.read(_BLOCK):
        held += block
        cut = held.rfind(b"\n", 0, held.rfind(b"\n")) + 1
        piece, held = held[:cut], held[cut:]
        crc = zlib.crc32(piece, crc)
        names = piece.decode("utf-8").split("\n")
        names.pop()  # the empty string after the piece's last line end
        numbers = struct.unpack_from(f"<{len(names)}{code}", packed, read * width)
        _count_elements(named, numbers)
        terms.update(zip(names, map(rows.__getitem__, numbers)))
        read += len(names)
    if held != b"%08x\n" % crc:
        raise ValueError("index CRC mismatch")
    # a term line short leaves a row number without a term
    if len(terms) != count or "" in terms:
        raise ValueError("index terms are not distinct nonempty lines, one per row number")
    # named exactly k times each: no k is 0, and the k sum to the term count
    if named != dict(enumerate(ks)):
        raise ValueError("index rows are not named k times each")
    stats, squares4 = _sums(df4s, counts, ks)
    return GradedCorpus(stats, terms, squares4)


def _columns(section: bytes) -> list[list[int]]:
    """The six columns df4, c1-c4 and k of the row lines in `section`.

    Raises ValueError unless its lines are six runs of ASCII digits.
    """
    fields = section.split()
    if len(fields) != 6 * section.count(b"\n") or section.translate(None, b"0123456789 \n"):
        raise ValueError("index row is not six numbers")
    # a few hundred distinct fields repeat, so each is parsed once
    distinct = set(fields)
    values = list(map(dict(zip(distinct, map(int, distinct))).__getitem__, fields))
    return [values[i::6] for i in range(6)]


def _sums(
    df4s: list[int], counts: list[list[int]], ks: list[int]
) -> tuple[CorpusStats, dict[int, tuple[int, ...]]]:
    """The statistics and `squares4` of the rows with columns df4, c1-c4
    and k, each row weighed by its k; raises EmptyClassError if a grade
    has no terms."""
    # sorted by df4, the rows of each df4 are one run of the columns
    order = sorted(range(len(df4s)), key=df4s.__getitem__)
    ends = list(accumulate(map(df4s.count, range(1, len(GRADES) + 1))))
    runs = list(zip([0, *ends], ends))
    ks = list(map(ks.__getitem__, order))
    totals, unique, squares4 = {}, {}, {}
    for grade, column in zip(GRADES, counts):
        column = list(map(column.__getitem__, order))
        weighted = list(map(mul, ks, column))
        squares = list(map(mul, weighted, column))
        totals[grade], unique[grade] = sum(weighted), sum(compress(ks, column))
        squares4[grade] = (0, *(sum(squares[start:end]) for start, end in runs))
    return CorpusStats(totals, unique, sum(ks)), squares4


def build_and_store(manifest: CorpusManifest) -> GradedCorpus:
    """`build_corpus(manifest)`, stored beside `manifest` under the key of
    the very bytes it counted. The file is written whole under a new name
    and then renamed over the old one, so a reader never sees it in part;
    any OSError while writing leaves no new file and is ignored."""
    digests: dict[int, tuple[int, int]] = {}
    corpus = build_corpus(manifest, digests)
    path = index_path(manifest)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        key = _key((grade, *digests[i]) for i, (grade, _) in enumerate(manifest.entries))
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except OSError:
        return corpus
    try:
        with suppress(OSError):
            with open(fd, "wb") as fh:
                fh.write(key)
                crc = 0
                for chunk in _body(corpus):
                    crc = zlib.crc32(chunk, crc)
                    fh.write(chunk)
                fh.write(b"%08x\n" % crc)
            os.replace(temporary, path)
    finally:
        # gone already if it was renamed
        with suppress(OSError):
            os.unlink(temporary)
    return corpus


def _body(corpus: GradedCorpus) -> Iterator[bytes]:
    """The index file's sections after its key, without the CRC, in chunks."""
    numbers: dict[tuple[int, ...], int] = {}
    _count_elements(numbers, corpus.terms.values())
    # sorted by k, largest first; a stable sort keeps ties in first-seen order
    ranked = sorted(numbers, key=numbers.__getitem__, reverse=True)
    rows = "".join(f"{' '.join(map(str, row))} {numbers[row]}\n" for row in ranked).encode()
    width = min(w for w in _CODES if len(ranked) <= 1 << 8 * w)
    yield b"%d %d %d\n" % (len(rows), len(corpus.terms), width) + rows
    # each row's count of terms, once written, is replaced by its number
    numbers.update(zip(ranked, range(len(ranked))))
    values = iter(corpus.terms.values())
    while chunk := list(map(numbers.__getitem__, islice(values, _TERMS_PER_WRITE))):
        yield struct.pack(f"<{len(chunk)}{_CODES[width]}", *chunk)
    terms = iter(corpus.terms)
    while chunk := list(islice(terms, _TERMS_PER_WRITE)):
        yield "".join(f"{term}\n" for term in chunk).encode("utf-8")
