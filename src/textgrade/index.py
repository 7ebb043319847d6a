"""The corpus index stored beside its manifest, so that a later process
loads it instead of counting the corpus again, and `open_corpus`, which
gives the CLI its corpus either way.

`<manifest>.textgrade-index` is UTF-8 text in lines ending at LF:

    <key>
    <df4> <c1> <c2> <c3> <c4> <k>    one line per distinct row of `terms`
                                     (an empty line)
    <row number> <term>              one line per term, in `terms` order
    <CRC-32 of the lines after the key, 8 hex digits>

where `k` is the number of terms with that row, and a row number counts
the row lines from 0. The key names everything the counts depend on:
the format, the Unicode data and the Python version the tokenizer runs
under, the CRC-32 of the source of `tokenizer.py` and `corpus.py`, and
the grade, byte length and CRC-32 of each manifest entry's file, in
manifest order. A file whose key is not the corpus's own, or that fails
any check, is not used, and is written again after the corpus is built.
Deleting it is always safe.
"""

from __future__ import annotations

import io
import os
import sys
import unicodedata
import zlib
from collections import Counter, _count_elements
from collections.abc import Iterable, Iterator
from contextlib import suppress
from itertools import islice
from pathlib import Path

from .corpus import _BLOCK, GRADES, CorpusManifest, CorpusStats, GradedCorpus
from .corpus import build_corpus, corpus_stats
from .errors import EmptyClassError, TextGradeError

SUFFIX = ".textgrade-index"
_FORMAT = "textgrade-index 1"
_SOURCES = ("tokenizer.py", "corpus.py")
# Term lines are encoded and written this many at a time, and read back
# in blocks of `_BLOCK` bytes, so that neither holds a copy of the whole
# file beside the corpus; a larger chunk raises the peak memory of a run
# that builds and stores the corpus.
_TERMS_PER_WRITE = 256


def open_corpus(manifest: CorpusManifest, need_index: bool) -> GradedCorpus | CorpusStats:
    """The corpus index, or only its statistics unless `need_index`: loaded
    from the index stored beside the manifest if it matches the corpus
    files, else counted from them. A built index is stored for the next
    run; the statistics alone are counted without one and store nothing.

    A grade without tokens raises TextGradeError naming the grade's files.
    """
    corpus = load_index(manifest)
    if corpus is not None:
        return corpus if need_index else corpus.stats
    try:
        # the statistics need the term counts only, not the scoring index
        return build_and_store(manifest) if need_index else corpus_stats(manifest)
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
    except (OSError, ValueError, KeyError, EmptyClassError):
        return None


def _parse(fh: io.BufferedReader) -> GradedCorpus:
    """The corpus in the lines of an index file after its key.

    Raises ValueError unless each row is six runs of ASCII digits with
    df4 from 1 to 4 equal to the number of nonzero counts and k at least
    1, each row is named by exactly k distinct terms, and the CRC
    matches; raises KeyError for a row number out of range, and
    EmptyClassError if a grade has no terms.
    """
    lines = []
    while (line := fh.readline()) != b"\n":
        if not line.endswith(b"\n"):
            raise ValueError("index has no empty line after its rows")
        lines.append(line)
    head = b"".join(lines)
    crc = zlib.crc32(b"\n", zlib.crc32(head))
    fields = head.split()
    if len(fields) != 6 * len(lines) or not all(map(bytes.isdigit, fields)):
        raise ValueError("index row is not six numbers")
    values = list(map(int, fields))
    rows, ks = list(zip(*(values[i::6] for i in range(5)))), values[5::6]
    # with df4 at least 1, row.count(0) counts the grades lacking the terms
    if not (all(row[0] >= 1 and row[0] == 4 - row.count(0) for row in rows) and min(ks) >= 1):
        raise ValueError("index row has a wrong df4 or k")
    ids = [str(i) for i in range(len(rows))]
    row_of = dict(zip(ids, rows)).__getitem__
    terms: dict[str, tuple[int, ...]] = {}
    named: Counter[str] = Counter()
    # The term lines are read, decoded and split a piece at a time, so
    # that no copy of the whole file is held. A piece ends at a line end,
    # and the last line read is held back until the next piece, so that
    # the CRC line, the file's last, is never taken for a term line.
    held = b""
    while block := fh.read(_BLOCK):
        held += block
        cut = held.rfind(b"\n", 0, held.rfind(b"\n")) + 1
        piece, held = held[:cut], held[cut:]
        crc = zlib.crc32(piece, crc)
        text = piece.decode("utf-8")
        # a term holds no whitespace: a line splits into two nonempty fields
        fields = text.split()
        if len(fields) != 2 * text.count("\n"):
            raise ValueError("bad index term line")
        numbers = fields[0::2]
        terms.update(zip(fields[1::2], map(row_of, numbers)))
        named.update(numbers)
    if held != b"%08x\n" % crc:
        raise ValueError("index CRC mismatch")
    if len(terms) != named.total() or named != dict(zip(ids, ks)):
        raise ValueError("index rows and terms disagree")
    totals, unique = dict.fromkeys(GRADES, 0), dict.fromkeys(GRADES, 0)
    sums = [[0] * (len(GRADES) + 1) for _ in GRADES]
    for (df4, *counts4), k in zip(rows, ks):
        for grade, grade_sums, n in zip(GRADES, sums, counts4):
            totals[grade] += k * n
            unique[grade] += k if n else 0
            grade_sums[df4] += k * n * n
    stats = CorpusStats(totals, unique, len(terms))
    return GradedCorpus(stats, terms, dict(zip(GRADES, map(tuple, sums))))


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
    """The index file's lines after its key, without the CRC, in UTF-8 chunks."""
    numbers: dict[tuple[int, ...], int | str] = {}
    _count_elements(numbers, corpus.terms.values())
    yield "".join(f"{' '.join(map(str, row))} {k}\n" for row, k in numbers.items()).encode() + b"\n"
    # each row's count of terms, once written, is replaced by its number;
    # no key is added, so the dict does not change size under zip
    numbers.update(zip(numbers, map(str, range(len(numbers)))))
    items = iter(corpus.terms.items())
    while chunk := list(islice(items, _TERMS_PER_WRITE)):
        yield "".join(f"{numbers[row]} {term}\n" for term, row in chunk).encode("utf-8")
