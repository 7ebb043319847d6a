"""The corpus index of a manifest, `build_corpus`: loaded from the index
stored beside the manifest when that matches the corpus files, else
counted from them and stored there, so that a later process, or a later
call in this one, loads it instead of counting the corpus again.

`<manifest>.textgrade-index`, format 3, is UTF-8 text, every line ending
at LF, in five sections one after the other:

    <key>                               one line
    <row bytes> <term count>            the sizes of the next two sections
    <df4> <c1> <c2> <c3> <c4> <k>       one line per distinct row of `terms`
    <term>                              one line per term, grouped by row
    <CRC-32 of the sections after the key, 8 hex digits>

The header line gives the byte length of the row lines and the number of
term lines. `k` is the number of terms with that row, so no k is 0, and
the term lines are the first row line's k terms, then the next one's k
terms, and so on: no line names a row. The row lines go in `rows` order
and each row's terms in `terms` order, so a loaded corpus's `terms` go
row by row. No two row lines are the same row. The file holds no
pickled or marshalled data: a reader checks every number and term it
reads.

The key names everything the counts depend on: the format, the Unicode
data and the Python version the tokenizer runs under, the CRC-32 of the
source of `tokenizer.py` and `corpus.py`, and the grade, byte length
and CRC-32 of each manifest entry's file, in manifest order. A key that
differs in anything but the CRC-32s of the files, their byte lengths
taken from `os.stat`, is refused before any corpus file is read; one
that matches that far is compared whole, its CRC-32s taken from the
files' bytes. A file whose key is not the corpus's own, or that fails
any check, is not used, and is written again after the corpus is
counted. Deleting it is always safe.
"""

from __future__ import annotations

import io
import os
import sys
import unicodedata
import zlib
from collections.abc import Iterable, Iterator
from contextlib import suppress
from itertools import chain, islice, repeat
from operator import add
from pathlib import Path

from .corpus import _BLOCK, GRADES, CorpusManifest, GradedCorpus, _fold, _indexed, count_corpus
from .errors import EmptyClassError

SUFFIX = ".textgrade-index"
_FORMAT = "textgrade-index 3"
_SOURCES = ("tokenizer.py", "corpus.py")
# Term lines are encoded and written this many at a time, and read back
# in blocks of `_BLOCK` bytes, so that neither holds a copy of the whole
# file beside the corpus; a larger chunk raises the peak memory of a run
# that builds and stores the corpus.
_TERMS_PER_WRITE = 256


def build_corpus(manifest: CorpusManifest) -> GradedCorpus:
    """The corpus index of `manifest`: the index stored beside it if that
    matches the corpus files as they are now (`load_index`), else the
    index counted from them (`count_corpus`), which is then stored for the
    next call (`build_and_store`); a failed write is ignored.

    A corpus file that cannot be opened, read or decoded raises
    CorpusFileError, and a grade whose files hold no tokens raises
    EmptyClassError(grade), once every grade has been read.
    """
    corpus = load_index(manifest)
    return build_and_store(manifest) if corpus is None else corpus


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


def _without_crcs(key: bytes) -> tuple[bytes, list[bytes]]:
    """A key line up to its files, and each file's `grade:size` field."""
    head, _, files = key.partition(b" files ")
    return head, [field.rpartition(b":")[0] for field in files.split()]


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
            stored = fh.readline()
            # refused on the sizes `os.stat` gives before a corpus file is
            # read for its CRC-32; equal sizes never accept a file, since
            # a FIFO or a /proc entry states a size its bytes need not have
            sized = _key((grade, os.stat(path).st_size, 0) for grade, path in manifest.entries)
            if _without_crcs(stored) != _without_crcs(sized):
                return None
            if stored != _key((grade, *_digest(path)) for grade, path in manifest.entries):
                return None
            return _parse(fh)
    except (OSError, ValueError, EmptyClassError):
        return None


def _parse(fh: io.BufferedReader) -> GradedCorpus:
    """The corpus in the sections of an index file after its key.

    Raises ValueError unless the header is two numbers whose row lines
    fit in the file, each row is six runs of ASCII digits with df4 from
    1 to 4 equal to the number of nonzero counts, no two rows are equal,
    so that terms with equal rows share one tuple, every k is at least 1
    and the k sum to the term count, the term lines are that many
    distinct nonempty terms, and the CRC matches. Raises EmptyClassError
    if a grade has no terms."""
    head = fh.readline()
    row_bytes, count = map(int, head.split())
    # a size too large for the file is refused before a block that large is
    # allocated to read it; a negative one reads the term lines as rows
    if fh.tell() + row_bytes > os.fstat(fh.fileno()).st_size:
        raise ValueError("index rows run past its end")
    section = fh.read(row_bytes)
    df4s, *counts, ks = _columns(section)
    rows = list(zip(df4s, *counts))
    # with df4 at least 1, row.count(0) counts the grades lacking the term
    zeros = map(tuple.count, rows, repeat(0))
    if min(df4s) < 1 or list(map(add, df4s, zeros)) != [len(GRADES)] * len(rows):
        raise ValueError("index row has a wrong df4")
    ks_by_row = dict(zip(rows, ks))
    if len(ks_by_row) != len(rows):
        raise ValueError("index row duplicated")
    if min(ks) < 1 or sum(ks) != count:
        raise ValueError("index rows do not hold the term count, k at least 1 each")
    crc = zlib.crc32(section, zlib.crc32(head))
    # the row of each term line in turn: each row, k times
    row_of = chain.from_iterable(map(repeat, rows, ks))
    terms: dict[str, tuple[int, ...]] = {}
    # The term lines are read, decoded and split a piece at a time, so
    # that no copy of the whole file is held. A piece ends at a line end,
    # and the last line read is held back until the next piece, so that
    # the CRC line, the file's last, is never taken for a term line.
    held, read = b"", 0
    while block := fh.read(_BLOCK):
        held += block
        cut = held.rfind(b"\n", 0, held.rfind(b"\n")) + 1
        piece, held = held[:cut], held[cut:]
        crc = zlib.crc32(piece, crc)
        names = piece.decode("utf-8").split("\n")
        names.pop()  # the empty string after the piece's last line end
        terms.update(zip(names, row_of))
        read += len(names)
    if held != b"%08x\n" % crc:
        raise ValueError("index CRC mismatch")
    if read != count or len(terms) != count or "" in terms:
        raise ValueError("index terms are not distinct nonempty lines, one per term of the rows")
    return _indexed(terms, ks_by_row)


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


def build_and_store(manifest: CorpusManifest) -> GradedCorpus:
    """The corpus index counted from the files `manifest` lists, stored
    beside `manifest` under the key of the very bytes it counted. The
    file is written whole under a new name and then renamed over the old
    one, so a reader never sees it in part; any OSError while writing
    leaves no new file and is ignored. The new name is random, so no file
    a killed writer left can block it; none is removed, as it may be a
    live writer's."""
    digests: dict[int, tuple[int, int]] = {}
    corpus = _fold(count_corpus(manifest, digests))
    path = index_path(manifest)
    temporary = f"{path}.{os.urandom(8).hex()}.tmp"
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
    rows = "".join(f"{' '.join(map(str, row))} {k}\n" for row, k in corpus.rows.items()).encode()
    yield b"%d %d\n" % (len(rows), len(corpus.terms)) + rows
    # each row's terms in `terms` order, the rows in `rows` order
    grouped: dict[tuple[int, ...], list[str]] = {row: [] for row in corpus.rows}
    for term, row in corpus.terms.items():
        grouped[row].append(term)
    terms = chain.from_iterable(grouped.values())
    while chunk := list(islice(terms, _TERMS_PER_WRITE)):
        yield "".join(f"{term}\n" for term in chunk).encode("utf-8")
