import random
import sys
import time
import tracemalloc
import zlib
from collections import Counter
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from textgrade import (
    GRADES,
    GradedCorpus,
    Vocabulary,
    build_corpus,
    class_similarity_matrix,
    load_manifest,
    tokenize,
)
from textgrade import corpus
from textgrade.cli import main
from textgrade.corpus import CorpusStats, _fold, count_corpus, read_blocks
from textgrade.errors import (
    CorpusFileError,
    EmptyClassError,
    GradeRangeError,
    IncompleteCorpusError,
    ManifestError,
)
from textgrade.index import build_and_store, index_path, load_index
from textgrade.tokenizer import TokenSequence, count_terms

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402
from conftest import assert_loaded_as_built  # noqa: E402


def write_corpus(tmp_path, texts_by_grade):
    """Write one file per (grade, text) pair plus a manifest; return its path."""
    lines = []
    for grade, texts in texts_by_grade.items():
        for i, text in enumerate(texts):
            name = f"g{grade}-{i}.txt"
            (tmp_path / name).write_text(text, encoding="utf-8")
            lines.append(f"{grade}\t{name}")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def grade_counts(corpus, grade):
    """A grade's term counts, read off the corpus index."""
    return {term: row[grade] for term, row in corpus.terms.items() if row[grade]}


class TestLoadManifest:
    def test_minimal_valid(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        parsed = load_manifest(manifest)
        assert len(parsed.entries) == 4
        assert [grade for grade, _ in parsed.entries] == [1, 2, 3, 4]

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        _, path = load_manifest(manifest).entries[0]
        assert path.parent == tmp_path
        # an absolute entry is kept as given, beside a relative one
        elsewhere = tmp_path / "elsewhere" / "abs.txt"
        with manifest.open("a", encoding="utf-8") as fh:
            fh.write(f"1\t{elsewhere}\n2\tsub/rel.txt\n")
        *_, absolute, relative = load_manifest(manifest).entries
        assert absolute == (1, elsewhere) and elsewhere.is_absolute()
        assert relative == (2, tmp_path / "sub" / "rel.txt")

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        content = manifest.read_text(encoding="utf-8")
        manifest.write_text("# corpus\n\n" + content + "\n# end\n", encoding="utf-8")
        assert len(load_manifest(manifest).entries) == 4

    def test_missing_grade_is_incomplete(self, tmp_path):
        manifest = write_corpus(tmp_path, {1: ["x"], 2: ["x"], 4: ["x"]})
        with pytest.raises(IncompleteCorpusError, match="3"):
            load_manifest(manifest)

    def test_grade_out_of_range(self, tmp_path):
        # a grade is exactly one ASCII digit 1-4; other ASCII digits are
        # out of range, a leading zero too
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        entries = manifest.read_text(encoding="utf-8")
        for field in ["5", "0", "01", "004", "9" * 5000]:
            manifest.write_text(f"{entries}{field}\te.txt\n", encoding="utf-8")
            with pytest.raises(GradeRangeError) as excinfo:
                load_manifest(manifest)
            assert str(excinfo.value) == f"{manifest}:5: grade {field} outside 1-4"

    def test_malformed_line_reports_line_number(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("1\ta.txt\nnot a data line\n", encoding="utf-8")
        with pytest.raises(ManifestError, match=":2:"):
            load_manifest(manifest)

    def test_non_integer_grade(self, tmp_path):
        # only ASCII digits: not a word, another script's digit, a sign, a
        # space before the TAB or a decimal point
        manifest = tmp_path / "manifest.tsv"
        for field in ["one", "\u0661", "\uff11", "\u00b9", "+1", "-1", "1 ", "1.0"]:
            manifest.write_text(f"{field}\ta.txt\n", encoding="utf-8")
            with pytest.raises(ManifestError) as excinfo:
                load_manifest(manifest)
            assert type(excinfo.value) is ManifestError
            assert str(excinfo.value) == f"{manifest}:1: grade is not an integer: {field!r}"

    def test_nul_byte_in_path_rejected(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        with manifest.open("a", encoding="utf-8") as fh:
            fh.write("4\tc4\0.txt\n")
        with pytest.raises(ManifestError, match=":5: path holds a NUL byte"):
            load_manifest(manifest)

    def test_duplicate_entry_rejected(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        with manifest.open("a", encoding="utf-8") as fh:
            fh.write("1\tg1-0.txt\n")
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(manifest)

    @pytest.mark.parametrize(
        "text, names, error",
        [
            pytest.param(
                "1\ta\n2\tb\n# page\x0cbreak\n3\tc\n4\td\n",
                ["a", "b", "c", "d"],
                None,
                id="form-feed-in-comment",
            ),
            pytest.param(
                "1\ta\n\x0c\n2\tb\n3\tc\n4\td\nnot a data line\n",
                None,
                r"m\.tsv:6: expected",
                id="form-feed-line-keeps-line-numbers",
            ),
            pytest.param(
                "1\ta\n2\tb\n3\tc\n4\tpage\u2028two.txt\n",
                ["a", "b", "c", "page\u2028two.txt"],
                None,
                id="line-separator-in-file-name",
            ),
            pytest.param(
                "1\ta\r2\tb\r\n3\tc\r4\td\rnot a data line\r",
                None,
                r"m\.tsv:5: expected",
                id="carriage-returns-end-lines",
            ),
        ],
    )
    def test_lines_break_only_at_line_feeds(self, tmp_path, text, names, error):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(text, encoding="utf-8")
        if error:
            with pytest.raises(ManifestError, match=error):
                load_manifest(manifest)
        else:
            assert [path.name for _, path in load_manifest(manifest).entries] == names


class TestBuildCorpus:
    def test_tokens_vocabulary_and_counts(self, tmp_path):
        manifest = write_corpus(
            tmp_path, {1: ["olma nok olma"], 2: ["b"], 3: ["c"], 4: ["d"]}
        )
        corpus = build_corpus(load_manifest(manifest))
        assert grade_counts(corpus, 1) == {"olma": 2, "nok": 1}
        assert corpus.stats.total_tokens[1] == 3
        assert corpus.stats.unique_tokens[1] == 2

    def test_identical_files_give_identical_vocabularies(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["olma nok"] for g in GRADES})
        corpus = build_corpus(load_manifest(manifest))
        vocabs = {frozenset(grade_counts(corpus, g)) for g in GRADES}
        assert vocabs == {frozenset({"nok", "olma"})}

    def test_grade_files_concatenated_in_manifest_order(self, tmp_path):
        # as if joined by a newline: a word cut at a file boundary stays
        # two words, and apostrophes at a boundary are stripped as edges
        files = ["olma no", "k behi'", "'olma"]
        manifest = write_corpus(tmp_path, {1: files, 2: ["b"], 3: ["c"], 4: ["d"]})
        corpus = build_corpus(load_manifest(manifest))
        counts = grade_counts(corpus, 1)
        assert counts == {"olma": 2, "no": 1, "k": 1, "behi": 1}
        assert counts == tokenize("\n".join(files)).counts
        assert corpus.stats.total_tokens[1] == 5
        assert corpus.stats.unique_tokens[1] == 4

    def test_missing_file_raises_oserror_with_path(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        (tmp_path / "g2-0.txt").unlink()
        with pytest.raises(CorpusFileError) as excinfo:
            build_corpus(load_manifest(manifest))
        # the manifest line first, then the OSError, which names the file
        cause = excinfo.value.__cause__
        assert isinstance(cause, FileNotFoundError)
        assert str(excinfo.value) == f"{manifest}:2: {cause}"
        assert "g2-0.txt" in str(cause)

    def test_grade_without_tokens_raises(self, tmp_path):
        manifest = write_corpus(tmp_path, {1: ["x"], 2: ["123 !!!"], 3: ["x"], 4: ["x"]})
        with pytest.raises(EmptyClassError) as excinfo:
            build_corpus(load_manifest(manifest))
        assert excinfo.value.args == (2,)
        assert str(excinfo.value) == "grade 2 has no tokens"

    def test_invalid_utf8_reports_offset(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        (tmp_path / "g3-0.txt").write_bytes(b"ok \xff bad")
        with pytest.raises(CorpusFileError) as excinfo:
            build_corpus(load_manifest(manifest))
        assert isinstance(excinfo.value.__cause__, UnicodeDecodeError)
        assert excinfo.value.__cause__.start == 3
        assert str(excinfo.value).startswith(f"{manifest}:3: 'utf-8' codec can't decode")


class TestCorpusStats:
    def test_overall_unique_is_union_size(self):
        corpus = GradedCorpus.from_token_sequences(
            {
                1: tokenize("a b"),
                2: tokenize("b c"),
                3: tokenize("c d"),
                4: tokenize("d e"),
            }
        )
        assert corpus.stats.overall_unique == 5

    def test_four_identical_single_word_classes(self):
        corpus = GradedCorpus.from_token_sequences({g: tokenize("olma") for g in GRADES})
        assert corpus.stats.overall_unique == 1

    def test_unique_never_exceeds_total(self, mini_corpus):
        stats = mini_corpus.stats
        for g in GRADES:
            assert stats.unique_tokens[g] <= stats.total_tokens[g]
        assert stats.overall_unique <= sum(stats.unique_tokens.values())

    def test_two_empty_grades_name_the_lower(self):
        with pytest.raises(EmptyClassError) as excinfo:
            CorpusStats({1: 1, 3: 0, 2: 0, 4: 1}, {1: 1, 3: 0, 2: 0, 4: 1}, 2)
        assert excinfo.value.args == (2,)
        texts = {1: "olma", 2: "123", 3: "!!!", 4: "nok"}
        with pytest.raises(EmptyClassError) as excinfo:
            GradedCorpus.from_token_sequences({g: tokenize(t) for g, t in texts.items()})
        assert excinfo.value.args == (2,)


class TestIndex:
    TEXTS = {
        1: "olma nok olma",
        2: "olma uzum anor uzum",
        3: "nok daraxt",
        4: "olma olma olma quyosh nok",
    }

    def test_rows_df_and_count_columns(self):
        sequences = {g: tokenize(t) for g, t in self.TEXTS.items()}
        corpus = GradedCorpus.from_token_sequences(sequences)
        assert not any("types" in vars(seq) for seq in sequences.values())
        assert corpus.stats.overall_unique == 6
        # first-seen order, grade by grade
        assert list(corpus.terms) == ["olma", "nok", "uzum", "anor", "daraxt", "quyosh"]
        assert corpus.terms["olma"] == (3, 2, 1, 0, 3)
        assert corpus.terms["nok"] == (3, 1, 0, 1, 1)
        assert corpus.terms["uzum"] == (1, 0, 2, 0, 0)

    def test_square_sums_by_df(self):
        sequences = {g: tokenize(t) for g, t in self.TEXTS.items()}
        corpus = GradedCorpus.from_token_sequences(sequences)
        assert corpus.squares4 == {
            1: (0, 0, 0, 4 + 1, 0),  # olma and nok
            2: (0, 4 + 1, 0, 1, 0),  # uzum and anor; olma
            3: (0, 1, 0, 1, 0),  # daraxt; nok
            4: (0, 1, 0, 9 + 1, 0),  # quyosh; olma and nok
        }

    @given(
        st.fixed_dictionaries(
            {g: st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=30) for g in GRADES}
        )
    )
    # a count of 2**16, 17 bits wide, in grade 2; "a" and "c" held by
    # grades 1 and 4 alone; "f" first seen in grade 3 and "g" in grade 4,
    # so that earlier grades' count columns are shorter
    @example(
        {
            1: ["a", "b", "c", "a"],
            2: ["b"] * (1 << 16) + ["d", "e"],
            3: ["f", "e", "b", "d"],
            4: ["g", "c", "a", "f", "g"],
        }
    )
    def test_random_corpora_rows_and_square_sums(self, tokens):
        counts = {g: Counter(tokens[g]) for g in GRADES}
        sequences = {g: TokenSequence(tuple(tokens[g])) for g in GRADES}
        corpus = GradedCorpus.from_token_sequences(sequences)
        assert list(corpus.terms) == list(dict.fromkeys(chain(*(tokens[g] for g in GRADES))))
        for term, row in corpus.terms.items():
            grade_counts = tuple(counts[g][term] for g in GRADES)
            assert row == (sum(map(bool, grade_counts)), *grade_counts)
        # equal rows are one tuple, the key of `rows` that counts its terms
        assert len(set(map(id, corpus.terms.values()))) == len(set(corpus.terms.values()))
        assert corpus.rows == Counter(corpus.terms.values())
        keys = set(map(id, corpus.rows))
        assert all(id(row) in keys for row in corpus.terms.values())
        for g in GRADES:
            expected = [0] * 5
            for term, n in counts[g].items():
                expected[corpus.terms[term][0]] += n * n
            assert corpus.squares4[g] == tuple(expected)

    @pytest.mark.parametrize("grades", [(1, 2, 3), (1, 2, 3, 4, 5)])
    def test_grades_must_be_exactly_one_to_four(self, grades):
        with pytest.raises(ValueError, match="grades must be exactly"):
            GradedCorpus.from_token_sequences({g: tokenize("olma") for g in grades})


class TestVocabulary:
    def test_from_tokens_sorted_unique(self):
        vocab = Vocabulary.from_tokens(tokenize("olma nok olma behi"))
        assert vocab.terms == ("behi", "nok", "olma")
        assert "nok" in vocab and "uzum" not in vocab

    def test_rejects_unsorted_terms(self):
        with pytest.raises(ValueError):
            Vocabulary(("olma", "behi"))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary(("olma", "olma"))


class TestDeterminism:
    def test_rebuild_is_identical(self, tmp_path):
        manifest = write_corpus(
            tmp_path, {1: ["olma nok olma"], 2: ["olma uzum"], 3: ["c"], 4: ["d"]}
        )
        first = build_corpus(load_manifest(manifest))
        second = build_corpus(load_manifest(manifest))
        assert first == second

    def test_concatenation_vocabulary_is_union_of_file_vocabularies(self, tmp_path):
        texts = ["olma nok", "behi olma", "uzum"]
        manifest = write_corpus(tmp_path, {1: texts, 2: ["b"], 3: ["c"], 4: ["d"]})
        corpus = build_corpus(load_manifest(manifest))
        union = set()
        for text in texts:
            union |= tokenize(text).types
        assert grade_counts(corpus, 1).keys() == union

    def test_file_order_within_grade_changes_nothing_but_token_order(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = write_corpus(tmp_path / "a", {1: ["olma nok", "behi"], 2: ["b"], 3: ["c"], 4: ["d"]})
        b = write_corpus(tmp_path / "b", {1: ["behi", "olma nok"], 2: ["b"], 3: ["c"], 4: ["d"]})
        corpus_a = build_corpus(load_manifest(a))
        corpus_b = build_corpus(load_manifest(b))
        # rows follow first-seen order, so only the records differ, not the counts
        for g in GRADES:
            assert grade_counts(corpus_a, g) == grade_counts(corpus_b, g)
        assert corpus_a.stats == corpus_b.stats
        assert class_similarity_matrix(corpus_a) == class_similarity_matrix(corpus_b)


class TestManifestEncoding:
    def test_byte_order_mark_is_ignored(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        assert [grade for grade, _ in load_manifest(manifest).entries] == [1, 2, 3, 4]

    def test_crlf_line_endings(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        manifest.write_bytes(manifest.read_bytes().replace(b"\n", b"\r\n"))
        entries = load_manifest(manifest).entries
        assert [path.name for _, path in entries] == [f"g{g}-0.txt" for g in GRADES]
        assert build_corpus(load_manifest(manifest)).stats.total_tokens == {g: 1 for g in GRADES}


# Text whose UTF-8 has one- to four-byte sequences, a BOM, CR, LF, CRLF
# and the sigmas, so that tiny blocks split sequences and line ends.
FILE_TEXT = st.lists(
    st.sampled_from(list("aOΣσςİмактабʻ’5 \u0301") + ["\r", "\n", "\r\n", "\ufeff", "\u3000", "😀"]),
    max_size=80,
).map("".join)

# Bytes that are UTF-8 in places: stray continuation and start bytes,
# truncated sequences, encoded surrogates, overlong forms.
FILE_BYTES = st.lists(
    st.one_of(
        FILE_TEXT.map(lambda text: text.encode("utf-8")),
        st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf4\x90"]),
    ),
    max_size=4,
).map(b"".join)


def read_in_blocks(path, size):
    with mock.patch.object(corpus, "_BLOCK", size):
        return count_terms(read_blocks(path))


def read_whole(path):
    """The text of a UTF-8 file decoded whole, the reference for the
    streamed reader; a decoding error names the file in its reason."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnicodeDecodeError(
            exc.encoding, exc.object, exc.start, exc.end, f"{exc.reason} in {path}"
        ) from None


def nonzero(table):
    """The nonzero counts of a running table: the grade's own counts."""
    return {term: n for term, n in table.items() if n}


def outcome(count):
    """The counts `count()` returns, or the position and message of the
    decoding error it raises."""
    try:
        return count()
    except UnicodeDecodeError as exc:
        return exc.start, exc.end, str(exc)


class TestReadInBlocks:
    # files are streamed: read in binary blocks and decoded incrementally

    @given(FILE_TEXT, st.integers(1, 8))
    @example("\ufeffolma\r\nnok😀Σ\r\n", 1)
    def test_counts_equal_the_whole_file(self, tmp_path_factory, text, size):
        path = tmp_path_factory.mktemp("blocks") / "text.txt"
        path.write_bytes(text.encode("utf-8"))
        assert read_in_blocks(path, size) == count_terms(read_whole(path))

    @given(FILE_BYTES, st.integers(1, 8))
    @example(b"ok \xe2\x82", 4)
    @example(b"olma \xe2\x82\xac\xff", 6)
    def test_decode_errors_equal_the_whole_file(self, tmp_path_factory, data, size):
        path = tmp_path_factory.mktemp("blocks") / "bytes.txt"
        path.write_bytes(data)
        got = outcome(lambda: read_in_blocks(path, size))
        assert got == outcome(lambda: count_terms(read_whole(path)))

    @given(FILE_TEXT, st.integers(1, 8))
    def test_returns_the_length_and_crc_of_the_bytes(self, tmp_path_factory, text, size):
        # the generator's value, which keys the stored index
        data = text.encode("utf-8")
        path = tmp_path_factory.mktemp("blocks") / "text.txt"
        path.write_bytes(data)
        blocks = read_blocks(path)
        with mock.patch.object(corpus, "_BLOCK", size), pytest.raises(StopIteration) as stop:
            while True:
                next(blocks)
        assert stop.value.value == (len(data), zlib.crc32(data))

    def test_whitespace_free_file_counts_whole_in_linear_time(self, tmp_path):
        # about 4 MB with ".", U+3000 and U+2028 but no cut point: read
        # whole at the default block size, and in 16-byte blocks joined once
        path = tmp_path / "wide.txt"
        path.write_text("Olma.\u2028nok\u3000мактаб\u2028" * 150_000, encoding="utf-8")
        expected = count_terms(read_whole(path))
        assert count_terms(read_blocks(path)) == expected
        started = time.perf_counter()
        assert read_in_blocks(path, 16) == expected
        assert time.perf_counter() - started < 5

    def test_cr_line_ends_are_cut_points(self, tmp_path):
        # a word list with CR line ends and no space or LF
        rng = random.Random(0)
        letters = "abdeghiklmnoqrstuvxyz"
        words = ["".join(rng.choices(letters, k=rng.randint(10, 20))) for _ in range(2000)]
        manifest = write_corpus(tmp_path, {g: ["olma"] for g in GRADES})
        (tmp_path / "cr.txt").write_text("\r".join(rng.choices(words, k=200_000)), encoding="utf-8")
        assert (tmp_path / "cr.txt").stat().st_size > 3_000_000
        with manifest.open("a", encoding="utf-8") as fh:
            fh.write("1\tcr.txt\n")
        tracemalloc.start()
        try:
            counts = {g: nonzero(table) for g, table in count_corpus(load_manifest(manifest))}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(counts[1].values()) == 200_000 + 1
        assert peak < 4_000_000

    # a corpus file, and a text given to `classify --input`
    @pytest.mark.parametrize("read", ["corpus", "input"])
    def test_memory_stays_far_below_the_file_size(self, tmp_path, capsys, read):
        rng = random.Random(0)
        letters = "abdeghiklmnoqrstuvxyzʻ"
        words = ["".join(rng.choices(letters, k=rng.randint(10, 20))) for _ in range(2000)]
        paragraph = " ".join(rng.choices(words + ["мактаб", "O'zbek", "Gʻoʻza,"], k=20_000))
        big = tmp_path / "big.txt"
        big.write_text(f"{paragraph}\n" * 24, encoding="utf-8")
        assert big.stat().st_size > 7_500_000
        manifest = write_corpus(tmp_path, {g: ["olma"] for g in GRADES})
        if read == "corpus":
            with manifest.open("a", encoding="utf-8") as fh:
                fh.write("1\tbig.txt\n")
        tracemalloc.start()
        try:
            if read == "corpus":
                counts = {g: nonzero(table) for g, table in count_corpus(load_manifest(manifest))}
            else:
                code = main(["classify", "--manifest", str(manifest), "--input", str(big)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if read == "corpus":
            assert sum(counts[1].values()) == 24 * 20_000 + 1
        else:
            assert code == 0 and "recommended for grade 1" in capsys.readouterr().out
        assert peak < 4_000_000


# A corpus file's text: FILE_TEXT as drawn (often empty, mostly without a
# final newline), or with a leading BOM, or with CR-only line ends.
GRADE_FILE_TEXT = st.one_of(
    FILE_TEXT,
    FILE_TEXT.map("\ufeff".__add__),
    FILE_TEXT.map(lambda text: text.replace("\r\n", "\r").replace("\n", "\r")),
)


class TestCountCorpus:
    # count_corpus counts a grade as the newline join of its files, read
    # in blocks that split words and multi-byte sequences
    @given(
        st.fixed_dictionaries(
            {g: st.lists(GRADE_FILE_TEXT, min_size=1, max_size=4) for g in GRADES}
        ),
        st.integers(1, 8),
    )
    @example(
        {
            1: ["olma no", "k behi'", "'olma", "ʻ"],
            2: ["ΑΣ", "Σα", "́olma'", "'noḱ"],
            3: ["", "\ufeffolma\rnok\r", "мактаб"],
            4: ["\ufeff"],
        },
        1,
    )
    def test_grades_count_as_the_newline_join_of_their_files(self, tmp_path_factory, texts, size):
        manifest = write_corpus(tmp_path_factory.mktemp("grades"), texts)
        with mock.patch.object(corpus, "_BLOCK", size):
            counts = {g: nonzero(table) for g, table in count_corpus(load_manifest(manifest))}
        assert counts == {g: count_terms("\n".join(texts[g])) for g in GRADES}

        # an undecodable byte in a grade's second file: the error names
        # that file and counts its offset from the file's own start
        grade = next((g for g in GRADES if len(texts[g]) > 1), None)
        if grade is None:
            return
        second = manifest.parent / f"g{grade}-1.txt"
        good = texts[grade][1].encode("utf-8")
        second.write_bytes(good + b"\xff olma")
        with mock.patch.object(corpus, "_BLOCK", size), pytest.raises(CorpusFileError) as excinfo:
            dict(count_corpus(load_manifest(manifest)))
        cause = excinfo.value.__cause__
        assert (cause.start, cause.end) == (len(good), len(good) + 1)
        # its manifest line: write_corpus writes one line per file, in draw order
        line = [(g, i) for g, files in texts.items() for i in range(len(files))].index((grade, 1)) + 1
        assert str(excinfo.value) == (
            f"{manifest}:{line}: 'utf-8' codec can't decode byte 0xff in position {len(good)}: "
            f"invalid start byte in {second}"
        )

    def test_digests_hold_each_entrys_length_and_crc(self, tmp_path):
        # keyed by manifest position, though grades are read in grade order
        texts = {g: ["olma", f"nok {g}"] for g in (4, 2, 3, 1)}
        manifest = load_manifest(write_corpus(tmp_path, texts))
        digests = {}
        assert _fold(count_corpus(manifest, digests)) == GradedCorpus.from_token_sequences(
            {g: tokenize("\n".join(texts[g])) for g in GRADES}
        )
        data = [path.read_bytes() for _, path in manifest.entries]
        assert digests == {i: (len(d), zlib.crc32(d)) for i, d in enumerate(data)}

    def test_grades_are_read_one_at_a_time(self, tmp_path):
        # a grade's files are opened only once the previous grade's counts
        # are out, so that no two grades' counts need be held at once
        manifest = load_manifest(
            write_corpus(tmp_path, {g: ["olma", f"nok {g}"] for g in (4, 2, 3, 1)})
        )
        opened = []

        def recorded(path):
            opened.append(int(path.name[1]))  # g<grade>-<i>.txt
            return read_blocks(path)

        yielded = []
        with mock.patch.object(corpus, "read_blocks", recorded):
            pairs = count_corpus(manifest)
            assert opened == []
            for grade, counts in pairs:
                yielded.append(grade)
                assert opened == [g for g in GRADES if g <= grade for _ in range(2)]
                assert counts == {"olma": 1, "nok": 1}
        assert yielded == list(GRADES)


# A word with or without an edge apostrophe, in each of the six variants,
# at either end: Latin, Cyrillic, and capital sigmas that lower to σ or,
# at a word's end, to ς.
EDGE_WORD = st.tuples(
    st.sampled_from(["", "'", "‘", "’", "ʻ", "ʼ", "`"]),
    st.sampled_from(["olma", "Olma", "nok", "oʻzbek", "мактаб", "МАКТАБ", "ΟΔΟΣ", "ΣΑΣ", "yangi"]),
    st.sampled_from(["", "'", "‘", "’", "ʻ", "ʼ", "`"]),
).map("".join)
EDGE_FILE_TEXT = st.lists(
    st.tuples(EDGE_WORD, st.sampled_from([" ", "\n", ", ", "."])).map("".join), max_size=8
).map("".join)


def index_of(build):
    """The index `build()` makes, as plain values with its terms in key
    order, or the args of the EmptyClassError it raises."""
    try:
        built = build()
    except EmptyClassError as exc:
        return exc.args
    assert type(built.terms) is dict
    # a plain dict, not a Counter: an unknown term is missing, not 0
    with pytest.raises(KeyError):
        built.terms["\0"]
    return list(built.terms.items()), built.squares4, built.stats


class TestRunningTable:
    # count_corpus yields one table for the whole corpus, zeroed in place
    # before each grade
    @given(
        st.fixed_dictionaries({g: st.lists(EDGE_FILE_TEXT, min_size=1, max_size=3) for g in GRADES}),
        st.integers(1, 8),
    )
    @example(
        # "yangi" first appears in grade 3, with an edge apostrophe only
        {1: ["olma ΟΔΟΣ"], 2: ["Olma, nok"], 3: ["'yangi` olma'"], 4: ["ʼnok", "yangi"]},
        2,
    )
    def test_each_grade_reads_its_own_counts_off_the_table(self, tmp_path_factory, texts, size):
        manifest = load_manifest(write_corpus(tmp_path_factory.mktemp("table"), texts))
        earlier: set[str] = set()
        tables = []
        with mock.patch.object(corpus, "_BLOCK", size):
            for grade, table in count_corpus(manifest):
                own = count_terms("\n".join(texts[grade]))
                assert nonzero(table) == own
                # a 0 for exactly the earlier terms this grade lacks
                assert {term for term, n in table.items() if not n} == earlier - set(own)
                assert set(table) == earlier | set(own)
                earlier |= set(own)
                tables.append(table)
        assert all(table is tables[0] for table in tables)
        assert index_of(lambda: _fold(count_corpus(manifest))) == index_of(
            lambda: GradedCorpus.from_token_sequences(
                {g: tokenize("\n".join(texts[g])) for g in GRADES}
            )
        )

    def test_terms_are_keyed_in_counting_order(self, tmp_path):
        # a term that a grade holds only with an edge apostrophe is keyed
        # where its token first occurs, from text and from tokens alike
        texts = {1: "nok' olma", 2: "olma", 3: "olma", 4: "olma"}
        manifest = write_corpus(tmp_path, {g: [text] for g, text in texts.items()})
        built = build_corpus(load_manifest(manifest))
        held = GradedCorpus.from_token_sequences({g: tokenize(text) for g, text in texts.items()})
        assert list(built.terms) == ["nok", "olma"]
        assert list(held.terms) == ["nok", "olma"]
        assert built.terms == held.terms


class TestBuildMemory:
    # the benchmark's seed-1 corpus, School-sized, whose grades share most
    # of their words (CPython 3.11); a first build_corpus, which counts the
    # corpus and stores its index, fills the interpreter's free lists, so
    # that they count in no test's peak. Each test names the path it
    # traces, since a later build_corpus would load the stored index.

    def traced(self, load, manifest):
        """`load(manifest)`, what it keeps and its peak, in bytes."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = load(manifest)
            kept, peak = (n - base for n in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        return loaded, kept, peak

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        path = gen.write_corpus(gen.Generator(1).corpus(), tmp_path_factory.mktemp("seed1"))
        manifest = load_manifest(path)
        build_corpus(manifest)
        return manifest

    @staticmethod
    def counted(manifest):
        """The index counted from the corpus files, whatever is stored."""
        return _fold(count_corpus(manifest))

    def test_build_peak_stays_near_what_the_corpus_keeps(self, manifest):
        # one running table, folded in place into the index it becomes,
        # peaks at 1.21 times what the corpus keeps; copied once into a new
        # dict it peaked at 1.45 times, a Counter per grade, folded through
        # a copy of the table per grade, at 1.88 times, and all four
        # grades' counts at once at 2.38 times
        built, kept, peak = self.traced(self.counted, manifest)
        assert built.stats.overall_unique > 30_000
        assert peak < 1.3 * kept, f"peak {peak / kept:.2f} times what the corpus keeps"

    def test_stats_peak_stays_near_what_the_build_keeps(self, manifest):
        # a build_corpus that misses counts the index and stores it; the
        # file is written a few hundred terms at a time, so the store adds
        # little to the count's own peak, 1.20 times what it keeps
        _, kept, _ = self.traced(self.counted, manifest)
        Path(index_path(manifest)).unlink(missing_ok=True)
        opened, _, peak = self.traced(build_corpus, manifest)
        assert Path(index_path(manifest)).exists() and opened.stats.overall_unique > 30_000
        assert peak < 1.3 * kept, f"peak {peak / kept:.2f} times what the build keeps"

    def test_the_stored_index_is_utf8_lines(self, manifest):
        # more than 128 distinct rows, whose row numbers format 2 packed
        # two bytes wide, some of them 0x0A or not UTF-8
        corpus = build_and_store(manifest)
        assert len(corpus.rows) > 128
        lines = Path(index_path(manifest)).read_bytes().decode("utf-8").split("\n")
        assert lines.pop() == ""
        assert len(lines) == 2 + len(corpus.rows) + len(corpus.terms) + 1

    def test_the_stored_index_loads_as_built(self, manifest):
        built = build_and_store(manifest)
        assert_loaded_as_built(load_index(manifest), built)

    def test_load_peak_stays_near_what_the_corpus_keeps(self, manifest):
        # the row lines are read whole and the term lines 16 KiB at a
        # time, each paired with its row as read: 1.12 times what the
        # loaded corpus keeps, 1.18 times with format 2's packed row
        # numbers, 1.23 times for format 1
        build_and_store(manifest)
        loaded, kept, peak = self.traced(load_index, manifest)
        assert loaded.stats.overall_unique > 30_000
        assert peak <= 1.25 * kept, f"peak {peak / kept:.2f} times what the corpus keeps"
