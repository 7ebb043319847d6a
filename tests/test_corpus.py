import pytest

from textgrade import (
    GRADES,
    GradedCorpus,
    Vocabulary,
    build_corpus,
    load_manifest,
    tokenize,
)
from textgrade.errors import (
    EmptyClassError,
    GradeRangeError,
    IncompleteCorpusError,
    ManifestError,
)


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
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        with manifest.open("a", encoding="utf-8") as fh:
            fh.write("5\te.txt\n")
        with pytest.raises(GradeRangeError, match="grade 5"):
            load_manifest(manifest)

    def test_malformed_line_reports_line_number(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("1\ta.txt\nnot a data line\n", encoding="utf-8")
        with pytest.raises(ManifestError, match=":2:"):
            load_manifest(manifest)

    def test_non_integer_grade(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("one\ta.txt\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="integer"):
            load_manifest(manifest)

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


class TestBuildCorpus:
    def test_tokens_vocabulary_and_counts(self, tmp_path):
        manifest = write_corpus(
            tmp_path, {1: ["olma nok olma"], 2: ["b"], 3: ["c"], 4: ["d"]}
        )
        corpus = build_corpus(load_manifest(manifest))
        doc = corpus.classes[1]
        assert doc.tokens.tokens == ("olma", "nok", "olma")
        assert doc.tokens.types == {"nok", "olma"}
        assert corpus.stats.total_tokens[1] == 3
        assert corpus.stats.unique_tokens[1] == 2

    def test_identical_files_give_identical_vocabularies(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["olma nok"] for g in GRADES})
        corpus = build_corpus(load_manifest(manifest))
        vocabs = {corpus.classes[g].tokens.types for g in GRADES}
        assert vocabs == {frozenset({"nok", "olma"})}

    def test_grade_files_concatenated_in_manifest_order(self, tmp_path):
        manifest = write_corpus(
            tmp_path, {1: ["olma nok", "behi"], 2: ["b"], 3: ["c"], 4: ["d"]}
        )
        corpus = build_corpus(load_manifest(manifest))
        assert corpus.classes[1].tokens.tokens == ("olma", "nok", "behi")

    def test_missing_file_raises_oserror_with_path(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        (tmp_path / "g2-0.txt").unlink()
        with pytest.raises(OSError, match="g2-0.txt"):
            build_corpus(load_manifest(manifest))

    def test_grade_without_tokens_raises(self, tmp_path):
        manifest = write_corpus(tmp_path, {1: ["x"], 2: ["123 !!!"], 3: ["x"], 4: ["x"]})
        with pytest.raises(EmptyClassError, match="grade 2"):
            build_corpus(load_manifest(manifest))

    def test_invalid_utf8_reports_offset(self, tmp_path):
        manifest = write_corpus(tmp_path, {g: ["x"] for g in GRADES})
        (tmp_path / "g3-0.txt").write_bytes(b"ok \xff bad")
        with pytest.raises(UnicodeDecodeError) as excinfo:
            build_corpus(load_manifest(manifest))
        assert excinfo.value.start == 3


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
        assert corpus.classes[1].tokens.types == union

    def test_file_order_within_grade_changes_nothing_but_token_order(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = write_corpus(tmp_path / "a", {1: ["olma nok", "behi"], 2: ["b"], 3: ["c"], 4: ["d"]})
        b = write_corpus(tmp_path / "b", {1: ["behi", "olma nok"], 2: ["b"], 3: ["c"], 4: ["d"]})
        corpus_a = build_corpus(load_manifest(a))
        corpus_b = build_corpus(load_manifest(b))
        assert corpus_a.classes[1].tokens.types == corpus_b.classes[1].tokens.types
        assert corpus_a.stats == corpus_b.stats
        assert corpus_a.classes[1].tokens.tokens != corpus_b.classes[1].tokens.tokens


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
