import json
from pathlib import Path

import pytest

from textgrade.cli import OutputSpec, format_score, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def disjoint_manifest(tmp_path):
    for grade, word in enumerate(["olma", "nok", "behi", "uzum"], start=1):
        (tmp_path / f"c{grade}.txt").write_text(word, encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("".join(f"{g}\tc{g}.txt\n" for g in (1, 2, 3, 4)), encoding="utf-8")
    return manifest


# Mixed-script grade texts: Cyrillic, every apostrophe variant, digits
# glued to words, numerics (¼ ² Ⅳ), a combining acute (U+0301), no-break
# and ideographic spaces, a BOM and CRLF line ends.
MIXED_TEXTS = {
    1: "Oʻzbek tili — 1-sinf. Gʻoʻza va olma.\r\nMen maktabga boraman! O'qish 2x yaxshi. Olma, OLMA!",
    2: "\ufeffМактаб ва синф. O‘qituvchi kitob o’qiydi; olma¼nok, behi². Ма\u0301ктаб.",
    3: "Bugun 3ta kitob oʼqidim. `Salom`, dedi u. Ⅳ bob: daraxt, quyosh… olma",
    4: "Yoz keldi\u00a0— quyosh porlaydi\u3000va daraxtlar gullaydi. 12-dars: tabiat, kitob.",
}
MIXED_QUERY = "Men olma va kitob o'qiydi, quyosh! Мактаб 5-синф; daraxt gullaydi."
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def mixed_manifest(tmp_path):
    for grade, text in MIXED_TEXTS.items():
        (tmp_path / f"class-{grade}.txt").write_text(text, encoding="utf-8", newline="")
    (tmp_path / "query.txt").write_text(MIXED_QUERY, encoding="utf-8")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(f"{g}\tclass-{g}.txt\n" for g in (1, 2, 3, 4)), encoding="utf-8")
    return manifest


class TestFormatScore:
    def test_half_away_from_zero(self):
        assert format_score(0.125, 2) == "0.13"
        assert format_score(0.135, 2) == "0.14"
        assert format_score(0.25, 1) == "0.3"

    def test_fixed_decimals(self):
        assert format_score(1.0, 2) == "1.00"
        assert format_score(0.0, 3) == "0.000"

    def test_large_precision(self):
        assert format_score(0.5, 40) == "0.5" + "0" * 39

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OutputSpec("table", 0)
        with pytest.raises(ValueError):
            OutputSpec("xml", 2)


class TestStats:
    def test_table(self, capsys, mini_manifest):
        code, out, err = run(capsys, "stats", "--manifest", str(mini_manifest))
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].split() == ["grade", "total_tokens", "unique_tokens"]
        assert lines[1].split() == ["1", "3", "2"]
        assert lines[2].split() == ["2", "4", "3"]
        assert lines[3].split() == ["3", "1", "1"]
        assert lines[4].split() == ["4", "1", "1"]
        assert lines[5].split() == ["overall", "6"]

    def test_tsv(self, capsys, mini_manifest):
        code, out, _ = run(capsys, "stats", "--manifest", str(mini_manifest), "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "grade\ttotal_tokens\tunique_tokens"
        assert lines[1] == "1\t3\t2"
        assert lines[-1] == "overall\t\t6"

    def test_json(self, capsys, mini_manifest):
        code, out, _ = run(capsys, "stats", "--manifest", str(mini_manifest), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["overall_unique"] == 6
        assert payload["grades"][1] == {"grade": 2, "total_tokens": 4, "unique_tokens": 3}


class TestMatrix:
    def test_table_diagonal(self, capsys, mini_manifest):
        code, out, _ = run(capsys, "matrix", "--manifest", str(mini_manifest))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["grade", "1", "2", "3", "4"]
        assert lines[1].split()[:3] == ["1", "1", "2"]  # diagonal: score 1, vocab size 2
        assert "0.00 0" in lines[3]  # grade 3 shares nothing with grade 1

    def test_disjoint_cells(self, capsys, disjoint_manifest):
        code, out, _ = run(capsys, "matrix", "--manifest", str(disjoint_manifest))
        assert code == 0
        assert out.count("0.00 0") == 12
        assert out.count("1 1") == 4

    def test_tsv_long_format(self, capsys, mini_manifest):
        code, out, _ = run(capsys, "matrix", "--manifest", str(mini_manifest), "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "row_grade\tcol_grade\tscore\tshared_unique"
        assert len(lines) == 17
        assert lines[1] == "1\t1\t1.00\t2"

    def test_json_cells(self, capsys, mini_manifest):
        code, out, _ = run(capsys, "matrix", "--manifest", str(mini_manifest), "--format", "json")
        payload = json.loads(out)
        assert payload["grades"] == [1, 2, 3, 4]
        assert payload["cells"][0][0] == {"score": 1.0, "shared_unique": 2}
        assert payload["cells"][2][3] == {"score": 0.0, "shared_unique": 0}


class TestClassify:
    def test_table_output(self, capsys, mini_manifest, tmp_path):
        query = tmp_path / "query.txt"
        query.write_text("olma behi", encoding="utf-8")
        code, out, _ = run(
            capsys, "classify", "--manifest", str(mini_manifest), "--input", str(query)
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == ["1", "0.45", "1"]
        assert lines[2].split() == ["2", "0.16", "1"]
        assert lines[3].split() == ["3", "0.00", "0"]
        assert lines[4].split() == ["4", "0.00", "0"]
        assert "decision: cosine-argmax" in out
        assert "chosen grade: 1" in out
        assert "recommended for grade 1" in out

    def test_precision_flag(self, capsys, mini_manifest, tmp_path):
        query = tmp_path / "query.txt"
        query.write_text("olma behi", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "classify", "--manifest", str(mini_manifest), "--input", str(query),
            "--format", "tsv", "--precision", "4",
        )
        assert code == 0
        assert out.splitlines()[1] == "1\t0.4459\t1\t1\tcosine-argmax"

    def test_containment_reported(self, capsys, mini_manifest, tmp_path):
        query = tmp_path / "query.txt"
        query.write_text("olma nok", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "classify", "--manifest", str(mini_manifest), "--input", str(query),
            "--format", "tsv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "1\t1.00\t2\t1\tcontainment"

    def test_json_schema(self, capsys, mini_manifest, tmp_path):
        query = tmp_path / "query.txt"
        query.write_text("olma behi", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "classify", "--manifest", str(mini_manifest), "--input", str(query),
            "--format", "json",
        )
        payload = json.loads(out)
        assert set(payload) == {"grades", "chosen_grade", "decision"}
        assert payload["chosen_grade"] == 1
        assert payload["decision"] == "cosine-argmax"
        assert payload["grades"][0] == {"grade": 1, "score": 0.45, "shared_unique": 1}


class TestReportBytes:
    @pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
    @pytest.mark.parametrize("command", ["stats", "classify", "matrix"])
    def test_default_output_is_pinned(self, capsys, mixed_manifest, command, fmt):
        argv = [command, "--manifest", str(mixed_manifest), "--format", fmt]
        if command == "classify":
            argv += ["--input", str(mixed_manifest.parent / "query.txt")]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / f"{command}.{fmt}").read_text(encoding="utf-8")


class TestErrors:
    def test_missing_manifest(self, capsys, tmp_path):
        code, out, err = run(capsys, "stats", "--manifest", str(tmp_path / "nope.tsv"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_incomplete_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "m.tsv"
        (tmp_path / "a.txt").write_text("olma", encoding="utf-8")
        manifest.write_text("1\ta.txt\n", encoding="utf-8")
        code, _, err = run(capsys, "stats", "--manifest", str(manifest))
        assert code == 1
        assert "grade" in err

    def test_nul_byte_in_manifest_path(self, capsys, mini_manifest):
        with mini_manifest.open("a", encoding="utf-8") as fh:
            fh.write("4\tc4\0.txt\n")
        code, out, err = run(capsys, "stats", "--manifest", str(mini_manifest))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {mini_manifest}:5: ") and err.count("\n") == 1

    def test_empty_query_file(self, capsys, mini_manifest, tmp_path):
        query = tmp_path / "query.txt"
        query.write_text("123 !!!", encoding="utf-8")
        code, _, err = run(
            capsys, "classify", "--manifest", str(mini_manifest), "--input", str(query)
        )
        assert code == 1
        assert "no tokens" in err

    def test_invalid_precision_is_usage_error(self, capsys, mini_manifest):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--manifest", str(mini_manifest), "--precision", "0"])
        assert excinfo.value.code == 2

    def test_unknown_format_is_usage_error(self, capsys, mini_manifest):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--manifest", str(mini_manifest), "--format", "xml"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("bad", ["corpus", "manifest", "input"])
    def test_undecodable_file_is_named(self, capsys, mini_manifest, bad):
        target = {
            "corpus": mini_manifest.parent / "class-3.txt",
            "manifest": mini_manifest,
            "input": mini_manifest.parent / "query.txt",
        }[bad]
        (mini_manifest.parent / "query.txt").write_text("olma", encoding="utf-8")
        target.write_bytes(b"ok \xff bad")
        code, out, err = run(
            capsys,
            "classify", "--manifest", str(mini_manifest),
            "--input", str(mini_manifest.parent / "query.txt"),
        )
        assert code == 1 and out == ""
        assert err == (
            f"error: 'utf-8' codec can't decode byte 0xff in position 3: invalid start byte in {target}\n"
        )
