import io
import json
import os
import subprocess
import sys
import tempfile
import zlib
from contextlib import redirect_stderr, redirect_stdout
from decimal import ROUND_HALF_UP, Decimal, localcontext
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import textgrade
from textgrade import GRADES, tokenize
from textgrade.cli import MAX_PRECISION, OutputSpec, format_score, main
from textgrade.corpus import build_corpus, load_manifest
from textgrade.index import SUFFIX, build_and_store, load_index
from textgrade.tokenizer import TokenSequence

from reference import ref_classify


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


def quantized(value, precision):
    """The score's shortest repr quantized half up to `precision` places."""
    with localcontext() as ctx:
        ctx.prec = max(28, precision + 10)
        quantum = Decimal(1).scaleb(-precision)
        return format(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP), "f")


# no score, the least subnormal, tiny and small ones, and ties at 2, 1 and 2 places
EDGE_SCORES = [0.0, 1.0, 5e-324, 1e-300, 2.5e-5, 0.125, 0.05, 0.005]


class TestFormatScore:
    @pytest.mark.parametrize("value", EDGE_SCORES)
    def test_edge_scores_round_like_quantize_at_every_precision(self, value):
        for precision in range(1, MAX_PRECISION + 1):
            assert format_score(value, precision) == quantized(value, precision)

    @given(st.floats(0.0, 1.0), st.integers(1, MAX_PRECISION))
    def test_rounds_like_quantize(self, value, precision):
        assert format_score(value, precision) == quantized(value, precision)

    def test_half_away_from_zero(self):
        assert format_score(0.125, 2) == "0.13"
        assert format_score(0.135, 2) == "0.14"
        assert format_score(0.25, 1) == "0.3"

    def test_fixed_decimals(self):
        assert format_score(1.0, 2) == "1.00"
        assert format_score(0.0, 3) == "0.000"

    def test_large_precision(self):
        assert format_score(0.5, 40) == "0.5" + "0" * 39

    def test_small_scores_print_in_fixed_point(self):
        assert format_score(0.0, 7) == "0.0000000"
        assert format_score(1e-9, 17) == "0.00000000100000000"
        assert format_score(5e-324, 324) == "0." + "0" * 323 + "5"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OutputSpec("table", 0)
        with pytest.raises(ValueError):
            OutputSpec("table", 325)
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
    @staticmethod
    def assert_pinned(capsys, manifest, command, fmt):
        argv = [command, "--manifest", str(manifest), "--format", fmt]
        if command == "classify":
            argv += ["--input", str(manifest.parent / "query.txt")]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / f"{command}.{fmt}").read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
    @pytest.mark.parametrize("command", ["stats", "classify", "matrix"])
    def test_default_output_is_pinned(self, capsys, mixed_manifest, command, fmt):
        self.assert_pinned(capsys, mixed_manifest, command, fmt)

    @pytest.mark.parametrize("command", ["stats", "classify", "matrix"])
    def test_no_command_builds_a_token_sequence(self, capsys, monkeypatch, mixed_manifest, command):
        # the corpus and the query are kept as term counts only
        def forbidden(*args, **kwargs):
            raise AssertionError("token sequence built on a command path")

        monkeypatch.setattr(TokenSequence, "__init__", forbidden)
        self.assert_pinned(capsys, mixed_manifest, command, "table")

    @pytest.mark.parametrize("precision", ["1", "6", "17", "324"])
    @pytest.mark.parametrize("command", ["matrix", "classify"])
    def test_every_format_shows_the_same_rounded_score(
        self, capsys, mini_manifest, command, precision
    ):
        query = mini_manifest.parent / "query.txt"
        query.write_text("olma behi uzum", encoding="utf-8")

        def report(fmt):
            argv = [command, "--manifest", str(mini_manifest), "--format", fmt]
            argv += ["--precision", precision]
            if command == "classify":
                argv += ["--input", str(query)]
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            return out.splitlines()

        # each format's scores keyed by (row grade, column grade), or by grade
        if command == "matrix":
            tsv = {(int(i), int(j)): s for i, j, s, _ in map(str.split, report("tsv")[1:])}
            cells = json.loads("\n".join(report("json")))["cells"]
            js = {(i, j): cells[i - 1][j - 1]["score"] for i, j in tsv}
            table = {
                (int(row[0]), j): score
                for row in map(str.split, report("table")[1:])
                for j, score in enumerate(row[1::2], start=1)
            }
        else:
            tsv = {int(row[0]): row[1] for row in map(str.split, report("tsv")[1:])}
            grades = json.loads("\n".join(report("json")))["grades"]
            js = {row["grade"]: row["score"] for row in grades}
            table = {int(row[0]): row[1] for row in map(str.split, report("table")[1:5])}
        assert len(tsv) == (16 if command == "matrix" else 4)
        assert all(len(score) == len("0.") + int(precision) for score in tsv.values())
        assert js == {key: float(score) for key, score in tsv.items()}
        # the matrix table prints its diagonal as 1
        diagonal = {(g, g): "1" for g in textgrade.GRADES} if command == "matrix" else {}
        assert table == {**tsv, **diagonal}

    @pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
    def test_stats_stores_the_index(self, capsys, monkeypatch, mixed_manifest, fmt):
        # every command opens the corpus one way: a stats run that misses
        # builds the index and stores it, and a later matrix loads it
        self.assert_pinned(capsys, mixed_manifest, "stats", fmt)

        def forbidden(*args, **kwargs):
            raise AssertionError("corpus counted despite a stored index")

        monkeypatch.setattr(textgrade.corpus, "count_corpus", forbidden)
        self.assert_pinned(capsys, mixed_manifest, "matrix", fmt)


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

    @pytest.mark.parametrize("command", ["stats", "classify", "matrix"])
    def test_grade_without_tokens(self, capsys, mini_manifest, command):
        # the message names each of the grade's files, and no other grade's
        folder = mini_manifest.parent
        (folder / "class-2.txt").write_text("123 !!!", encoding="utf-8")
        (folder / "blank.txt").write_text("\n", encoding="utf-8")
        with mini_manifest.open("a", encoding="utf-8") as fh:
            fh.write("3\tblank.txt\n2\tblank.txt\n")
        query = folder / "query.txt"
        query.write_text("olma", encoding="utf-8")
        argv = [command, "--manifest", str(mini_manifest)]
        if command == "classify":
            argv += ["--input", str(query)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        files = f"{folder / 'class-2.txt'}, {folder / 'blank.txt'}"
        assert err == f"error: grade 2 has no tokens in {files}\n"

    def test_empty_query_file(self, capsys, mini_manifest, tmp_path):
        query = tmp_path / "query.txt"
        query.write_text("123 !!!", encoding="utf-8")
        code, _, err = run(
            capsys, "classify", "--manifest", str(mini_manifest), "--input", str(query)
        )
        assert code == 1
        assert "no tokens" in err

    @staticmethod
    def usage_error(capsys, manifest, command, *options):
        """The exit code, stdout and last stderr line of a refused command line."""
        argv = [command, "--manifest", str(manifest), *options]
        if command == "classify":
            argv += ["--input", str(manifest.parent / "query.txt")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        return excinfo.value.code, captured.out, captured.err.splitlines()[-1]

    # only ASCII digits: not a sign, a space, an underscore or another
    # script's digit, all of which int() accepts
    @pytest.mark.parametrize(
        "value", ["0", "325", "x", "-3", "+3", " 3", "0_3", "\u0661", "\uff13"]
    )
    @pytest.mark.parametrize("command", ["stats", "matrix", "classify"])
    def test_invalid_precision_is_usage_error(self, capsys, mini_manifest, command, value):
        code, out, last = self.usage_error(
            capsys, mini_manifest, command, "--precision", value
        )
        assert code == 2 and out == ""
        prefix = f"textgrade {command}: error: argument --precision:"
        if value in ("0", "325"):
            assert last == f"{prefix} precision must be from 1 to 324"
        else:
            assert last == f"{prefix} invalid int value: {value!r}"

    def test_precision_above_the_last_digit_is_usage_error(self, capsys, mini_manifest):
        # 5e-324 is the least positive double: 324 places print every digit
        code, out, _ = run(
            capsys, "matrix", "--manifest", str(mini_manifest), "--format", "tsv",
            "--precision", "324",
        )
        assert code == 0
        scores = [line.split("\t")[2] for line in out.splitlines()[1:]]
        assert len(scores) == 16 and all(len(score) == len("0.") + 324 for score in scores)
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "--manifest", str(mini_manifest), "--precision", "325"])
        assert excinfo.value.code == 2
        assert "precision must be from 1 to 324" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "matrix", "classify"])
    def test_unknown_format_is_usage_error(self, capsys, mini_manifest, command):
        code, out, last = self.usage_error(capsys, mini_manifest, command, "--format", "xml")
        assert code == 2 and out == ""
        assert last.startswith(f"textgrade {command}: error: argument --format:")

    # corpus files are decoded in 16 KiB blocks, yet every offset is in the
    # file: past the first block, in a sequence split across two blocks,
    # and in a sequence cut short at the end of the file
    UNDECODABLE = [
        (b"ok \xff bad", "byte 0xff in position 3: invalid start byte"),
        # a byte-order mark counts: the offset is in the file, not the text
        (b"\xef\xbb\xbfok \xff bad", "byte 0xff in position 6: invalid start byte"),
        (b"olma " * 20_000 + b"\xff", "byte 0xff in position 100000: invalid start byte"),
        (b"a" * 65_535 + b"\xe2\x82(", "bytes in position 65535-65536: invalid continuation byte"),
        (b"olma " * 20_000 + b"\xe2\x82", "bytes in position 100000-100001: unexpected end of data"),
    ]

    @pytest.mark.parametrize("bad", ["corpus", "manifest", "input"])
    def test_undecodable_file_is_named(self, capsys, mini_manifest, bad):
        target = {
            "corpus": mini_manifest.parent / "class-3.txt",
            "manifest": mini_manifest,
            "input": mini_manifest.parent / "query.txt",
        }[bad]
        (mini_manifest.parent / "query.txt").write_text("olma", encoding="utf-8")
        for content, where in self.UNDECODABLE:
            target.write_bytes(content)
            code, out, err = run(
                capsys,
                "classify", "--manifest", str(mini_manifest),
                "--input", str(mini_manifest.parent / "query.txt"),
            )
            assert code == 1 and out == ""
            # a corpus file is named by its manifest line, class-3.txt's third
            prefix = {"corpus": f"{mini_manifest}:3: ", "manifest": "", "input": "input: "}[bad]
            assert err == f"error: {prefix}'utf-8' codec can't decode {where} in {target}\n"

    def test_input_is_a_directory(self, capsys, mini_manifest, tmp_path):
        code, out, err = run(
            capsys, "classify", "--manifest", str(mini_manifest), "--input", str(tmp_path)
        )
        assert code == 1 and out == ""
        assert err.startswith("error: input: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_missing_input(self, capsys, mini_manifest):
        query = mini_manifest.parent / "nope.txt"
        code, out, err = run(
            capsys, "classify", "--manifest", str(mini_manifest), "--input", str(query)
        )
        assert code == 1 and out == ""
        assert err == f"error: input: [Errno 2] No such file or directory: '{query}'\n"

    def test_manifest_entry_is_a_directory(self, capsys, mini_manifest):
        folder = mini_manifest.parent / "chapter"
        folder.mkdir()
        with mini_manifest.open("a", encoding="utf-8") as fh:
            fh.write("2\tchapter\n")
        code, out, err = run(capsys, "stats", "--manifest", str(mini_manifest))
        assert code == 1 and out == ""
        assert err == f"error: {mini_manifest}:5: [Errno 21] Is a directory: '{folder}'\n"

    @pytest.mark.parametrize("command", ["stats", "matrix", "classify"])
    def test_later_unreadable_file_is_reported_before_an_empty_grade(
        self, capsys, monkeypatch, tmp_path, command
    ):
        # grades are counted one at a time, yet a grade without tokens is
        # reported only once every grade has been read
        monkeypatch.chdir(tmp_path)
        for name, text in [("c1.txt", "olma"), ("e2.txt", "123 456"), ("c4.txt", "nok")]:
            Path(name).write_text(text, encoding="utf-8")
        Path("query.txt").write_text("olma", encoding="utf-8")
        Path("m.tsv").write_text("1\tc1.txt\n2\te2.txt\n3\tmissing.txt\n4\tc4.txt\n", encoding="utf-8")
        argv = [command, "--manifest", "m.tsv"]
        if command == "classify":
            argv += ["--input", "query.txt"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: m.tsv:3: [Errno 2] No such file or directory: 'missing.txt'\n"

    def test_unreadable_input(self, capsys, mini_manifest, monkeypatch):
        # file modes do not stop root, so the denial is simulated
        query = mini_manifest.parent / "query.txt"
        query.write_text("olma", encoding="utf-8")
        real_open = open

        def denied(file, *args, **kwargs):
            if str(file) == str(query):
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", denied)
        code, out, err = run(
            capsys, "classify", "--manifest", str(mini_manifest), "--input", str(query)
        )
        assert code == 1 and out == ""
        assert err == f"error: input: [Errno 13] Permission denied: '{query}'\n"

    @staticmethod
    def stats_writing_to(fd, mini_manifest):
        """The exit code and stderr of `textgrade stats` in a fresh process
        whose stdout is `fd`, or closed if `fd` is None; closes `fd`."""
        src = Path(textgrade.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        script = "import sys; from textgrade.cli import main; sys.exit(main())"
        try:
            proc = subprocess.run(
                [sys.executable, "-c", script, "stats", "--manifest", str(mini_manifest)],
                stdout=fd,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": path},
                timeout=60,
                preexec_fn=(lambda: os.close(1)) if fd is None else None,
            )
        finally:
            if fd is not None:
                os.close(fd)
        return proc.returncode, proc.stderr.decode()

    def test_closed_stdout_is_a_one_line_error(self, mini_manifest):
        read_end, write_end = os.pipe()
        os.close(read_end)
        code, err = self.stats_writing_to(write_end, mini_manifest)
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: cannot write standard output: ") and err.count("\n") == 1

    def test_stdout_closed_at_start_is_a_one_line_error(self, mini_manifest):
        # Python sets sys.stdout to None when fd 1 is closed at start
        code, err = self.stats_writing_to(None, mini_manifest)
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: cannot write standard output: ") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_full_stdout_is_a_one_line_error(self, mini_manifest):
        code, err = self.stats_writing_to(os.open("/dev/full", os.O_WRONLY), mini_manifest)
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: cannot write standard output: ") and err.count("\n") == 1
        assert "No space left on device" in err


def index_file(manifest):
    return Path(f"{manifest}{SUFFIX}")


def split_lines(section):
    """The LF-ended lines of `section`, each with its LF."""
    return [line + b"\n" for line in section.split(b"\n")[:-1]]


def sections(data):
    """The key line, the row lines, the row numbers, their width and the
    term lines of the index file `data`."""
    key, head, rest = data.split(b"\n", 2)
    row_bytes, count, width = map(int, head.split())
    end = row_bytes + count * width
    rows, packed, terms = rest[:row_bytes], rest[row_bytes:end], rest[end:-9]
    starts = range(0, len(packed), width)
    numbers = [int.from_bytes(packed[i : i + width], "little") for i in starts]
    return key + b"\n", split_lines(rows), numbers, width, split_lines(terms)


def sealed(key, rows, numbers, width, terms, count=None):
    """An index file of these sections, its header and its CRC line made
    from them; the header states `count` terms if given, else one per
    row number."""
    body = b"".join(rows)
    head = b"%d %d %d\n" % (len(body), len(numbers) if count is None else count, width)
    body = head + body + b"".join(n.to_bytes(width, "little") for n in numbers) + b"".join(terms)
    return key + body + b"%08x\n" % zlib.crc32(body)


def damaged(data, damage):
    """The index file `data` with one kind of damage. The inconsistent ones
    are sealed with a good CRC, so that a check other than the CRC's
    must reject them."""
    key, rows, numbers, width, terms = sections(data)
    if damage == "truncated":
        return data[:-40]
    if damage == "bit-flipped":
        # in the last byte of the first term, which only the CRC shows
        at = len(data) - len(b"".join(terms)) - 9 + len(terms[0]) - 2
        return data[:at] + bytes([data[at] ^ 0x02]) + data[at + 1 :]
    if damage == "foreign first line":
        return b"textgrade-index 0 of another corpus\n" + data[len(key) :]
    if damage == "format 1":
        # the same corpus as the format before, rows, an empty line, then
        # "<row number> <term>" lines, under that format's key
        key = key.replace(b"textgrade-index 2 ", b"textgrade-index 1 ")
        body = b"".join(rows) + b"\n"
        body += b"".join(b"%d %s" % (n, term) for n, term in zip(numbers, terms))
        return key + body + b"%08x\n" % zlib.crc32(body)
    count = len(numbers)
    if damage == "k changed":
        rows[0] = rows[0].rstrip(b"\n") + b"1\n"
    elif damage == "df4 changed":
        # to another grade count, which is not the row's count of nonzero counts
        rows[0] = (b"3" if rows[0].startswith(b"4") else b"4") + rows[0][1:]
    elif damage == "df4 zero":
        # the first row, the one most terms name, has one grade's count
        assert rows[0].startswith(b"1 ")
        rows[0] = b"0" + rows[0][1:]
    elif damage == "counts all zero":
        rows[0] = b"0 0 0 0 0 " + rows[0].split(b" ")[-1]
    elif damage == "count negative":
        # still one nonzero count, as df4 says
        fields = rows[0].split(b" ")
        at = next(i for i in range(1, 5) if fields[i] != b"0")
        fields[at] = b"-" + fields[at]
        rows[0] = b" ".join(fields)
    elif damage == "row of seven numbers":
        rows[-1] = rows[-1].rstrip(b"\n") + b" 1\n"
    elif damage == "term duplicated":
        terms[1] = terms[0]
    elif damage == "term line empty":
        terms[0] = b"\n"
    elif damage == "term line added":
        terms.append(b"yangi\n")
    elif damage == "row out of range":
        numbers[0] = (1 << 8 * width) - 1
    elif damage == "row number at the row count":
        numbers[0] = len(rows)
    elif damage == "row named once more and once less":
        # the sum of k still holds
        other = next(n for n in numbers if n != numbers[0])
        numbers[numbers.index(other)] = numbers[0]
    elif damage == "row numbers short":
        # the header still states every term
        numbers.pop()
    elif damage == "width 3":
        width = 3
    elif damage == "sections past the end":
        # read without the check, a block this long would not fit in memory
        count = 10**15
    return sealed(key, rows, numbers, width, terms, count)


BAD_INDEXES = [
    "truncated",
    "bit-flipped",
    "foreign first line",
    "format 1",
    "k changed",
    "df4 changed",
    "df4 zero",
    "counts all zero",
    "count negative",
    "row of seven numbers",
    "term duplicated",
    "term line empty",
    "term line added",
    "row out of range",
    "row number at the row count",
    "row named once more and once less",
    "row numbers short",
    "width 3",
    "sections past the end",
]


@pytest.fixture
def many_rows_manifest(tmp_path):
    """A corpus of 13 distinct rows, so that one row number is 10, the
    byte 0x0A: twelve Cyrillic terms of grade 1, the nth of them n times,
    and one term of every other grade."""
    words = [f"сўз{chr(0x430 + n)}" for n in range(12)]
    texts = {1: " ".join(" ".join([w] * n) for n, w in enumerate(words, start=1))}
    texts.update({g: "olma" for g in (2, 3, 4)})
    for grade, text in texts.items():
        (tmp_path / f"class-{grade}.txt").write_text(text, encoding="utf-8")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(f"{g}\tclass-{g}.txt\n" for g in GRADES), encoding="utf-8")
    return manifest


class TestStoredIndex:
    """Every command stores the corpus index beside the manifest when it
    finds none it can use, and every later run whose corpus files still
    match it loads it instead of counting them."""

    @staticmethod
    def argv(manifest, command, fmt="table"):
        argv = [command, "--manifest", str(manifest), "--format", fmt]
        if command == "classify":
            argv += ["--input", str(manifest.parent / "query.txt")]
        return argv

    @staticmethod
    def uncounted(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("corpus counted despite a stored index")

        monkeypatch.setattr(textgrade.corpus, "count_corpus", forbidden)

    @pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
    @pytest.mark.parametrize("command", ["stats", "classify", "matrix"])
    def test_second_run_loads_the_index(self, capsys, monkeypatch, mixed_manifest, command, fmt):
        golden = (GOLDEN / f"{command}.{fmt}").read_text(encoding="utf-8")
        assert run(capsys, *self.argv(mixed_manifest, command, fmt)) == (0, golden, "")
        assert index_file(mixed_manifest).exists()
        self.uncounted(monkeypatch)
        assert run(capsys, *self.argv(mixed_manifest, command, fmt)) == (0, golden, "")

    @pytest.mark.parametrize("damage", BAD_INDEXES)
    @pytest.mark.parametrize("command", ["stats", "classify", "matrix"])
    def test_bad_index_is_rebuilt(self, capsys, mixed_manifest, command, damage):
        assert run(capsys, *self.argv(mixed_manifest, "matrix"))[0] == 0
        path = index_file(mixed_manifest)
        good = path.read_bytes()
        path.write_bytes(damaged(good, damage))
        assert load_index(load_manifest(mixed_manifest)) is None
        golden = (GOLDEN / f"{command}.table").read_text(encoding="utf-8")
        assert run(capsys, *self.argv(mixed_manifest, command)) == (0, golden, "")
        assert path.read_bytes() == good

    @pytest.mark.parametrize("damage", BAD_INDEXES)
    def test_bad_index_with_a_line_feed_row_number_is_refused(self, many_rows_manifest, damage):
        manifest = load_manifest(many_rows_manifest)
        build_and_store(manifest)
        path = index_file(many_rows_manifest)
        good = path.read_bytes()
        _, rows, numbers, width, _ = sections(good)
        assert (len(rows), width) == (13, 1) and b"\n"[0] in numbers
        path.write_bytes(damaged(good, damage))
        assert load_index(manifest) is None

    @pytest.mark.parametrize(
        "edit",
        ["corpus same length", "corpus appended", "manifest reordered", "manifest appended"],
    )
    @pytest.mark.parametrize("command", ["stats", "matrix"])
    def test_edit_after_the_write_is_counted(self, capsys, mixed_manifest, command, edit):
        assert run(capsys, *self.argv(mixed_manifest, "matrix"))[0] == 0
        before = run(capsys, *self.argv(mixed_manifest, command, "tsv"))
        folder = mixed_manifest.parent
        if edit == "corpus same length":
            text = (folder / "class-3.txt").read_text(encoding="utf-8")
            (folder / "class-3.txt").write_text(text.replace("olma", "nokk"), encoding="utf-8")
        elif edit == "corpus appended":
            with (folder / "class-1.txt").open("a", encoding="utf-8") as fh:
                fh.write(" yangi soʻz")
        elif edit == "manifest reordered":
            mixed_manifest.write_text("1\tclass-2.txt\n2\tclass-1.txt\n3\tclass-3.txt\n4\tclass-4.txt\n")
        else:
            with mixed_manifest.open("a", encoding="utf-8") as fh:
                fh.write("4\tclass-1.txt\n")
        after = run(capsys, *self.argv(mixed_manifest, command, "tsv"))
        index_file(mixed_manifest).unlink()
        fresh = run(capsys, *self.argv(mixed_manifest, command, "tsv"))
        assert after == fresh and after[0] == 0
        assert after != before

    def test_file_edited_during_the_build_is_counted_again(
        self, capsys, monkeypatch, mixed_manifest
    ):
        # the index is stored under the key of the bytes counted, so an
        # edit made after a file was read does not match it
        edited = mixed_manifest.parent / "class-3.txt"
        real_read_blocks = textgrade.corpus.read_blocks

        def edit_after_reading(path):
            digest = yield from real_read_blocks(path)
            if path == edited:
                with edited.open("a", encoding="utf-8") as fh:
                    fh.write(" yangi soʻz")
            return digest

        monkeypatch.setattr(textgrade.corpus, "read_blocks", edit_after_reading)
        during = run(capsys, *self.argv(mixed_manifest, "stats", "tsv"))
        assert run(capsys, *self.argv(mixed_manifest, "matrix"))[0] == 0
        monkeypatch.undo()
        after = run(capsys, *self.argv(mixed_manifest, "stats", "tsv"))
        index_file(mixed_manifest).unlink()
        assert after == run(capsys, *self.argv(mixed_manifest, "stats", "tsv"))
        assert after != during

    @pytest.mark.parametrize("call", ["open", "replace"])
    def test_failed_write_is_silent(self, capsys, monkeypatch, mixed_manifest, call):
        # file modes do not stop root, so the denial is simulated
        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, call, denied)
        golden = (GOLDEN / "classify.table").read_text(encoding="utf-8")
        assert run(capsys, *self.argv(mixed_manifest, "classify")) == (0, golden, "")
        monkeypatch.undo()
        # no index, and no half-written file left behind
        assert sorted(p.name for p in mixed_manifest.parent.iterdir()) == [
            *(f"class-{g}.txt" for g in GRADES),
            "manifest.tsv",
            "query.txt",
        ]

    @pytest.mark.parametrize("loss", ["deleted", "unreadable"])
    def test_corpus_file_lost_after_the_write(self, capsys, monkeypatch, mixed_manifest, loss):
        assert run(capsys, *self.argv(mixed_manifest, "matrix"))[0] == 0
        lost = mixed_manifest.parent / "class-3.txt"
        if loss == "deleted":
            lost.unlink()
            reason = "[Errno 2] No such file or directory"
        else:
            real_open = open

            def denied(file, *args, **kwargs):
                if str(file) == str(lost):
                    raise PermissionError(13, "Permission denied", str(file))
                return real_open(file, *args, **kwargs)

            monkeypatch.setattr("builtins.open", denied)
            reason = "[Errno 13] Permission denied"
        for command in ["stats", "classify", "matrix"]:
            code, out, err = run(capsys, *self.argv(mixed_manifest, command))
            assert (code, out) == (1, "")
            assert err == f"error: {mixed_manifest}:3: {reason}: '{lost}'\n"

    @pytest.mark.parametrize("fixture", ["mini_manifest", "mixed_manifest", "many_rows_manifest"])
    def test_loaded_corpus_equals_the_built_one(self, request, fixture):
        manifest = load_manifest(request.getfixturevalue(fixture))
        built = build_and_store(manifest)
        loaded = load_index(manifest)
        assert list(loaded.terms.items()) == list(built.terms.items())
        assert loaded.squares4 == built.squares4
        assert loaded.stats == built.stats
        assert built == build_corpus(manifest)
        # the rows go from the largest k down, so most row numbers are small
        ks = [int(row.split()[-1]) for row in sections(index_file(manifest.path).read_bytes())[1]]
        assert ks == sorted(ks, reverse=True)

    @staticmethod
    def python(script):
        """The last line `script` prints in a fresh interpreter that imports
        this package, and nothing on stderr."""
        src = Path(textgrade.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
            text=True,
            timeout=60,
        )
        assert proc.stderr == ""
        return proc.stdout.splitlines()[-1]

    def test_a_hit_imports_neither_json_nor_hashlib(self, capsys, mixed_manifest):
        assert run(capsys, *self.argv(mixed_manifest, "matrix"))[0] == 0
        script = (
            "import sys, textgrade.corpus\n"
            "textgrade.corpus.count_corpus = None\n"
            "from textgrade.cli import main\n"
            f"code = main({self.argv(mixed_manifest, 'classify')!r})\n"
            "print(code, sorted({'json', 'hashlib'} & sys.modules.keys()))\n"
        )
        assert self.python(script) == "0 []"

    def test_the_index_is_neither_marshalled_nor_pickled(self, mixed_manifest):
        # the import system holds marshal already, so both are made
        # unimportable: a miss stores the index and a hit loads it without
        script = (
            "import sys\n"
            "sys.modules.update(marshal=None, pickle=None)\n"
            "from textgrade.cli import main\n"
            "from textgrade.corpus import load_manifest\n"
            "from textgrade.index import load_index\n"
            f"argv = {self.argv(mixed_manifest, 'classify')!r}\n"
            "codes = [main(argv), main(argv)]\n"
            "print(codes, load_index(load_manifest(argv[2])) is not None)\n"
        )
        assert self.python(script) == "[0, 0] True"


# Pieces of corpus and query text: Latin, Cyrillic, oʻ and gʻ spelled
# with each apostrophe variant, combining marks, separators only, nothing.
FRAGMENTS = [
    "olma nok olma",
    "Oʻzbek tili",
    "Мактаб ва синф",
    "китоб",
    *(f"o{a}qish g{a}oza" for a in ["'", "‘", "’", "ʻ", "ʼ", "`"]),
    "Ма\u0301ктаб",
    "cafe\u0301 e\u0301",
    " \t\r\n,.!",
    "\u00a0\u3000\u2028",
    "",
]
# Bytes that are not UTF-8: a stray continuation or invalid byte, a
# truncated sequence, an overlong encoding.
BAD_UTF8 = [b"\xff", b"\x80", b"\xd0", b"\xe2\x80", b"\xc0\xaf"]
# Manifest grade fields: the four grades, other ASCII digits, and fields
# that only look like a grade.
GRADE_FIELDS = ["1", "2", "3", "4", "0", "5", "01", "+1", "1 ", "\u0661", "\uff11", "one", ""]
FILES = ["a.txt", "b.txt", "c.txt"]
MISSING = "missing.txt"


def rarely(draw):
    """True in about one draw in eight, so that most runs get far enough
    to print a report."""
    return draw(st.integers(0, 7)) == 0


@st.composite
def text_files(draw):
    """A text file's bytes: fragments, a BOM or not, now and then bad UTF-8."""
    text = " ".join(draw(st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=4)))
    return with_bad_utf8(draw, (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8"))


def with_bad_utf8(draw, data):
    """`data`, now and then with bytes that are not UTF-8 put in anywhere."""
    if rarely(draw):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_UTF8)) + data[at:]
    return data


@st.composite
def manifests(draw):
    """(entries, manifest bytes): one entry per grade, now and then one
    left out or a few more drawn from the grade-field pool, in any order
    among comments and blank lines, with LF, CR or CRLF line ends, a BOM
    or not, and now and then bad UTF-8."""
    entries = [(str(g), draw(st.sampled_from(FILES))) for g in GRADES]
    if rarely(draw):
        del entries[draw(st.integers(0, len(entries) - 1))]
    if rarely(draw):
        extra = st.tuples(st.sampled_from(GRADE_FIELDS), st.sampled_from([*FILES, MISSING]))
        entries += draw(st.lists(extra, min_size=1, max_size=2))
    entries = draw(st.permutations(entries))
    lines = [f"{field}\t{name}" for field, name in entries]
    comment = st.sampled_from(["# grade 1", "", "  ", "#1\ta.txt"])
    for at, line in draw(st.lists(st.tuples(st.integers(0, len(lines)), comment), max_size=3)):
        lines.insert(at, line)
    newline = draw(st.sampled_from(["\n", "\r", "\r\n"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines)
    text += draw(st.sampled_from(["", newline]))
    return entries, with_bad_utf8(draw, text.encode("utf-8"))


@st.composite
def options(draw):
    """(--format, --precision), either left out, now and then out of range
    or not a run of ASCII digits."""
    fmt = draw(st.sampled_from([None, "table", "tsv", "json"]))
    if rarely(draw):
        fmt = draw(st.sampled_from(["xml", "JSON", ""]))
    precision = draw(st.sampled_from([None, "1", "2", "9", "12", "17", "324"]))
    if rarely(draw):
        precision = draw(
            st.sampled_from(
                ["0", "325", "-3", "x", "1.5", "", "+3", " 3", "0_3", "\u0661", "\uff13"]
            )
        )
    return fmt, precision


def printed_classification(out, fmt):
    """(scores, shared counts, chosen grade, decision) as a report prints them."""
    if fmt == "json":
        report = json.loads(out)
        grades = report["grades"]
        scores = {row["grade"]: row["score"] for row in grades}
        shared = {row["grade"]: row["shared_unique"] for row in grades}
        return scores, shared, report["chosen_grade"], report["decision"]
    if fmt == "tsv":
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        chosen, decision = rows[0][3:]
    else:
        lines = out.splitlines()
        rows = [line.split() for line in lines[1:5]]
        decision = lines[6].removeprefix("decision: ")
        chosen = lines[7].removeprefix("chosen grade: ")
    scores = {int(row[0]): float(row[1]) for row in rows}
    shared = {int(row[0]): int(row[2]) for row in rows}
    return scores, shared, int(chosen), decision


class TestContract:
    """Odd manifests, corpus texts and arguments, run through `main` in
    process: each run ends in a report, one `error:` line, or an argparse
    usage error, and never in a traceback; run again, it ends alike."""

    @staticmethod
    def run_main(argv, block):
        """The exit code, stdout and stderr of `main(argv)`."""
        out, err = io.StringIO(), io.StringIO()
        # small blocks put bad bytes and multi-byte characters on block edges
        with redirect_stdout(out), redirect_stderr(err), mock.patch.object(
            textgrade.corpus, "_BLOCK", block
        ):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        manifest=manifests(),
        texts=st.fixed_dictionaries({name: text_files() for name in FILES}),
        query=text_files(),
        # classify twice over: its scores are checked against the reference
        command=st.sampled_from(["stats", "matrix", "classify", "classify"]),
        options=options(),
        block=st.sampled_from([1, 2, 3, 5, 64]),
    )
    def test_every_run_ends_in_a_report_or_one_error(
        self, tmp_path_factory, manifest, texts, query, command, options, block
    ):
        entries, manifest_bytes = manifest
        fmt, precision = options
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            tmp = Path(tmp)
            for name, data in texts.items():
                (tmp / name).write_bytes(data)
            (tmp / "query.txt").write_bytes(query)
            (tmp / "m.tsv").write_bytes(manifest_bytes)
            argv = [command, "--manifest", str(tmp / "m.tsv")]
            if command == "classify":
                argv += ["--input", str(tmp / "query.txt")]
            if fmt is not None:
                argv += ["--format", fmt]
            if precision is not None:
                argv += ["--precision", precision]
            # the first run may store the corpus index, which the second loads
            code, out, err = self.run_main(argv, block)
            assert self.run_main(argv, block) == (code, out, err)
        if code == 2:
            assert out == ""
            assert err.splitlines()[-1].startswith(f"textgrade {command}: error:")
            return
        if code == 1:
            assert out == ""
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
            return
        assert code == 0, (code, out, err)
        assert err == ""
        assert precision is None or (precision.isascii() and precision.isdigit())
        if command != "classify":
            return
        # a grade's text is the newline join of its files in manifest order
        classes = {
            g: list(tokenize("\n".join(texts[name].decode() for field, name in entries if field == str(g))))
            for g in GRADES
        }
        expected = ref_classify(list(tokenize(query.decode())), classes)
        scores, shared, chosen, decision = printed_classification(out, fmt or "table")
        # each printed score is the score rounded half up to the places asked for
        slack = 10.0 ** -int(precision or 2) / 2 + 1e-9
        for g in GRADES:
            assert abs(scores[g] - expected["scores"][g]) <= slack
        assert shared == expected["shared"]
        assert decision == expected["decision"]
        if decision == "containment":
            assert chosen == expected["chosen"]
        else:
            # a tie in exact arithmetic may round either way in the oracle
            assert expected["scores"][chosen] >= max(expected["scores"].values()) - 1e-9


def cyrillic_word(n):
    """A distinct two-byte-per-letter Cyrillic word for each n >= 0."""
    return "сўз" + "".join("абвгдежзий"[int(digit)] for digit in str(n))


@st.composite
def stored_corpora(draw):
    """Grade texts of FRAGMENTS, each with a word. One grade has enough
    distinct Cyrillic words that the term lines pass one or two 16 KiB
    block edges, at an offset that their number moves. Now and then
    grades 1 and 2 share a grid of words, a times in one and b in the
    other, so that 289 distinct rows take two bytes to number."""
    fragments = st.lists(st.sampled_from(FRAGMENTS), max_size=4)
    texts = {g: " ".join([*draw(fragments), "olma"]) for g in GRADES}
    words = map(cyrillic_word, range(draw(st.integers(0, 2400))))
    texts[draw(st.sampled_from(GRADES))] += " " + " ".join(words)
    side = draw(st.sampled_from([0, 17]))
    for a, b in product(range(1, side + 1), repeat=2):
        word = cyrillic_word(10_000 + 100 * a + b)
        texts[1] += f" {word}" * a
        texts[2] += f" {word}" * b
    return texts


class TestIndexRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(texts=stored_corpora())
    def test_the_stored_index_loads_as_built(self, texts):
        with tempfile.TemporaryDirectory() as folder:
            folder = Path(folder)
            for grade, text in texts.items():
                (folder / f"class-{grade}.txt").write_text(text, encoding="utf-8", newline="")
            path = folder / "manifest.tsv"
            path.write_text("".join(f"{g}\tclass-{g}.txt\n" for g in GRADES), encoding="utf-8")
            manifest = load_manifest(path)
            built = build_and_store(manifest)
            loaded = load_index(manifest)
        assert list(loaded.terms.items()) == list(built.terms.items())
        assert loaded.squares4 == built.squares4
        assert loaded.stats == built.stats
