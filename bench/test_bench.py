"""The benchmark's own tests: generator, independent checker, spans.

    python3 -m pytest -q bench/test_bench.py

The checker is compared with the brute-force oracle tests/reference.py
on small random corpora (the oracle is too slow at full size), and is
shown to catch deliberately wrong results.
"""

from __future__ import annotations

import ast
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from reference import GRADES, ref_classify, ref_pair_similarity  # noqa: E402
from textgrade import GradedCorpus, classify, class_similarity_matrix, tokenize  # noqa: E402
from textgrade.cli import OutputSpec, render_classification, render_matrix, render_stats  # noqa: E402


@pytest.fixture(scope="module")
def generator():
    return gen.Generator(3)


@pytest.fixture(scope="module")
def corpus(generator):
    return generator.corpus()


def _acceptance_constant(name: str) -> dict:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == name:
            return ast.literal_eval(node.value)
    raise KeyError(name)


# --- generator ----------------------------------------------------------------


def test_targets_are_the_published_sizes():
    assert gen.EXPECTED_TOTAL == _acceptance_constant("EXPECTED_TOTAL")
    assert gen.EXPECTED_UNIQUE == _acceptance_constant("EXPECTED_UNIQUE")


@pytest.mark.parametrize("seed", [1, 2])
def test_corpus_sizes_within_two_percent(seed):
    stats = gen.corpus_stats(gen.Generator(seed).corpus())
    for g in gen.GRADES:
        assert stats["total_tokens"][g] == gen.EXPECTED_TOTAL[g]
        assert abs(stats["unique_tokens"][g] - gen.EXPECTED_UNIQUE[g]) <= 0.02 * gen.EXPECTED_UNIQUE[g]


def test_rendered_text_tokenizes_to_ground_truth(generator, corpus):
    docs = [d for g in gen.GRADES for d in corpus[g]]
    docs += generator.batch_queries(corpus, 40, "t") + generator.long_queries(1, "t")
    for doc in docs:
        assert list(tokenize(doc.text).tokens) == doc.tokens


def test_text_exercises_the_tokenizer(corpus):
    text = "".join(d.text for g in gen.GRADES for d in corpus[g])
    for variant in gen.APOSTROPHE_VARIANTS:
        assert variant in text
    assert any(c.isupper() for c in text)
    assert any(c.isdigit() for c in text)
    assert any("Ѐ" <= c <= "ӿ" for c in text)


def test_same_seed_same_inputs(generator, corpus):
    again = gen.Generator(3)
    assert again.corpus()[1][0].text == corpus[1][0].text
    assert again.batch_queries(corpus, 3, "t") == generator.batch_queries(corpus, 3, "t")
    assert gen.Generator(4).corpus()[1][0].text != corpus[1][0].text


def test_query_paths(generator, corpus):
    ref = check.Reference({g: [t for d in corpus[g] for t in d.tokens] for g in gen.GRADES})
    batch = [ref.classify(q.tokens).decision for q in generator.batch_queries(corpus, 40, "t")]
    assert batch.count(check.CONTAINMENT) == 10
    long = generator.long_queries(2, "t")
    assert all(10_000 <= len(q.tokens) <= 50_000 for q in long)
    assert all(ref.classify(q.tokens).decision == check.COSINE_ARGMAX for q in long)


# --- checker --------------------------------------------------------------------


def _random_case(rng):
    alphabet = [f"w{chr(97 + i)}" for i in range(rng.randint(2, 20))]
    classes = {g: [rng.choice(alphabet) for _ in range(rng.randint(1, 50))] for g in GRADES}
    pool = alphabet + (["qxa", "qxb"] if rng.random() < 0.3 else [])
    return classes, [rng.choice(pool) for _ in range(rng.randint(1, 20))]


def test_checker_matches_reference_oracle():
    rng = random.Random(7)
    for _ in range(300):
        classes, query = _random_case(rng)
        got = check.Reference(classes).classify(query)
        want = ref_classify(query, classes)
        assert got.decision == want["decision"]
        assert got.chosen == want["chosen"]
        assert got.shared == want["shared"]
        for g in GRADES:
            assert abs(got.scores[g] - want["scores"][g]) <= 1e-12


def test_checker_matrix_matches_reference_oracle():
    rng = random.Random(8)
    for _ in range(100):
        classes, _ = _random_case(rng)
        cells = check.Reference(classes).matrix()
        docs = [classes[g] for g in GRADES]
        for i in GRADES:
            for j in GRADES:
                score, shared = ref_pair_similarity(classes[j], classes[i], docs)
                assert abs(cells[i, j][0] - score) <= 1e-12
                assert cells[i, j][1] == shared


def _mini():
    rng = random.Random(9)
    classes, query = _random_case(rng)
    while check.Reference(classes).classify(query).decision != check.COSINE_ARGMAX:
        classes, query = _random_case(rng)
    corpus = GradedCorpus.from_token_sequences({g: tokenize(" ".join(t)) for g, t in classes.items()})
    return classes, query, corpus


def test_correct_result_passes():
    classes, query, corpus = _mini()
    result = classify(" ".join(query), corpus)
    expected = check.Reference(classes).classify(query)
    assert check.check_classification(
        expected, result.chosen_grade, result.decision, result.scores, result.shared_unique
    ) == []


@pytest.mark.parametrize(
    "field, wrong",
    [
        ("scores", lambda s: {**s, 2: s[2] + 1e-6}),
        ("shared", lambda s: {**s, 3: s[3] + 1}),
        ("decision", lambda d: check.CONTAINMENT),
        ("chosen", lambda c: 1 if c != 1 else 2),
    ],
)
def test_wrong_result_is_caught(field, wrong):
    classes, query, corpus = _mini()
    result = classify(" ".join(query), corpus)
    got = {
        "chosen": result.chosen_grade,
        "decision": result.decision,
        "scores": dict(result.scores),
        "shared": dict(result.shared_unique),
    }
    got[field] = wrong(got[field])
    expected = check.Reference(classes).classify(query)
    assert check.check_classification(expected, **got)


@pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
def test_cli_outputs_parsed_and_checked(fmt):
    classes, query, corpus = _mini()
    ref = check.Reference(classes)
    spec = OutputSpec(fmt, 6)
    expected = ref.classify(query)
    cells = ref.matrix()
    outputs = {
        "stats": render_stats(corpus.stats, spec),
        "classify": render_classification(classify(" ".join(query), corpus), spec),
        "matrix": render_matrix(class_similarity_matrix(corpus), spec),
    }
    assert check.check_stats_output(outputs["stats"], fmt, ref) == []
    assert check.check_classify_output(outputs["classify"], fmt, expected, 6) == []
    assert check.check_matrix_output(outputs["matrix"], fmt, cells, 6) == []
    # a wrong score in the printed output is caught
    bad = dict(expected.scores)
    bad[4] += 1e-4
    wrong = check.Expected(expected.chosen, expected.decision, bad, expected.shared)
    assert check.check_classify_output(outputs["classify"], fmt, wrong, 6)
    wrong_cells = {**cells, (1, 2): (cells[1, 2][0] + 1e-4, cells[1, 2][1])}
    assert check.check_matrix_output(outputs["matrix"], fmt, wrong_cells, 6)
    assert check.check_stats_output(outputs["stats"].replace("1", "7", 1), fmt, ref)


# --- spans ------------------------------------------------------------------------


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 101))
    pct, value = spans.tail(values)
    assert value == 90 and pct == 90.0
    assert len([v for v in values if v > value]) == 10


def test_self_time_from_replayed_children():
    tracer = spans.Tracer("t")
    tracer.record("classifier.classify", "q0", 0.0, 10.0, decision="cosine-argmax")
    root = tracer.spans[0]
    for name, start, end in [
        ("tokenizer.tokenize", 10.0, 11.0),
        ("classifier.containment_class", 11.0, 11.5),
        ("similarity.pair_similarity", 11.5, 14.5),
        ("similarity.pair_similarity", 14.5, 17.5),
    ]:
        tracer.spans.append({"id": f"t:{len(tracer.spans)}", "name": name, "rid": "q0",
                             "parent": root["id"], "start": start, "end": end})
    metrics = spans.layer_metrics(tracer.spans, [9.0])
    assert metrics["classifier.self_ms"][0] == pytest.approx((10.0 - 1.0 - 0.5 - 6.0) * 1000)
    assert metrics["similarity.pair_ms"][0] == pytest.approx(6000.0)
    assert metrics["classifier.containment_share"][0] == 0.0
    assert metrics["trace.overhead_pct"][0] == pytest.approx(100 / 9)
    # layers with no spans are absent, not zero
    assert "similarity.matrix_ms" not in metrics


# --- the harness ----------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, run.py exits nonzero
    without printing a result."""
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "cli-fresh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
