import pytest

from textgrade import GRADES, GradedCorpus, tokenize

MINI_TEXTS = {
    1: "olma nok olma",
    2: "olma uzum anor uzum",
    3: "daraxt",
    4: "quyosh",
}


@pytest.fixture
def mini_corpus() -> GradedCorpus:
    return GradedCorpus.from_token_sequences({g: tokenize(t) for g, t in MINI_TEXTS.items()})


@pytest.fixture
def mini_manifest(tmp_path):
    """The mini corpus written to disk with a TSV manifest."""
    for grade, text in MINI_TEXTS.items():
        (tmp_path / f"class-{grade}.txt").write_text(text, encoding="utf-8")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        "".join(f"{g}\tclass-{g}.txt\n" for g in GRADES),
        encoding="utf-8",
    )
    return manifest


def random_case(rng):
    """One randomized mini-corpus and query as plain token lists.

    Tokens are pure ASCII letters so joining with spaces round-trips
    through the tokenizer. Queries occasionally use out-of-corpus terms
    so both decision paths get exercised.
    """
    alphabet = [f"w{chr(97 + i)}" for i in range(rng.randint(2, 20))]
    classes = {
        g: [rng.choice(alphabet) for _ in range(rng.randint(1, 50))] for g in GRADES
    }
    query_pool = list(alphabet)
    if rng.random() < 0.3:
        query_pool += ["qxa", "qxb"]
    query = [rng.choice(query_pool) for _ in range(rng.randint(1, 20))]
    return classes, query


def assert_loaded_as_built(loaded, built):
    """`loaded`, a corpus read from its stored index, holds what `built`
    holds, and its terms go in the stored order: `built`'s terms grouped
    by row, stably, the rows in `built.rows` order."""
    rank = dict(zip(built.rows, range(len(built.rows))))
    assert list(loaded.terms) == sorted(built.terms, key=lambda term: rank[built.terms[term]])
    assert loaded.terms == built.terms
    assert list(loaded.rows.items()) == list(built.rows.items())
    assert loaded.stats == built.stats
    assert loaded.squares4 == built.squares4
