"""The contract of the package's records: what `@dataclass(frozen=True)` gave them."""

import inspect
import pickle
from collections import Counter
from pathlib import Path

import pytest

from textgrade import GRADES, build_corpus, load_manifest, tokenize
from textgrade.classifier import ClassificationResult
from textgrade.cli import OutputSpec
from textgrade.corpus import ClassDocument, CorpusManifest, CorpusStats, GradedCorpus, Vocabulary
from textgrade.scoring import (
    ClassSimilarityMatrix,
    DocumentCollection,
    PairSimilarity,
    WeightedVector,
)
from textgrade.tokenizer import TokenSequence

from conftest import MINI_TEXTS

PAIR = PairSimilarity(0.5, 2, 7)
SEQ = TokenSequence(("olma", "nok", "olma"))
VOCAB = Vocabulary(("nok", "olma"))


# Each record's fields in constructor order.
FIELDS = {
    TokenSequence: ("tokens",),
    Vocabulary: ("terms",),
    ClassDocument: ("grade", "tokens"),
    CorpusStats: ("total_tokens", "unique_tokens", "overall_unique"),
    CorpusManifest: ("entries", "path", "lines"),
    GradedCorpus: ("stats", "terms", "squares4", "rows"),
    DocumentCollection: ("docs",),
    WeightedVector: ("vocab", "coords"),
    PairSimilarity: ("score", "shared_unique", "pair_vocab_size"),
    ClassSimilarityMatrix: ("cells",),
    ClassificationResult: ("chosen_grade", "scores", "decision", "shared_unique"),
    OutputSpec: ("format", "precision"),
}


@pytest.fixture
def every_record(mini_corpus):
    """Each record class, the values of one instance, and that instance."""
    values = {
        TokenSequence: (("olma", "nok", "olma"),),
        Vocabulary: (("nok", "olma"),),
        ClassDocument: (1, SEQ),
        CorpusStats: ({1: 3}, {1: 2}, 2),
        CorpusManifest: (((1, Path("a.txt")), (2, Path("b.txt"))), Path("m.tsv"), (1, 3)),
        GradedCorpus: tuple(getattr(mini_corpus, name) for name in FIELDS[GradedCorpus]),
        DocumentCollection: ((SEQ, TokenSequence(("behi",))),),
        WeightedVector: (VOCAB, (0.25, 0.75)),
        PairSimilarity: (0.5, 2, 7),
        ClassSimilarityMatrix: (((PAIR, PAIR), (PAIR, PAIR)),),
        ClassificationResult: (2, {1: 0.25, 2: 1.0}, "cosine-argmax", {1: 1, 2: 3}),
        OutputSpec: ("json", 6),
    }
    return [(cls, args, cls(*args)) for cls, args in values.items()]


def test_assignment_and_deletion_raise(every_record):
    for cls, _, record in every_record:
        for name in FIELDS[cls] + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_equal_fields_compare_equal_within_one_type_only(every_record):
    for cls, args, record in every_record:
        twin = type(f"Twin{cls.__name__}", (cls,), {})
        assert record == cls(*args)
        assert not record != cls(*args)
        assert record != twin(*args)
        assert record != tuple(args)


def test_hashable_exactly_when_every_field_is(every_record):
    for cls, args, record in every_record:
        try:
            hash(args)
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(cls(*args))


def test_keyword_construction_and_defaults(every_record):
    for cls, args, record in every_record:
        fields = dict(zip(FIELDS[cls], args))
        assert cls(**fields) == record
        assert {name: getattr(record, name) for name in FIELDS[cls]} == fields
        parameters = inspect.signature(cls).parameters
        assert tuple(parameters) == FIELDS[cls]
        assert all(p.default is p.empty for p in parameters.values())
        # a missing, an extra and a repeated (positional and keyword) argument
        for bad_args, bad_kwargs in [
            (args[:-1], {}),
            (args + (None,), {}),
            (args, {FIELDS[cls][0]: args[0]}),
        ]:
            with pytest.raises(TypeError):
                cls(*bad_args, **bad_kwargs)


def test_pickle_round_trip(every_record):
    for _, _, record in every_record:
        assert pickle.loads(pickle.dumps(record)) == record


def test_repr_is_the_dataclass_form():
    assert repr(PairSimilarity(0.5, 2, 7)) == (
        "PairSimilarity(score=0.5, shared_unique=2, pair_vocab_size=7)"
    )
    result = ClassificationResult(2, {1: 0.25, 2: 1.0}, "cosine-argmax", {1: 1, 2: 3})
    assert repr(result) == (
        "ClassificationResult(chosen_grade=2, scores={1: 0.25, 2: 1.0}, "
        "decision='cosine-argmax', shared_unique={1: 1, 2: 3})"
    )
    stats = CorpusStats({1: 3, 2: 4}, {1: 2, 2: 4}, 5)
    assert repr(stats) == (
        "CorpusStats(total_tokens={1: 3, 2: 4}, unique_tokens={1: 2, 2: 4}, overall_unique=5)"
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: Vocabulary(("olma", "behi")),
        lambda: Vocabulary(("olma", "olma")),
        lambda: WeightedVector(VOCAB, (1.0,)),
        lambda: DocumentCollection(()),
        lambda: DocumentCollection((SEQ, TokenSequence(()))),
        lambda: OutputSpec("xml", 2),
        lambda: OutputSpec("table", 0),
    ],
)
def test_validation_errors_still_raise(build):
    with pytest.raises(ValueError):
        build()


def test_sequence_and_vocabulary_protocols():
    assert len(SEQ) == 3 and list(SEQ) == ["olma", "nok", "olma"] and SEQ
    assert not TokenSequence(())
    assert len(VOCAB) == 2 and list(VOCAB) == ["nok", "olma"] and "olma" in VOCAB


def test_cached_properties_are_computed_once(mini_manifest):
    corpus = build_corpus(load_manifest(mini_manifest))
    assert corpus.classes is corpus.classes
    assert corpus.classes[1].tokens.counts == Counter({"olma": 2, "nok": 1})
    seq = tokenize("olma nok olma")
    assert seq.counts is seq.counts and seq.types == {"olma", "nok"}
    coll = DocumentCollection(tuple(tokenize(t) for t in MINI_TEXTS.values()))
    assert coll.frequencies is coll.frequencies and coll.frequencies["olma"] == 2
