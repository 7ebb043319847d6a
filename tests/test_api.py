"""The public surface: `textgrade.__all__` and the names its users read."""

import argparse
import ast
import functools
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import textgrade

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import spans  # noqa: E402
import worker  # noqa: E402

# Recorded by the bench harness around child processes, not by a worker.
HARNESS_METRICS = ("cli.interpreter_ms", "cli.import_ms", "cli.process_ms.")


def parse(relative):
    return ast.parse((ROOT / relative).read_text(encoding="utf-8"))


def imported_from_textgrade(tree):
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "textgrade"
        for alias in node.names
    }


def dotted(node):
    """'textgrade.a.b' for an attribute chain rooted at the name textgrade, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "textgrade" and parts:
        return ".".join(reversed(parts))
    return None


def test_every_exported_name_resolves():
    for name in textgrade.__all__:
        assert hasattr(textgrade, name), name


def test_exports_cover_the_acceptance_imports():
    imported = imported_from_textgrade(parse("tests/test_acceptance.py"))
    assert imported
    assert imported <= set(textgrade.__all__)


def test_cli_import_leaves_out_dataclasses_inspect_and_typing():
    # every CLI call imports the package first; without site, nothing
    # else the CLI imports loads these three modules
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import textgrade.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_cli_import_leaves_out_json():
    # only --format json reports import it
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import textgrade.cli; "
        "print('json' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"


def test_names_the_bench_worker_reads_exist():
    tree = parse("bench/worker.py")
    chains = {chain for node in ast.walk(tree) if (chain := dotted(node))}
    assert "tokenize" in chains and "pair_similarity" in chains
    for chain in chains:
        functools.reduce(getattr, chain.split("."), textgrade)
    for name in imported_from_textgrade(tree):
        assert hasattr(textgrade, name) or importlib.util.find_spec(f"textgrade.{name}"), name


def test_bench_traced_replay_finds_every_part(mini_manifest):
    # the traced bench replays classify and build_corpus through public
    # names (corpus.classes among them); a part that is gone is filed
    # under `absent` and its per-layer metrics silently drop out
    query = mini_manifest.parent / "query.txt"
    query.write_text("olma qor", encoding="utf-8")
    args = argparse.Namespace(mode="probe", manifest=str(mini_manifest), input=str(query), trace=True)
    job = worker.Job(args)
    job.setup()
    _, corpus, _ = job.load()
    ops = [job.request(i, text, corpus) for i, text in enumerate(["olma qor", "olma nok"] * 2)]
    for rep in range(2):
        for cmd in spans.CLI_COMMANDS:
            job.cli_main_decomposed(cmd, parts_first=rep % 2 == 1)
    assert job.absent == {}
    assert [op.get("decision") for op in ops] == ["cosine-argmax", "containment"] * 2
    metrics = spans.layer_metrics(job.tracer.spans, [op["untraced_s"] for op in ops])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    expected = {m["name"] for m in declared if not m["name"].startswith(HARNESS_METRICS)}
    assert len(expected) == len(declared) - 5
    assert expected <= metrics.keys()
