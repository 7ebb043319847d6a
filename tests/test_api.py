"""The public surface: `textgrade.__all__` and the names its users read."""

import ast
import functools
import importlib.util
from pathlib import Path

import textgrade

ROOT = Path(__file__).resolve().parent.parent


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


def test_names_the_bench_worker_reads_exist():
    tree = parse("bench/worker.py")
    chains = {chain for node in ast.walk(tree) if (chain := dotted(node))}
    assert "tokenize" in chains and "pair_similarity" in chains
    for chain in chains:
        functools.reduce(getattr, chain.split("."), textgrade)
    for name in imported_from_textgrade(tree):
        assert hasattr(textgrade, name) or importlib.util.find_spec(f"textgrade.{name}"), name
