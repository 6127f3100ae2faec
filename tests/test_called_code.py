"""Every public function, class and method of `src/tradesim` has a caller in
the program: `src/` or `benchmarks/`, not only the tests.

A name counts as used where the code refers to it: a name, an attribute, an
imported name, or a part of a dotted-name string (`benchmarks/tracer.py` names
its trace points that way), but not its `def` or `class` line. So each public
name must appear in the program more often than it is defined. The check goes
by name, so a method shares its uses with every other method of that name; it
catches code nothing refers to, not every uncalled method of a common name.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")

# Names that only tests call, each with the reason it is kept.
ALLOWED = {
    "accuracy": "c09 scores the predictor's forecasts with it",
    "dueling_q": "c06 checks the dueling Q-head's identity through it",
    "ContextualBandit": "c07's bandit sanity check runs on it",
    "optimal_rate": "c07 compares the learned policy with the bandit's best arm",
    "reset_stats": "c08 resets the cache's counters after warmup (tests/cachetrace.py)",
    "HashRing": "c08 bounds how many keys the ring relocates when a shard joins; no tier uses it",
    "assign": "c08 measures how many keys HashRing relocates when a shard joins",
    "remove_shard": "HashRing's other membership change; its relocation property is tested",
    "percentiles": "the nearest-rank reference that weighted_percentile is tested against",
    "satisfies_invariants": "c05 keeps its exhaustive oracle to feasible chromosomes with it",
}


def _trees(*dirs: str) -> list[ast.Module]:
    return [
        ast.parse(path.read_text(), filename=str(path))
        for d in dirs
        for path in sorted((ROOT / d).rglob("*.py"))
    ]


def defined_names(tree: ast.Module) -> list[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [n.name for n in ast.walk(tree) if isinstance(n, kinds) and not n.name.startswith("_")]


def used_names(tree: ast.Module) -> list[str]:
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.append(node.id)
        elif isinstance(node, ast.Attribute):
            used.append(node.attr)
        elif isinstance(node, ast.alias):
            used.append(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                used.extend(node.value.split("."))
    return used


def uncalled_names() -> set[str]:
    defined = Counter(name for tree in _trees("src") for name in defined_names(tree))
    used = Counter(name for tree in _trees("src", "benchmarks") for name in used_names(tree))
    return {name for name in defined if not used[name]}


def test_every_public_name_has_a_caller_outside_the_tests():
    uncalled = uncalled_names()
    assert uncalled - set(ALLOWED) == set(), "defined in src/ but called only by tests, if at all"


def test_allowed_names_are_still_uncalled():
    # a name that gained a caller leaves the list, so the list stays the short one
    assert set(ALLOWED) <= uncalled_names()

