"""Packaging: console scripts import, and every public name has a caller."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "promptir"

# public names that nothing in src/ or perfbench/ calls, kept on purpose
KEEP = {
    "encoder.load_checkpoint": "reads the checkpoints save_checkpoint writes",
    "prompts.load_promptset": "reads the prompt-set files save_promptset writes",
    "autodiff.grad_check": "test oracle: finite differences against backward",
    "autodiff.sum_all": "reducer that turns a tensor into a loss in the tests",
    "autodiff.mul": "elementwise weights for gradient tests",
    "training.similarity": "test oracle: inner product of two vectors",
    "training.nll_loss": "test oracle: the ranking loss in plain numpy",
    "evaluation.alignment_uniformity": "the representation diagnostic DPT runs are to log",
    "encoder.mlm_loss": "its tests are the one check that the tied MLM head learns alone",
    "pretrain.PretrainConfig": "the configuration of pretrain(), the RIP entry point",
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_script_targets_import():
    import tomllib

    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def references(path):
    """(top-level definition or None, referenced name) for each name in a file."""
    for top in ast.parse(path.read_text()).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif isinstance(node, ast.alias):
                yield owner, node.name


def test_public_names_have_a_caller():
    public = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public[node.name] = f"{path.stem}.{node.name}"
    called = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        # a definition's references to its own name (recursion, docstrings) do not count
        called |= {name for owner, name in references(path)
                   if name != owner or path.parent != PACKAGE}
    uncalled = sorted(q for name, q in public.items() if name not in called and q not in KEEP)
    assert not uncalled, f"public names with no caller in src/ or perfbench/: {uncalled}"
    stale = sorted(q for q in KEEP if q.split(".")[1] in called or q not in public.values())
    assert not stale, f"KEEP entries that now have a caller or no definition: {stale}"
