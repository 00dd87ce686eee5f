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
    "training.train": "pipeline entry point; no caller until a `promptir` CLI exists",
    "pretrain.pretrain": "pipeline entry point; no caller until a `promptir` CLI exists",
    "serving.serve": "pipeline entry point; no caller until a `promptir` CLI exists",
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_script_targets_import():
    import tomllib

    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def references(path, module=None):
    """(module, name) of each reference in a file that resolves to a promptir
    module: a bare name inside that module's own file (not in the definition
    of that name itself), ``from .mod import name`` or ``from promptir.mod
    import name``, and ``alias.name`` with alias bound to a promptir module."""
    tree = ast.parse(path.read_text())
    aliases = {}  # local name -> the promptir module it is bound to
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level > 1:
            continue
        if node.level:  # the relative imports inside the package
            source = f"promptir.{node.module}" if node.module else "promptir"
        else:
            source = node.module
        for alias in node.names:
            if source == "promptir":
                aliases[alias.asname or alias.name] = alias.name
            elif source.startswith("promptir."):
                yield source.removeprefix("promptir."), alias.name
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                yield aliases[node.value.id], node.attr
            elif isinstance(node, ast.Name) and module and node.id != owner:
                yield module, node.id


def test_public_names_have_a_caller():
    public = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add(f"{path.stem}.{node.name}")
    called = set()
    for path in PACKAGE.glob("*.py"):
        called |= {f"{mod}.{name}" for mod, name in references(path, path.stem)}
    for path in (ROOT / "perfbench").glob("*.py"):
        called |= {f"{mod}.{name}" for mod, name in references(path)}
    uncalled = sorted(public - called - KEEP.keys())
    assert not uncalled, f"public names with no caller in src/ or perfbench/: {uncalled}"
    stale = sorted(q for q in KEEP if q in called or q not in public)
    assert not stale, f"KEEP entries that now have a caller or no definition: {stale}"
