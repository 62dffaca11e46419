"""Every repository path a CI step or a documented recipe names exists,
and every ``repro`` import a documented recipe makes resolves: nobody
building or reviewing a change here can run GitHub Actions.
(``benchmarks/e2e/README.md`` is frozen with the benchmark.)"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PATHS = re.compile(r"\b(?:benchmarks/[\w/]+\.py|(?:examples|tests)/[\w./*-]*[\w*])")


@pytest.mark.parametrize("document", [
    ".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
])
def test_named_paths_exist(document):
    named = set(PATHS.findall((ROOT / document).read_text(encoding="utf-8")))
    assert named, "the pattern has rotted"
    assert not [path for path in named if not any(ROOT.glob(path))]


PYTHON_BLOCKS = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


@pytest.mark.parametrize("document", ["README.md", "EXPERIMENTS.md"])
def test_documented_imports_resolve(document):
    """Every ``import repro...`` / ``from repro... import ...`` in a
    documented ``python`` block names something that exists."""
    blocks = PYTHON_BLOCKS.findall((ROOT / document).read_text(encoding="utf-8"))
    assert blocks, "the pattern has rotted"
    missing = []
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.Import):
                targets = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                targets = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module, name in targets:
                if module.split(".")[0] != "repro":
                    continue
                try:
                    found = importlib.import_module(module)
                    if name is not None and not hasattr(found, name):
                        importlib.import_module(f"{module}.{name}")
                except ImportError:
                    missing.append(f"{module}:{name}" if name else module)
    assert not missing
