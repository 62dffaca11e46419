"""Every repository path a CI step or a documented recipe names exists:
nobody building or reviewing a change here can run GitHub Actions.
(``benchmarks/e2e/README.md`` is frozen with the benchmark.)"""

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
