"""Every module parses at the oldest Python version the package supports."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def _oldest_supported() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_the_oldest_supported_version_is_3_10():
    assert _oldest_supported() == (3, 10)
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_oldest_supported_version(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=_oldest_supported())
