"""Smoke test: every demo script imports cleanly against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_loads(path):
    namespace = runpy.run_path(str(path), run_name="demo")
    assert callable(namespace["main"])
