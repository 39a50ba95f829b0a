"""Every demo script runs to completion."""

import runpy
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path):
    with redirect_stdout(StringIO()) as out:
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
