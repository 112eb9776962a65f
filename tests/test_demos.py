"""Every demo script runs to completion in process and prints what it printed
when its output was stored, as `python demos/<name>.py > tests/data/demos/<name>.txt`."""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STORED = ROOT / "tests" / "data" / "demos"

# demo 03's distance between two float computations depends on numpy's rounding
TV_LINE = re.compile(r"^(  total variation distance: )(\S+)$", re.MULTILINE)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    want = (STORED / f"{path.stem}.txt").read_text()
    assert all(float(tv) < 1e-9 for _, tv in TV_LINE.findall(out))
    assert TV_LINE.sub(r"\1*", out) == TV_LINE.sub(r"\1*", want)
