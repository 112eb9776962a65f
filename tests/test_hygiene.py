"""Source hygiene: every module-level import in the package is used, every
error class is raised somewhere, the CLI commands run without loading numpy,
and the module-level caches do not grow with oracles or seeds."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from hsp_sdp import group as gr
from hsp_sdp import oracle as orc
from hsp_sdp import qsim
from hsp_sdp import solver
from hsp_sdp import subgroup as sg

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hsp_sdp"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == []


def test_unused_import_is_caught():
    tree = ast.parse("import math\nfrom . import qsim\nimport numpy as np\nnp.zeros(1)\n")
    assert unused_imports(tree) == ["math (line 1)", "qsim (line 2)"]


def raised_names(tree: ast.Module) -> set[str]:
    """Names of the classes in `raise C(...)` and `raise C` statements."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text())
    declared = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(raised_names(ast.parse(path.read_text())) for path in MODULES))
    assert declared - {"HspError"} - raised == set()
    assert raised_names(ast.parse("raise A\nraise B('x') from None\nraise\n")) == {"A", "B"}


NO_NUMPY_SCRIPT = """
import contextlib, io, sys
from hsp_sdp import cli
group = ["--p", "3", "--r", "5", "--tau", "1"]
runs = [
    ["enumerate", *group],
    ["solve", *group, "--subgroup", '{"form":"sg1m","t":2,"i":0,"j":1}'],
    ["solve", "--N", "1215", "--p", "3", "--alpha", "271", "--generators", "[[730,1]]"],
    ["sweep", *group, "--trials", "1"],
    ["verify-catalog", *group],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
assert codes == [0] * len(runs), codes
assert "numpy" not in sys.modules, "a CLI command loaded numpy"
"""


def test_cli_commands_do_not_load_numpy():
    # a fresh interpreter: the test session itself has numpy loaded
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT],
        env={**os.environ, "HSP_SDP_THREADS": "1"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_module_caches_do_not_grow_with_oracles_or_seeds():
    # a cache keyed by oracle or seed would grow with every round of solves
    qsim._probe_points.cache_clear()
    qsim._annihilator.cache_clear()

    def solve_catalog(seeds):
        for tau in (1, 3):
            gp = gr.make_group(3, 5, tau)
            for d in sg.enumerate_catalog(gp):
                for seed in seeds:
                    solver.solve(orc.make_oracle(gp, d), seed=seed)
        return qsim._probe_points.cache_info().currsize, qsim._annihilator.cache_info().currsize

    first = solve_catalog((0, 1))
    # per group: both axes and the abelian route; tau = 3 adds the abelianization
    assert first[0] == 7
    assert solve_catalog((2, 3)) == first
