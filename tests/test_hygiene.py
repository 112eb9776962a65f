"""Source hygiene: every module-level import in the package is used, every
module-level function and class is referenced somewhere, every error class is
raised somewhere, and raised even for input integers too long to print,
only the reference module imports numpy, the CLI commands
run without loading numpy, the prime-power commands run without loading the
composite module, the process-wide caches are the listed ones, and they do
not grow with oracles or seeds."""

import ast
import functools
import os
import pathlib
import subprocess
import sys

import pytest

from hsp_sdp import composite as cx
from hsp_sdp import group as gr
from hsp_sdp import oracle as orc
from hsp_sdp import qsim
from hsp_sdp import solver
from hsp_sdp import subgroup as sg
from hsp_sdp.errors import InvalidDescriptor, InvalidPrime, PreconditionViolated, RTooSmall

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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ROOT = SRC.parent.parent
CODE = sorted(path for part in ("src", "tests", "demos") for path in (ROOT / part).rglob("*.py"))


def referenced_names(tree: ast.Module, skip: str | None = None) -> set[str]:
    """Names, attribute names and imported names read in tree, outside the
    module-level definition named skip."""
    names = set()
    for top in tree.body:
        if isinstance(top, DEFINITIONS) and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def unused_definitions(tree: ast.Module, elsewhere: set[str]) -> list[str]:
    """Module-level functions and classes of tree that neither the rest of
    tree nor the names referenced elsewhere include."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in tree.body
        if isinstance(node, DEFINITIONS)
        and node.name not in elsewhere
        and node.name not in referenced_names(tree, skip=node.name)
    ]


@functools.lru_cache(maxsize=None)
def names_in(path: pathlib.Path) -> frozenset[str]:
    return frozenset(referenced_names(ast.parse(path.read_text())))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_definition_is_referenced(path):
    # referenced somewhere in src/, tests/ or demos/, outside its own body
    elsewhere = set().union(*(names_in(other) for other in CODE if other != path))
    assert unused_definitions(ast.parse(path.read_text()), elsewhere) == []


def test_unused_definition_is_caught():
    tree = ast.parse(
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Kept:\n    pass\n"
        "class Dropped:\n    pass\n"
        "def caller():\n    return used()\n"
    )
    other = ast.parse("from m import Kept\nimport m\nm.caller()\n")
    assert unused_definitions(tree, referenced_names(other)) == [
        "recursive (line 3)", "Dropped (line 7)",
    ]


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


HUGE = 10**5000  # past the 4,300 digits that int-to-str conversion allows


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: gr.make_semidirect(-HUGE, 3, 1), PreconditionViolated),
        (lambda: gr.make_semidirect(9, -HUGE, 1), PreconditionViolated),
        (lambda: gr.make_group(2 * HUGE, 5, 1), InvalidPrime),
        (lambda: gr.make_group(3, -HUGE, 1), RTooSmall),
        (lambda: cx.make_composite(-(3**60000) * 5, 3, 1), PreconditionViolated),
        (lambda: cx.make_composite(1215, 2 * HUGE, 1), InvalidPrime),
        (lambda: sg.validate_descriptor(gr.make_group(3, 5, 1), sg.sg1x(HUGE)), InvalidDescriptor),
        (lambda: sg.descriptor_from_json({"form": "sg1x", "i": HUGE, "t": 1}), InvalidDescriptor),
    ],
    ids=[
        "semidirect-x_mod", "semidirect-p", "group-p", "group-r",
        "composite-N", "composite-p", "validate_descriptor", "descriptor_from_json",
    ],
)
def test_guards_raise_typed_errors_for_integers_too_long_to_print(call, error):
    with pytest.raises(error, match="too long to print"):
        call()


def numpy_imports(tree: ast.Module) -> list[int]:
    """Lines of every `import numpy...` and `from numpy... import`, at any
    depth, function bodies included."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_reference_module_imports_numpy():
    found = {
        f"{path.name}:{line}"
        for path in MODULES
        if path.name != "reference.py"
        for line in numpy_imports(ast.parse(path.read_text()))
    }
    assert found == set()


def test_numpy_import_is_caught():
    tree = ast.parse(
        "import numpyish\nfrom . import numpy\n"
        "def f():\n    import numpy as np\n    return np\n"
        "from numpy.linalg import inv\nimport math, numpy.fft\n"
    )
    assert numpy_imports(tree) == [4, 6, 7]


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


NO_COMPOSITE_SCRIPT = """
import contextlib, io, sys
from hsp_sdp import cli
group = ["--p", "3", "--r", "5", "--tau", "1"]
runs = [["sweep", *group, "--trials", "1"], ["enumerate", *group], ["verify-catalog", *group]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
assert codes == [0] * len(runs), codes
assert "hsp_sdp.composite" not in sys.modules, "a prime-power command loaded composite"
"""


def test_prime_power_commands_do_not_load_composite():
    # only `solve --N` needs the composite module; a fresh interpreter again
    proc = subprocess.run(
        [sys.executable, "-c", NO_COMPOSITE_SCRIPT],
        env={**os.environ, "HSP_SDP_THREADS": "1"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def process_caches(tree: ast.Module) -> list[str]:
    """Functions decorated with lru_cache or functools.cache, in any spelling,
    nested ones included: each keeps its entries for the life of the process."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)
                if name in ("lru_cache", "cache"):
                    found.append(node.name)
    return found


def test_process_wide_caches_are_the_listed_six():
    # a new cache must be added here on purpose, with a bound on its growth
    found = {
        f"{path.stem}.{name}"
        for path in MODULES
        for name in process_caches(ast.parse(path.read_text()))
    }
    assert found == {
        "qsim._register", "qsim._annihilator", "qsim._probe_points",
        "subgroup.table_for", "subgroup._column_mask", "cli._build_parser",
    }


def test_process_cache_is_caught():
    tree = ast.parse(
        "import functools\nfrom functools import cache, cached_property, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\ndef a(): pass\n"
        "@lru_cache\ndef b(): pass\n"
        "@cache\ndef c(): pass\n"
        "class K:\n    @functools.cache\n    def d(self): pass\n"
        "    @cached_property\n    def e(self): pass\n"
        "def f():\n    @lru_cache(None)\n    def g(): pass\n"
        "@staticmethod\ndef h(): pass\n"
    )
    assert sorted(process_caches(tree)) == ["a", "b", "c", "d", "g"]


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
