"""Seeded solve reports pinned byte for byte.

`tests/data/golden_reports.json` holds the `to_json()` output of a fixed list
of seeded solves: one hidden subgroup per solver branch at (p, r) = (3, 5)
for tau = 0, 1 and 3 and at (5, 6, tau = 1), two composite solves at
N = 1215, then one hidden subgroup per axis-depth row (m, n) of the
non-abelian groups that no branch pick covers, so every route the solver
can take for (m, n) is pinned. Any change to query counts, simulation cost,
iterations or the random draws shows up here as a mismatch.

Regenerate the data only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from hsp_sdp import composite as cx
from hsp_sdp import group as gr
from hsp_sdp import oracle as orc
from hsp_sdp import solver
from hsp_sdp import subgroup as sg

import reference

DATA = Path(__file__).parent / "data" / "golden_reports.json"

SOLVE_GROUPS = ((3, 5, 0), (3, 5, 1), (3, 5, 3), (5, 6, 1))
# (alpha, generators of the hidden subgroup of Z_1215 x| Z_9)
COMPOSITE_CASES = (
    (271, [(730, 3), (486, 0)]),  # class1 twist, full Z_5 slot
    (811, [(3 * 730 % 1215, 0), (0, 3)]),  # class2 twist, trivial Z_5 slot
)
COMPOSITE_N = 1215


def _depths(gp, d) -> tuple[int, int]:
    table = sg.table_for(gp, d)
    return table.x_intersection_val(gp.p), table.y_intersection_val(gp.p)


def _branch(gp, d) -> str:
    if gp.class_tag == gr.CLASS_ABELIAN:
        return "abelian/direct-product"
    m, n = _depths(gp, d)
    return f"{gp.class_tag}/{solver.classify_cyclicity(m, n, gp.r)}/m={m}"


def _solve_picks():
    """(branch picks, row picks), each a list of (group, descriptor, seed).

    A branch pick is the first catalog subgroup of every branch. A row pick
    is the first catalog subgroup of every (m, n) row of a non-abelian group
    that no branch pick of that group covers. Seeds count up from 100 across
    both lists.
    """
    groups = [gr.make_group(p, r, tau) for p, r, tau in SOLVE_GROUPS]
    branches = []
    for gp in groups:
        seen = set()
        for d in sg.enumerate_catalog(gp):
            branch = _branch(gp, d)
            if branch not in seen:
                seen.add(branch)
                branches.append((gp, d, 100 + len(branches)))
    rows = []
    for gp in groups:
        if gp.class_tag == gr.CLASS_ABELIAN:
            continue
        seen = {_depths(gp, d) for g, d, _ in branches if g == gp}
        for d in sg.enumerate_catalog(gp):
            row = _depths(gp, d)
            if row not in seen:
                seen.add(row)
                rows.append((gp, d, 100 + len(branches) + len(rows)))
    return branches, rows


def _solve_entry(gp, d, seed) -> dict:
    rep = solver.solve(orc.make_oracle(gp, d), seed=seed)
    return {
        "kind": "solve",
        "p": gp.p,
        "r": gp.r,
        "tau": gp.tau,
        "descriptor": sg.descriptor_to_json(d),
        "seed": seed,
        "report": rep.to_json(),
    }


def _composite_entry(alpha, gens, seed) -> dict:
    cp = cx.make_composite(COMPOSITE_N, 3, alpha)
    parent = cx.decompose(cp).parent
    o = orc.make_oracle_from_generators(parent, gens)
    res = cx.solve_composite(cp, o, seed=seed)
    return {
        "kind": "composite",
        "N": COMPOSITE_N,
        "alpha": alpha,
        "generators": [list(g) for g in gens],
        "seed": seed,
        "report": res.to_json(),
    }


def generate() -> list[dict]:
    branches, rows = _solve_picks()
    out = [_solve_entry(gp, d, seed) for gp, d, seed in branches]
    for k, (alpha, gens) in enumerate(COMPOSITE_CASES):
        out.append(_composite_entry(alpha, gens, 500 + k))
    return out + [_solve_entry(gp, d, seed) for gp, d, seed in rows]


def _load() -> list[dict]:
    # a missing file fails test_golden_cases_cover_every_branch
    return json.loads(DATA.read_text()) if DATA.exists() else []


def _rerun(entry: dict) -> dict:
    if entry["kind"] == "solve":
        gp = gr.make_group(entry["p"], entry["r"], entry["tau"])
        d = sg.descriptor_from_json(entry["descriptor"])
        return _solve_entry(gp, d, entry["seed"])
    gens = [tuple(g) for g in entry["generators"]]
    return _composite_entry(entry["alpha"], gens, entry["seed"])


def test_golden_cases_cover_every_branch():
    entries = _load()
    branches, rows = _solve_picks()
    want = [(gp.p, gp.r, gp.tau, sg.descriptor_to_json(d), seed)
            for gp, d, seed in branches + rows]
    got = [(e["p"], e["r"], e["tau"], e["descriptor"], e["seed"])
           for e in entries if e["kind"] == "solve"]
    assert got == want
    assert sum(e["kind"] == "composite" for e in entries) == len(COMPOSITE_CASES)


@pytest.mark.parametrize("idx", range(len(_load())))
def test_golden_report_unchanged(idx):
    entry = _load()[idx]
    got = _rerun(entry)
    assert json.dumps(got, sort_keys=True) == json.dumps(entry, sort_keys=True)


def test_golden_reports_label_no_register_arrays(monkeypatch):
    def refuse(*args):
        raise AssertionError("a solve labelled a register array")

    monkeypatch.setattr(reference, "label_array", refuse)
    monkeypatch.setattr(reference, "level_set_scan", refuse)
    for entry in _load():
        assert json.dumps(_rerun(entry), sort_keys=True) == json.dumps(entry, sort_keys=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_reports.py --write")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
