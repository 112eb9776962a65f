"""Traced run: spans around calls into each layer, and the per-layer metrics.

Wrappers are installed on module (and class) attributes of the program for the
traced part of a run and removed after it; the program itself is not edited.
A wrapper catches every call that looks the attribute up at call time, which
is how the program calls across and within its modules (`qsim.coset_sample`,
`sg.canonicalize`, a global `coset_sample` inside `qsim`, ...).

`group` primitives (`mul`, `power`) run too often and too briefly to time per
call; their cost lands in the self time of their callers.
"""

from __future__ import annotations

import functools
import gzip
import json
import time

from hsp_sdp import cli
from hsp_sdp import composite as cx
from hsp_sdp import numtheory as nt
from hsp_sdp import oracle as orc
from hsp_sdp import qsim
from hsp_sdp import solver
from hsp_sdp import subgroup as sg

#: (owner, attribute, span name) for every wrapped call
TARGETS = (
    (nt, "factorize", "numtheory.factorize"),
    (sg, "enumerate_catalog", "subgroup.enumerate_catalog"),
    (sg, "canonicalize", "subgroup.canonicalize"),
    (sg, "table_for", "subgroup.table_for"),
    (sg, "brute_force_lattice", "subgroup.brute_force_lattice"),
    (sg, "elements", "subgroup.elements"),
    (sg, "is_normal", "subgroup.is_normal"),
    (orc, "make_oracle", "oracle.make_oracle"),
    (orc.HidingOracle, "query", "oracle.query"),
    (qsim, "coset_sample", "qsim.coset_sample"),
    (qsim, "fourier_sample", "qsim.fourier_sample"),
    (qsim, "dual_kernel", "qsim.dual_kernel"),
    (qsim, "abelian_hsp", "qsim.abelian_hsp"),
    (solver, "solve", "solver.solve"),
    (solver, "find_m_n", "solver.find_m_n"),
    (solver, "solve_cyclic_class1", "solver.solve_cyclic_class1"),
    (solver, "solve_noncyclic_class1", "solver.solve_noncyclic_class1"),
    (solver, "solve_class2", "solver.solve_class2"),
    (solver, "solve_via_abelianization", "solver.solve_via_abelianization"),
    (cx, "solve_composite", "composite.solve_composite"),
    (cx, "decompose", "composite.decompose"),
    (cli, "main", "cli.main"),
)

#: solve_cyclic_class1, solve_noncyclic_class1, solve_class2, solve_via_abelianization
BRANCHES = frozenset(name for _, _, name in TARGETS if name.startswith("solver.solve_"))
#: spans whose return value is a solve report; the outermost one is a solve
SOLVE_ROOTS = frozenset({"solver.solve", "composite.solve_composite"})
SCAN = "qsim.coset_sample.scan"
WARM = "qsim.coset_sample.warm"
SETUP_OP = -1


class Tracer:
    """Records (name, start_ns, end_ns, parent, op) spans in memory."""

    def __init__(self):
        self.spans: list = []
        self.results: list = []  # (span index, solve report) for SOLVE_ROOTS names
        self.op_id = SETUP_OP
        self._stack: list[int] = []
        self._installed: list = []
        self._scanned: dict = {}

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._scanned.clear()

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._installed.append((owner, attr, original))

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _coset_label(self, args) -> str:
        # The level-set scan runs on the first coset_sample per (oracle, Domain);
        # holding both objects keeps their ids unique until the op ends.
        o, domain = args[0], args[1]
        key = (id(o), id(domain))
        if key in self._scanned:
            return WARM
        self._scanned[key] = (o, domain)
        return SCAN

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keep = name in SOLVE_ROOTS
        coset = name == "qsim.coset_sample"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = self._coset_label(args) if coset else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op_id)
            if keep:
                self.results.append((idx, out))
            return out

        return wrapper

    def write(self, path: str) -> None:
        """Spans as JSON lines: a header, then [name, start_ns, end_ns, parent, op]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                                 "setup_op": SETUP_OP}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


#: per-layer metric -> unit; the notes file gives each one's definition
LAYER_UNITS = {
    "trace.overhead_ratio": "ratio",
    "queries_per_solve": "count",
    "sim_evals_per_solve": "count",
    "qsim.coset_sample.calls_per_solve": "count",
    "qsim.coset_sample.scan_ms": "ms",
    "qsim.coset_sample.warm_us": "us",
    "qsim.scans_per_solve": "count",
    "qsim.sim_evals_per_sample": "count",
    "qsim.scan_share": "ratio",
    "qsim.fourier_sample.self_ms": "ms",
    "qsim.dual_kernel.calls_per_solve": "count",
    "qsim.dual_kernel.ms": "ms",
    "qsim.abelian_hsp.calls_per_solve": "count",
    "qsim.abelian_hsp.self_ms": "ms",
    "oracle.query.calls_per_solve": "count",
    "oracle.query.us": "us",
    "oracle.make_oracle.ms": "ms",
    "oracle.label_us_per_sim_eval": "us",
    "solver.find_m_n.ms": "ms",
    "solver.branch.ms": "ms",
    "solver.solve.self_ms": "ms",
    "solver.iterations_per_solve": "count",
    "solver.first_try_ratio": "ratio",
    "subgroup.enumerate_catalog.cold_ms": "ms",
    "subgroup.canonicalize.calls_per_solve": "count",
    "subgroup.canonicalize.ms": "ms",
    "subgroup.table_for.ms": "ms",
    "subgroup.brute_force_lattice.ms": "ms",
    "subgroup.elements.ms": "ms",
    "subgroup.is_normal.ms": "ms",
    "composite.solve_composite.self_ms": "ms",
    "composite.decompose.ms": "ms",
    "cli.sweep.w1_s": "s",
    "cli.sweep.w2_s": "s",
    "cli.sweep.parallel_efficiency": "ratio",
    "numtheory.factorize.calls_per_solve": "count",
    "numtheory.factorize.ms": "ms",
}


def _first_try(report) -> bool:
    inner = getattr(report, "semidirect_report", report)
    return bool(inner.first_try)


def layer_metrics(tracer: Tracer, count_ops: set, scale: dict) -> tuple[dict, dict]:
    """Per-layer values from the spans, and a reason for each absent metric.

    Times cover every traced op; a span's duration is scaled by `scale[op]`,
    its op's machine-speed factor. Counts (calls, queries, simulation work,
    iterations) cover the solves of `count_ops` only, one fixed pass, so they
    repeat exactly at a fixed seed.
    """
    spans = [(name, (end - start) * scale[op], parent, op)
             for name, start, end, parent, op in tracer.spans]
    child_ns = [0.0] * len(spans)
    for _, dur, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += dur

    calls: dict = {}
    counted_calls: dict = {}
    incl: dict = {}
    self_ns: dict = {}
    roots: set = set()
    counted_solves = 0
    root_ns = branch_ns = scan_counted_ns = 0.0
    for i, (name, dur, parent, op) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_ns[name] = self_ns.get(name, 0.0) + dur - child_ns[i]
        if name in BRANCHES and (parent < 0 or spans[parent][0] not in BRANCHES):
            branch_ns += dur
        is_root = name in SOLVE_ROOTS and not _has_ancestor(spans, parent, SOLVE_ROOTS)
        if is_root:
            roots.add(i)
            root_ns += dur
        if op in count_ops:
            counted_calls[name] = counted_calls.get(name, 0) + 1
            counted_solves += is_root
            if name == SCAN:
                scan_counted_ns += dur

    counted = [rep for idx, rep in tracer.results if idx in roots and spans[idx][3] in count_ops]
    sim_evals = sum(r.simulation_cost for r in counted)
    samples = counted_calls.get(SCAN, 0) + counted_calls.get(WARM, 0)

    def calls_per_solve(name):
        return counted_calls.get(name, 0) / counted_solves if counted_solves else 0.0

    def ms_per_solve(ns):
        return ns / len(roots) / 1e6 if roots else 0.0

    def ms_per_call(name, totals=incl):
        return totals.get(name, 0.0) / calls[name] / 1e6 if calls.get(name) else 0.0

    m = {
        "queries_per_solve": _mean([r.oracle_queries for r in counted]),
        "sim_evals_per_solve": _mean([r.simulation_cost for r in counted]),
        "qsim.coset_sample.calls_per_solve": samples / counted_solves if counted_solves else 0.0,
        "qsim.coset_sample.scan_ms": ms_per_solve(incl.get(SCAN, 0.0)),
        "qsim.coset_sample.warm_us": ms_per_call(WARM) * 1e3,
        "qsim.scans_per_solve": calls_per_solve(SCAN),
        "qsim.sim_evals_per_sample": sim_evals / samples if samples else 0.0,
        "qsim.scan_share": incl.get(SCAN, 0.0) / root_ns if root_ns else 0.0,
        "qsim.fourier_sample.self_ms": ms_per_solve(self_ns.get("qsim.fourier_sample", 0.0)),
        "qsim.dual_kernel.calls_per_solve": calls_per_solve("qsim.dual_kernel"),
        "qsim.dual_kernel.ms": ms_per_call("qsim.dual_kernel"),
        "qsim.abelian_hsp.calls_per_solve": calls_per_solve("qsim.abelian_hsp"),
        "qsim.abelian_hsp.self_ms": ms_per_solve(self_ns.get("qsim.abelian_hsp", 0.0)),
        "oracle.query.calls_per_solve": calls_per_solve("oracle.query"),
        "oracle.query.us": ms_per_call("oracle.query") * 1e3,
        "oracle.make_oracle.ms": ms_per_call("oracle.make_oracle"),
        # derived, not a span of its own: scan time over the simulation work
        # (nearly all of which the scans do) of the same solves
        "oracle.label_us_per_sim_eval": scan_counted_ns / sim_evals / 1e3 if sim_evals else 0.0,
        "solver.find_m_n.ms": ms_per_solve(incl.get("solver.find_m_n", 0.0)),
        "solver.branch.ms": ms_per_solve(branch_ns),
        "solver.solve.self_ms": ms_per_solve(self_ns.get("solver.solve", 0.0)),
        "solver.iterations_per_solve": _mean([r.iterations for r in counted]),
        "solver.first_try_ratio": _mean([_first_try(r) for r in counted]),
        "subgroup.enumerate_catalog.cold_ms": _mean([
            dur for name, dur, _, op in spans
            if name == "subgroup.enumerate_catalog" and op == SETUP_OP
        ]) / 1e6,
        "subgroup.canonicalize.calls_per_solve": calls_per_solve("subgroup.canonicalize"),
        "subgroup.canonicalize.ms": ms_per_call("subgroup.canonicalize"),
        "subgroup.table_for.ms": ms_per_call("subgroup.table_for"),
        "subgroup.brute_force_lattice.ms": ms_per_call("subgroup.brute_force_lattice"),
        "subgroup.elements.ms": ms_per_call("subgroup.elements"),
        "subgroup.is_normal.ms": ms_per_call("subgroup.is_normal"),
        "composite.solve_composite.self_ms": ms_per_call("composite.solve_composite", self_ns),
        "composite.decompose.ms": ms_per_call("composite.decompose"),
        "numtheory.factorize.calls_per_solve": calls_per_solve("numtheory.factorize"),
        "numtheory.factorize.ms": ms_per_call("numtheory.factorize"),
    }

    absent = {}
    if not roots:
        for key in m:
            if key.endswith("per_solve") or key in _SOLVE_ONLY:
                absent[key] = "the workload runs no solves"
    for key, name in _CALLED.items():
        if not calls.get(name) and key not in absent:
            absent[key] = f"the workload does not call {name}"
    return m, absent


_SOLVE_ONLY = frozenset({
    "qsim.coset_sample.scan_ms", "qsim.coset_sample.warm_us", "qsim.sim_evals_per_sample",
    "qsim.scan_share", "qsim.fourier_sample.self_ms", "qsim.dual_kernel.ms",
    "qsim.abelian_hsp.self_ms", "oracle.query.us", "oracle.label_us_per_sim_eval",
    "solver.find_m_n.ms", "solver.branch.ms", "solver.solve.self_ms",
    "solver.first_try_ratio", "subgroup.canonicalize.ms", "numtheory.factorize.ms",
})
_CALLED = {
    "oracle.make_oracle.ms": "oracle.make_oracle",
    "subgroup.brute_force_lattice.ms": "subgroup.brute_force_lattice",
    "subgroup.elements.ms": "subgroup.elements",
    "subgroup.is_normal.ms": "subgroup.is_normal",
    "composite.solve_composite.self_ms": "composite.solve_composite",
    "composite.decompose.ms": "composite.decompose",
    "subgroup.enumerate_catalog.cold_ms": "subgroup.enumerate_catalog",
}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _has_ancestor(spans, idx: int, names) -> bool:
    while idx >= 0:
        if spans[idx][0] in names:
            return True
        idx = spans[idx][3]
    return False
