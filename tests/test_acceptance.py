"""End-to-end acceptance runs with stated tolerances.

Each test prints exactly one "ACCEPTANCE <k> <what>: PASS|FAIL" line; the
lines are echoed again in the terminal summary by conftest.py.
"""

import math
import random
import statistics
import time

from hsp_sdp import cli
from hsp_sdp import composite as cx
from hsp_sdp import group as gr
from hsp_sdp import oracle as orc
from hsp_sdp import qsim
from hsp_sdp import solver
from hsp_sdp import subgroup as sg
from hsp_sdp.errors import RetriesExhausted, VerificationFailed

import reference

G351 = gr.make_group(3, 5, 1)
G353 = gr.make_group(3, 5, 3)


def _report(log, num, what, ok):
    line = f"ACCEPTANCE {num} {what}: {'PASS' if ok else 'FAIL'}"
    log.append(line)
    print(line)
    assert ok, line


def test_acceptance_1_catalog_verification(acceptance_log, capsys):
    ok = True
    for tau in (1, 3):
        start = time.monotonic()
        code = cli.main(["verify-catalog", "--p", "3", "--r", "5", "--tau", str(tau)])
        elapsed = time.monotonic() - start
        ok &= code == 0 and elapsed < 60.0
    capsys.readouterr()
    _report(acceptance_log, 1, "catalog == brute force and normality claims, both classes, <60s each", ok)


def test_acceptance_2_full_catalog_sweep(acceptance_log):
    trials = 25
    start = time.monotonic()
    failures = 0
    mismatches = 0
    for gp in (G351, G353):
        for idx, d in enumerate(sg.enumerate_catalog(gp)):
            for trial in range(trials):
                o = orc.make_oracle(gp, d)
                try:
                    rep = solver.solve(o, seed=10_000 * idx + trial)
                except (RetriesExhausted, VerificationFailed):
                    failures += 1
                    continue
                if rep.recovered != d or not rep.verified:
                    mismatches += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and mismatches == 0 and elapsed < 600.0
    _report(
        acceptance_log, 2,
        f"25-trial sweep of both catalogs, all recoveries exact ({elapsed:.0f}s)", ok,
    )


def test_acceptance_3_unit_character_frequency(acceptance_log):
    ok = True
    for p, r, expect in ((3, 5, 2 / 3), (5, 5, 4 / 5)):
        gp = gr.make_group(p, r, 1)
        o = orc.make_oracle(gp, sg.sg1m(1, 0, 1))  # x depth m = 1
        k = qsim.pullback(o, qsim.Domain((p, p * p), ((1, 0), (0, 1))))
        rng = random.Random(p)
        n = 4000
        hits = 0
        for _ in range(n):
            s = qsim.coset_sample(o, k, rng)
            c_a, _ = qsim.fourier_sample(s, rng)
            hits += c_a % p != 0
        sigma = math.sqrt(expect * (1 - expect) / n)
        ok &= abs(hits / n - expect) <= 3 * sigma
    _report(
        acceptance_log, 3,
        "unit character frequency within 3 sigma of 1-1/p at p=3 and p=5 (4000 draws each)",
        ok,
    )


def test_acceptance_4_no_retry_rate(acceptance_log):
    catalog = sg.enumerate_catalog(G351)
    runs = 0
    first = 0
    seeds_per = math.ceil(1000 / len(catalog))
    for idx, d in enumerate(catalog):
        for trial in range(seeds_per):
            o = orc.make_oracle(G351, d)
            rep = solver.solve(o, seed=777_000 + 1000 * idx + trial)
            runs += 1
            first += rep.first_try
    ok = runs >= 1000 and first / runs >= 0.5
    _report(
        acceptance_log, 4,
        f"end-to-end no-retry rate {first}/{runs} >= 0.5 across the class1 catalog", ok,
    )


def test_acceptance_5_structured_vs_dense(acceptance_log):
    p = 3
    cases = [
        # (group, hidden descriptor, dims, axes) mirroring every solver branch domain
        (G351, sg.sg1m(1, 0, 1), (3, 9), ((1, 0), (0, 1))),     # cyclic m=1
        (G351, sg.sg1m(1, 0, 0), (9, 9), ((1, 0), (0, 1))),     # cyclic m=2
        (G351, sg.sg1m(1, 1, 0), (27, 9), ((1, 0), (0, 1))),    # cyclic m=3
        (G351, sg.sg3(1, 0), (3, 3), ((1, 0), (0, 1))),         # noncyclic m=1
        (G351, sg.sg3(1, 1), (3, 3), ((3, 0), (0, 1))),         # noncyclic m=2
        (G351, sg.sg1x(4), (27, 9), ((9, 0), (0, 1))),          # class1 abelian route
        (G353, sg.sg2(3, 1), (81, 9), ((3, 0), (0, 1))),        # class2 abelian route
        (G351, sg.sg1x(1), (27, 9), ((1, 0), (0, 1))),          # class1 abelianization
        (G353, sg.sg3(1, 0), (81, 9), ((1, 0), (0, 1))),        # class2 abelianization
        (G351, sg.sg1m(2, 0, 1), (243,), ((1, 0),)),            # x axis measurement
        (G351, sg.sg1m(2, 0, 1), (9,), ((0, 1),)),              # y axis measurement
    ]
    worst = 0.0
    for gp, d, dims, axes in cases:
        o = orc.make_oracle(gp, d)
        domain = qsim.Domain(dims, axes)
        exact = reference.branch_mixture_distribution(o, domain)
        dense = reference.dense_reference_distribution(o, domain)
        worst = max(worst, reference.total_variation(exact, dense))
    ok = worst < 1e-9
    _report(
        acceptance_log, 5,
        f"exact vs dense-matrix outcome distributions, all branch domains, TV={worst:.2e} < 1e-9",
        ok,
    )


def test_acceptance_6_strategy_agreement(acceptance_log):
    ok = True
    for gp in (G351, G353):
        cutoff = gp.r - gr.commutator_depth(gp)
        for d in sg.enumerate_catalog(gp):
            if sg.table_for(gp, d).x_intersection_val(gp.p) > cutoff:
                continue
            for trial in range(10):
                rep_d = solver.solve(orc.make_oracle(gp, d), strategy="direct", seed=trial)
                rep_a = solver.solve(
                    orc.make_oracle(gp, d), strategy="abelianization", seed=trial
                )
                ok &= rep_d.recovered == d and rep_a.recovered == d
    _report(
        acceptance_log, 6,
        "direct and abelianization strategies agree on every applicable subgroup, 10 trials",
        ok,
    )


def test_acceptance_7_normal_forms_and_commutator(acceptance_log):
    ok = True
    catalog = sg.enumerate_catalog(G351)
    claims = [
        d for d in catalog
        if (d.form == "sg1x" and 1 <= d.i <= 3)
        or (d.form == "sg2" and (d.i, d.j) in ((1, 1), (2, 1)))
        or (d.form == "sg1m" and d.j == 1 and d.i <= 2)
        or (d.form == "sg1m" and d.j == 0 and d.i <= 1)
        or (d.form == "sg3" and d.i in (0, 1))
    ]
    comm = sg.commutator_subgroup(G351)
    comm_elems = sg.elements(G351, comm)
    for d in claims:
        ok &= sg.is_normal(G351, d)
        ok &= comm_elems <= sg.elements(G351, d)
    # brute-forced commutator subgroups for both classes
    ok &= comm == sg.sg1x(3) and sg.brute_force_commutator(G351) == comm_elems
    comm2 = sg.commutator_subgroup(G353)
    ok &= comm2 == sg.sg1x(4)
    ok &= sg.brute_force_commutator(G353) == sg.elements(G353, comm2)
    _report(
        acceptance_log, 7,
        "claimed normal forms are normal and contain the brute-forced commutator subgroup",
        ok,
    )


def test_acceptance_8_query_budget_and_scaling(acceptance_log):
    budget_ok = True
    gp56 = gr.make_group(5, 6, 1)
    queries_56 = []
    for idx, d in enumerate(sg.enumerate_catalog(gp56)):
        rep = solver.solve(orc.make_oracle(gp56, d), seed=idx)
        budget_ok &= rep.recovered == d and rep.oracle_queries <= 10_000
        queries_56.append(rep.oracle_queries)

    points = ((3, 5), (3, 6), (3, 7), (5, 5))  # increasing group order
    medians = []
    orders = []
    branch_medians = []
    for p, r in points:
        gp = gr.make_group(p, r, 1)
        qs = []
        by_branch = {}
        for idx, d in enumerate(sg.enumerate_catalog(gp)):
            for trial in range(3):
                rep = solver.solve(orc.make_oracle(gp, d), seed=3 * idx + trial)
                qs.append(rep.oracle_queries)
                by_branch.setdefault(rep.branch, []).append(rep.oracle_queries)
        medians.append(statistics.median(qs))
        orders.append(gp.order)
        branch_medians.append({b: statistics.median(v) for b, v in by_branch.items()})

    # Cost must grow with r at fixed p and with p at fixed r, per branch and
    # pooled.  The pooled all-four ordering is not asserted: catalogs at the
    # larger prime pack proportionally more shallow cyclic subgroups (cheap
    # solves), which drags the pooled median down without any branch getting
    # cheaper, and the (3,7)/(5,5) pair is not ordered by either growth axis.
    by_point = dict(zip(points, branch_medians))
    axes = (((3, 5), (3, 6)), ((3, 6), (3, 7)), ((3, 5), (5, 5)))
    branch_monotone = all(
        by_point[a][b] <= by_point[c][b]
        for a, c in axes
        for b in by_point[a]
        if b in by_point[c]
    )
    med = dict(zip(points, medians))
    axis_monotone = all(med[a] <= med[c] for a, c in axes)
    by_order = dict(zip(points, orders))
    sublinear = all(
        med[q] / med[pt] < by_order[q] / by_order[pt]
        for i, pt in enumerate(points)
        for q in points[i + 1:]
    )
    ok = budget_ok and branch_monotone and axis_monotone and sublinear
    _report(
        acceptance_log, 8,
        f"(5,6) worst queries {max(queries_56)} <= 10000; medians {medians}"
        " non-decreasing per branch and per growth axis, sublinear in order",
        ok,
    )


def test_acceptance_9_composite_reduction(acceptance_log):
    start = time.monotonic()
    cp = cx.make_composite(1215, 3, 271)
    dec = cx.decompose(cp)
    parent, factor = dec.parent, dec.semidirect
    rng = random.Random(99)

    iso_ok = True
    for _ in range(10_000):
        g1 = (rng.randrange(1215), rng.randrange(9))
        g2 = (rng.randrange(1215), rng.randrange(9))
        a, b = gr.mul(parent, g1, g2)
        sa, sb = gr.mul(factor, (g1[0] % 243, g1[1]), (g2[0] % 243, g2[1]))
        iso_ok &= (a % 243, b) == (sa, sb) and a % 5 == (g1[0] + g2[0]) % 5

    e1, e5 = dec.p_crt_unit, dec.abelian[0].crt_unit
    factor_parts = [
        [],
        [(1, 1)],
        [(1, 0), (0, 1)],
        [(3, 0)],
        [(27, 0)],
        [(2, 3)],
        [(1, 3)],
        [(3, 1)],
        [(9, 0), (0, 3)],
        [(0, 3)],
    ]
    solve_ok = True
    case = 0
    for fpart in factor_parts:
        for qpart in ([], [(1, 0)]):
            gens = [(a * e1 % 1215, b) for a, b in fpart]
            gens += [(u * e5 % 1215, 0) for u, _ in qpart]
            o = orc.make_oracle_from_generators(parent, gens)
            res = cx.solve_composite(cp, o, seed=case)
            case += 1
            got = sg.SubgroupTable.from_generators(parent, res.generators).elements()
            brute = orc.brute_force_recover(
                orc.make_oracle_from_generators(parent, gens)
            )
            solve_ok &= res.verified and got == brute
    elapsed = time.monotonic() - start
    ok = iso_ok and solve_ok and elapsed < 300.0
    _report(
        acceptance_log, 9,
        f"composite split: 10^4 product checks and {case} recoveries vs brute force ({elapsed:.0f}s)",
        ok,
    )
