import gc
import json
import random
import re
from importlib import resources

import jsonschema
import pytest

from hsp_sdp import composite as cx
from hsp_sdp import group as gr
from hsp_sdp import oracle as orc
from hsp_sdp import qsim
from hsp_sdp import solver
from hsp_sdp import subgroup as sg
from hsp_sdp.errors import PreconditionViolated, VerificationFailed

from helpers import record_queries

G351 = gr.make_group(3, 5, 1)
G353 = gr.make_group(3, 5, 3)
G350 = gr.make_group(3, 5, 0)


# ---------------------------------------------------------------- find_m_n

def test_find_m_n_frozen_value():
    o = orc.make_oracle(G351, sg.sg1m(2, 0, 1))  # <x^2 y^3>
    assert solver.find_m_n(o, random.Random(0)) == (1, 2)


def test_find_m_n_matches_tables_across_catalog():
    rng = random.Random(1)
    for gp in (G351, G353):
        for d in sg.enumerate_catalog(gp):
            table = sg.table_for(gp, d)
            want = (table.x_intersection_val(gp.p), table.y_intersection_val(gp.p))
            o = orc.make_oracle(gp, d)
            assert solver.find_m_n(o, rng) == want, d


# ---------------------------------------------------------------- classification

def test_classify_cyclicity_matches_actual_structure():
    for gp in (G351, G353):
        for d in sg.enumerate_catalog(gp):
            table = sg.table_for(gp, d)
            m = table.x_intersection_val(gp.p)
            n = table.y_intersection_val(gp.p)
            elems = sg.elements(gp, d)
            actually_cyclic = any(
                gr.element_order(gp, g) == len(elems) for g in elems
            )
            want = "cyclic" if actually_cyclic else "noncyclic"
            assert solver.classify_cyclicity(m, n, gp.r) == want, d


# ---------------------------------------------------------------- recover_t

def test_recover_t_frozen_values():
    assert solver.recover_t(2, 7, 3) == 1
    assert solver.recover_t(0, 5, 3) is None
    assert solver.recover_t(1, 0, 9) == 0
    assert solver.recover_t(3, 5, 9) is None  # 3 not a unit mod 9


def test_recover_t_solves_the_congruence():
    rng = random.Random(2)
    for modulus in (3, 9, 5, 25):
        p = 3 if modulus in (3, 9) else 5
        for _ in range(200):
            a = rng.randrange(modulus)
            b = rng.randrange(modulus)
            t = solver.recover_t(a, b, modulus)
            if a % p == 0:
                assert t is None
            else:
                assert (a * t + b) % modulus == 0


# ---------------------------------------------------------------- full solve

@pytest.mark.parametrize("gp", [G351, G353], ids=["class1", "class2"])
def test_solve_recovers_every_catalog_subgroup(gp):
    for k, d in enumerate(sg.enumerate_catalog(gp)):
        o = orc.make_oracle(gp, d)
        rep = solver.solve(o, seed=k)
        assert rep.recovered == d, (d, rep.branch)
        assert rep.verified
        assert rep.strategy == "Direct"
        assert rep.oracle_queries < gp.order / 2
        table = sg.table_for(gp, d)
        assert rep.m == table.x_intersection_val(gp.p)
        assert rep.n == table.y_intersection_val(gp.p)
        cyc = solver.classify_cyclicity(rep.m, rep.n, gp.r)
        assert rep.branch == f"{gp.class_tag}/{cyc}/m={rep.m}"


@pytest.mark.parametrize("p,r,tau", [(7, 7, 1), (11, 5, 1), (3, 12, 1)])
def test_solve_past_the_array_guard(p, r, tau):
    # one catalog subgroup per branch; (7, 7) and (11, 5) are above the 2^24
    # guard of the array labels, so no solve here may label register arrays
    gp = gr.make_group(p, r, tau)
    branches = set()
    for d in sg.enumerate_catalog(gp):
        table = sg.table_for(gp, d)
        m, n = table.x_intersection_val(p), table.y_intersection_val(p)
        branch = f"{gp.class_tag}/{solver.classify_cyclicity(m, n, r)}/m={m}"
        if branch in branches:
            continue
        branches.add(branch)
        rep = solver.solve(orc.make_oracle(gp, d), seed=len(branches))
        assert (rep.recovered, rep.branch) == (d, branch)
    assert len(branches) == 2 * r + 1


@pytest.mark.parametrize("p,r", [(47, 5), (101, 5), (3, 36)])
def test_solve_large_groups_without_catalog_tables(p, r):
    # the catalog and canonicalize build no table per entry, so large p is cheap
    gp = gr.make_group(p, r, 1)
    before = sg.table_for.cache_info().currsize
    picks = random.Random(p * r).sample(sg.enumerate_catalog(gp), 4)
    assert sg.canonicalize(gp, sg.generators(gp, picks[0])) == picks[0]
    assert sg.table_for.cache_info().currsize == before
    for k, d in enumerate(picks):
        rep = solver.solve(orc.make_oracle(gp, d), seed=k)
        assert rep.recovered == d
        assert rep.verified
    assert sg.table_for.cache_info().currsize == before


def test_solving_builds_no_table(monkeypatch):
    # oracles, solves and composite solves read the head (d, s, a_1) only,
    # and take alpha^b from pow() without walking the group
    picks = [(G351, d) for d in sg.enumerate_catalog(G351)]
    for p in (7, 101):
        gp = gr.make_group(p, 5, 1)
        picks += [(gp, d) for d in random.Random(p).sample(sg.enumerate_catalog(gp), 8)]
    composite = []
    for alpha in (271, 811):
        cp = cx.make_composite(1215, 3, alpha)
        dec = cx.decompose(cp)
        for descr in random.Random(alpha).sample(sg.enumerate_catalog(dec.semidirect), 8):
            lifted = [(a * dec.p_crt_unit % cp.N, b)
                      for a, b in sg.generators(dec.semidirect, descr)]
            gens = lifted + [(dec.abelian[0].crt_unit, 0)]
            order = sg.SubgroupTable.from_generators(dec.parent, gens).order
            composite.append((cp, dec, descr, gens, order))

    def no_table(*args):
        raise AssertionError("a solve built a table")

    monkeypatch.setattr(sg.SubgroupTable, "from_generators", no_table)
    monkeypatch.setattr(sg, "table_for", no_table)
    monkeypatch.setattr(gr, "alpha_powers", no_table)
    for seed, (gp, d) in enumerate(picks):
        for o in (orc.make_oracle(gp, d),
                  orc.make_oracle_from_generators(gp, sg.generators(gp, d))):
            assert solver.solve(o, seed=seed).recovered == d
    for seed, (cp, dec, descr, gens, order) in enumerate(composite):
        res = cx.solve_composite(cp, orc.make_oracle_from_generators(dec.parent, gens), seed=seed)
        assert (res.semidirect_report.recovered, res.subgroup_order) == (descr, order)


def test_solve_abelian_group_direct_product():
    for k, d in enumerate(sg.enumerate_catalog(G350)):
        o = orc.make_oracle(G350, d)
        rep = solver.solve(o, seed=100 + k)
        assert rep.recovered == d
        assert rep.strategy == "AbelianOnly"
        assert rep.branch == "abelian/direct-product"
        assert rep.verified


def test_solve_matches_brute_force_recovery():
    for gp, d in ((G351, sg.sg3(2, 1)), (G353, sg.sg1m(1, 0, 0))):
        rep = solver.solve(orc.make_oracle(gp, d), seed=5)
        recovered_elems = sg.elements(gp, rep.recovered)
        brute = orc.brute_force_recover(orc.make_oracle(gp, d))
        assert recovered_elems == brute


def test_solve_strategy_agreement():
    for gp in (G351, G353):
        cutoff = gp.r - gr.commutator_depth(gp)
        for d in sg.enumerate_catalog(gp):
            table = sg.table_for(gp, d)
            if table.x_intersection_val(gp.p) > cutoff:
                continue
            rep_d = solver.solve(orc.make_oracle(gp, d), strategy="direct", seed=7)
            rep_a = solver.solve(
                orc.make_oracle(gp, d), strategy="abelianization", seed=8
            )
            assert rep_d.recovered == rep_a.recovered == d
            assert rep_a.strategy == "Abelianization"


def test_solve_abelianization_rejected_when_inapplicable():
    # class1: commutator <x^27>; <x^81> = sg1x(4) does not contain it
    with pytest.raises(PreconditionViolated):
        solver.solve(orc.make_oracle(G351, sg.sg1x(4)), strategy="abelianization", seed=0)


def test_abelian_class_strategies_give_the_same_report():
    # the commutator subgroup is trivial, so every H contains it, and G is
    # its own abelianization: both strategies run the direct-product section
    for seed, d in enumerate(sg.enumerate_catalog(G350)):
        direct = solver.solve(orc.make_oracle(G350, d), strategy="direct", seed=seed)
        quotient = solver.solve(orc.make_oracle(G350, d), strategy="abelianization", seed=seed)
        assert quotient.to_json() == direct.to_json()


def test_solve_rejects_unclassified_group():
    gp = gr.make_group(3, 4, 1)
    o = orc.make_oracle(gp, sg.sg1x(1))
    with pytest.raises(PreconditionViolated):
        solver.solve(o, seed=0)


@pytest.mark.parametrize("r", [3, 4])
def test_solve_refuses_r_below_5_before_any_query(r):
    o = orc.make_oracle(gr.make_group(3, r, 1), sg.sg1x(1))
    with pytest.raises(PreconditionViolated, match=f"the solver needs r > 4, got r = {r}$"):
        solver.solve(o, seed=0)
    assert o.meter == orc.Meter()


def test_solve_rejects_unknown_strategy():
    with pytest.raises(PreconditionViolated):
        solver.solve(orc.make_oracle(G351, sg.sg1x(1)), strategy="magic", seed=0)


@pytest.mark.parametrize(
    "strategy,shown",
    [("auto", "'auto'"), ("Direct", "'Direct'"), ("DIRECT", "'DIRECT'"), (None, "None"),
     (7, "7"), (["direct"], "['direct']"), (10**5000, "<int too long to print>")],
    ids=["auto", "Direct", "DIRECT", "None", "int", "list", "int-of-5001-digits"],
)
def test_solve_refuses_any_other_strategy_before_any_query(strategy, shown):
    o = orc.make_oracle(G351, sg.sg1x(1))
    with pytest.raises(PreconditionViolated, match=re.escape(f"unknown strategy {shown}") + "$"):
        solver.solve(o, strategy=strategy, seed=0)
    assert o.meter == orc.Meter()


@pytest.mark.parametrize("seed", [None, True, 1.0, "1"], ids=["None", "bool", "float", "str"])
def test_solve_and_solve_composite_refuse_a_seed_that_is_not_an_int(seed):
    o = orc.make_oracle(G351, sg.sg1x(1))
    with pytest.raises(PreconditionViolated, match="seed must be an int"):
        solver.solve(o, seed=seed)
    assert o.meter == orc.Meter()
    cp = cx.make_composite(1215, 3, 271)
    parent = orc.make_oracle_from_generators(cx.decompose(cp).parent, [(730, 1)])
    with pytest.raises(PreconditionViolated, match="seed must be an int"):
        cx.solve_composite(cp, parent, seed=seed)
    assert parent.meter == orc.Meter()


def test_solve_deterministic_given_seed():
    def run():
        o = orc.make_oracle(G351, sg.sg1m(2, 1, 0))
        return solver.solve(o, seed=42).to_json()

    assert run() == run()


def live_domains() -> int:
    gc.collect()
    return sum(isinstance(obj, qsim.Domain) for obj in gc.get_objects())


def test_reused_oracles_keep_no_domain_past_its_solve():
    o = orc.make_oracle(G351, sg.sg2(1, 1))
    cp = cx.make_composite(1215, 3, 271)
    dec = cx.decompose(cp)
    lifted = [(a * dec.p_crt_unit % cp.N, b)
              for a, b in sg.generators(dec.semidirect, sg.sg2(1, 1))]
    parent = orc.make_oracle_from_generators(dec.parent, lifted)
    solver.solve(o, seed=0)  # warm-up
    before = live_domains()
    for seed in range(1, 51):
        solver.solve(o, seed=seed)
    for seed in range(20):
        cx.solve_composite(cp, parent, seed=seed)
    assert live_domains() == before


def test_solve_reports_distinct_rng_streams_for_distinct_seeds(monkeypatch):
    streams: list[list] = []
    sample = qsim.fourier_sample

    def recording(s, rng):
        c = sample(s, rng)
        streams[-1].append(c)
        return c

    monkeypatch.setattr(qsim, "fourier_sample", recording)
    for s in range(8):
        streams.append([])
        rep = solver.solve(orc.make_oracle(G351, sg.sg2(1, 1)), seed=s)
        assert rep.recovered == sg.sg2(1, 1)
    assert len({tuple(chars) for chars in streams}) == 8


def test_final_verification_queries_identity_then_each_generator(monkeypatch):
    seen = record_queries(monkeypatch)
    rep = solver.solve(orc.make_oracle(G351, sg.sg2(1, 1)), seed=3)
    gens = sg.generators(G351, rep.recovered)
    assert seen[-1 - len(gens):] == [gr.IDENTITY, *gens]


def test_final_verification_stops_at_first_generator_outside(monkeypatch):
    # H = <x^3, y^3>; the faulty branch claims <x, y^3>, whose first
    # generator x is already outside H
    monkeypatch.setattr(solver, "solve_noncyclic_class1", lambda o, m, n, rng: sg.sg2(0, 1))
    seen = record_queries(monkeypatch)
    with pytest.raises(VerificationFailed, match=r"recovered generator \(1, 0\) is not"):
        solver.solve(orc.make_oracle(G351, sg.sg2(1, 1)), seed=3)
    assert seen[-2:] == [gr.IDENTITY, (1, 0)]


def test_final_verification_rejects_a_strict_subgroup_with_other_depths(monkeypatch):
    # H = <x^9> (m, n) = (2, 2); the faulty branch claims <x^27>, which passes
    # the membership check, so only the re-check of the measured depths fails
    monkeypatch.setattr(solver, "solve_cyclic_class1", lambda o, m, n, rng: sg.sg1x(3))
    with pytest.raises(VerificationFailed, match="measured axis depths"):
        solver.solve(orc.make_oracle(G351, sg.sg1x(2)), seed=3)


def test_solve_report_json_copies_the_group():
    rep = solver.solve(orc.make_oracle(G351, sg.sg2(1, 1)), seed=3)
    blob = rep.to_json()
    blob["group"]["p"] = 5
    assert rep.group == {"p": 3, "r": 5, "tau": 1, "class": gr.CLASS1}
    assert rep.to_json()["group"]["p"] == 3


def test_solve_report_json_matches_schema():
    schema = json.loads(
        resources.files("hsp_sdp").joinpath("schemas/solve_report.schema.json").read_text()
    )
    for gp, d in ((G351, sg.sg1m(1, 0, 1)), (G353, sg.sg2(1, 0)), (G350, sg.sg1x(2))):
        rep = solver.solve(orc.make_oracle(gp, d), seed=3)
        jsonschema.validate(rep.to_json(), schema)


def test_solve_first_try_rate_is_high():
    hits = total = 0
    for k, d in enumerate(sg.enumerate_catalog(G351)):
        for s in range(3):
            rep = solver.solve(orc.make_oracle(G351, d), seed=1000 * k + s)
            hits += rep.first_try
            total += 1
    assert hits / total >= 0.5


def test_solve_query_and_iteration_accounting():
    o = orc.make_oracle(G351, sg.sg1m(2, 0, 1))
    rep = solver.solve(o, seed=11)
    assert rep.oracle_queries == o.meter.queries
    assert rep.simulation_cost == o.meter.sim_evals
    assert rep.iterations >= 3  # two axis recoveries plus at least one branch pass
    assert rep.iterations == o.meter.iterations
    assert rep.first_try == (o.meter.retries == 0)
    assert rep.seed == 11
