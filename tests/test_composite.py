import itertools
import math
import random

import numpy as np
import pytest

from hsp_sdp import composite as cx
from hsp_sdp import group as gr
from hsp_sdp import oracle as orc
from hsp_sdp import solver
from hsp_sdp import subgroup as sg
from hsp_sdp.errors import (
    InvalidPrime,
    NotInvertible,
    Overflow,
    PreconditionViolated,
    RTooSmall,
    VerificationFailed,
)

from helpers import record_queries
import reference

N = 1215  # 3^5 * 5
ALPHA = 271  # == 28 mod 243, == 1 mod 5


def params():
    return cx.make_composite(N, 3, ALPHA)


# ------------------------------------------------------------- construction

def test_make_composite_frozen_factorization():
    cp = params()
    assert cp.N == N
    assert cp.p == 3
    assert cp.alpha == ALPHA
    assert cp.factorization == ((3, 5), (5, 1))


def test_make_composite_refuses_an_oversized_N_before_its_valuation(monkeypatch):
    # the p-adic valuation of N = 3^60000 * 5 alone took over a second
    def refused(*args):
        raise AssertionError("make_composite took a valuation past the order guard")

    monkeypatch.setattr(cx.nt, "p_valuation", refused)
    with pytest.raises(Overflow):
        cx.make_composite(3**60000 * 5, 3, 1)
    assert cx.make_composite(N, 3, ALPHA).factorization == ((3, 5), (5, 1))

def test_decompose_frozen_values():
    dec = cx.decompose(params())
    assert dec.semidirect.p == 3
    assert dec.semidirect.r == 5
    assert dec.semidirect.tau == 1
    assert dec.semidirect.alpha == 28
    assert dec.semidirect.class_tag == gr.CLASS1
    assert dec.p_crt_unit == 730
    assert len(dec.abelian) == 1
    fac = dec.abelian[0]
    assert (fac.prime, fac.modulus, fac.crt_unit) == (5, 5, 486)
    assert dec.parent.x_mod == N
    assert dec.parent.alpha == ALPHA
    # CRT units really are the slot projectors
    assert dec.p_crt_unit % 243 == 1 and dec.p_crt_unit % 5 == 0
    assert fac.crt_unit % 5 == 1 and fac.crt_unit % 243 == 0


def test_make_composite_validation_errors():
    with pytest.raises(InvalidPrime):
        cx.make_composite(4 * 243, 2, 1)
    with pytest.raises(InvalidPrime):
        cx.make_composite(N, 9, ALPHA)
    with pytest.raises(RTooSmall):
        cx.make_composite(81 * 5, 3, 1 + 27)  # 3-part has exponent 4
    with pytest.raises(NotInvertible):
        cx.make_composite(N, 3, 27)
    with pytest.raises(PreconditionViolated):
        cx.make_composite(N, 3, 2)  # order of 2 mod 1215 does not divide 9
    # 163 has order dividing 9 mod 1701 = 3^5 * 7, but 3 divides 7 - 1,
    # so the twist could leak into the 7-part: rejected up front.
    with pytest.raises(PreconditionViolated):
        cx.make_composite(3 ** 5 * 7, 3, 163)
    # The 2^63 order guard runs before N is factorized; factorize fails on
    # any call to prove it.
    def no_factorize(n):
        raise AssertionError(f"factorize({n}) called before the order guard")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx.nt, "factorize", no_factorize)
        with pytest.raises(Overflow):
            cx.make_composite(243 * (2**61 - 1), 3, 1)


@pytest.mark.parametrize(
    "n,p", [(1215, 3), (13365, 3), (18225, 3), (10935, 3), (9375, 5), (21875, 5)]
)
def test_every_valid_twist_splits_without_further_checks(n, p):
    # decompose checks nothing: each unit of order dividing p^2 is the p-part
    # group's twist mod p^r and is 1 on every coprime slot.
    twists = [a for a in range(n) if math.gcd(a, n) == 1 and pow(a, p * p, n) == 1]
    assert len(twists) == p * p
    for alpha in twists:
        dec = cx.decompose(cx.make_composite(n, p, alpha))
        assert dec.semidirect.alpha == alpha % p ** dec.semidirect.r
        assert dec.abelian
        assert all(alpha % fac.modulus == 1 for fac in dec.abelian)


def test_parent_group_is_isomorphic_to_factor_product():
    dec = cx.decompose(params())
    parent = dec.parent
    factor = dec.semidirect
    rng = random.Random(0)

    def split(g):
        a, b = g
        return ((a % 243, b), a % 5)

    for _ in range(2000):
        g1 = (rng.randrange(N), rng.randrange(9))
        g2 = (rng.randrange(N), rng.randrange(9))
        whole = split(gr.mul(parent, g1, g2))
        s1, q1 = split(g1)
        s2, q2 = split(g2)
        assert whole == (gr.mul(factor, s1, s2), (q1 + q2) % 5)


def test_factor_oracle_array_labels_match_scalar_labels():
    """The reference labels of a factor view, read from its p-part head,
    split the factor group into the same classes as its scalar labels, which
    go through the parent: every p-part catalog subgroup under both twists,
    with the Z_5 slot trivial and full."""
    elems = list(itertools.product(range(243), range(9)))
    a = np.array([g[0] for g in elems], dtype=np.int64)
    b = np.array([g[1] for g in elems], dtype=np.int64)
    cases = 0
    for alpha in (271, 811):
        dec = cx.decompose(cx.make_composite(N, 3, alpha))
        (slot,) = dec.abelian
        for descr in sg.enumerate_catalog(dec.semidirect):
            gens = sg.generators(dec.semidirect, descr)
            lifted = [(x * dec.p_crt_unit % N, y) for x, y in gens]
            for extra in ([], [(slot.crt_unit, 0)]):
                o = orc.make_oracle_from_generators(dec.parent, lifted + extra)
                fo = cx.FactorOracle(o, dec.semidirect, dec.p_crt_unit)
                scalar = [fo._label(g)._packed for g in elems]
                got = reference.label_array(fo, a, b).tolist()
                pairs = set(zip(got, scalar))
                assert len(pairs) == len(set(got)) == len(set(scalar)), (alpha, descr, extra)
                _, s, _ = sg.descriptor_head(dec.semidirect, descr)
                assert fo.meter.sim_evals == o.meter.sim_evals == 9 // s  # one head read
                assert fo.meter.queries == o.meter.queries == 0
                cases += 1
    assert cases == 248


# ------------------------------------------------------------------ solving

def curated_cases():
    e1, e5 = 730, 486
    return [
        [],                                    # trivial
        [(1, 0), (0, 1)],                      # whole group
        [(e5, 0)],                             # pure 5-slot
        [(27 * e1 % N, 0)],                    # x-depth 3 in the 3-slot
        [(2 * e1 % N, 3)],                     # mixed cyclic, no 5 part
        [(2 * e1 % N, 3), (e5, 0)],            # same plus the 5-slot
        [(3 * e1 % N, 1)],                     # mixed cyclic, depth 3
        [(9 * e1 % N, 0), (0, 3), (e5, 0)],    # noncyclic grid plus 5-slot
        [(0, 3)],                              # pure y part
        [(e1, 1), (e5, 0)],                    # whole 3-slot semidirect piece
    ]


def test_parent_table_bitset_decodes_to_elements():
    # lifted catalog entries, with and without the 5-slot, and the curated cases
    dec = cx.decompose(params())
    e5 = dec.abelian[0].crt_unit
    cases = list(curated_cases())
    for d in sg.enumerate_catalog(dec.semidirect):
        lifted = [(a * dec.p_crt_unit % N, b) for a, b in sg.generators(dec.semidirect, d)]
        cases += [lifted, lifted + [(e5, 0)]]
    steps = set()
    for gens in cases:
        table = sg.SubgroupTable.from_generators(dec.parent, gens)
        steps.add(table.x_step)
        bits = table.bitset()
        assert sg.bitset_elements(bits, dec.parent.y_mod) == table.elements(), gens
    assert any(s % 5 == 0 for s in steps)  # x-steps that are not powers of p = 3


@pytest.mark.parametrize("k", range(len(curated_cases())))
def test_solve_composite_matches_brute_force(k):
    gens = curated_cases()[k]
    cp = params()
    dec = cx.decompose(cp)
    o = orc.make_oracle_from_generators(dec.parent, gens)
    res = cx.solve_composite(cp, o, seed=k)
    assert res.verified
    recovered = sg.SubgroupTable.from_generators(dec.parent, res.generators)
    brute = orc.brute_force_recover(orc.make_oracle_from_generators(dec.parent, gens))
    assert recovered.elements() == brute


def test_solve_composite_reports():
    cp = params()
    dec = cx.decompose(cp)
    gens = [(2 * 730 % N, 3), (486, 0)]
    o = orc.make_oracle_from_generators(dec.parent, gens)
    res = cx.solve_composite(cp, o, seed=9)
    assert res.semidirect_report.recovered == sg.sg1m(2, 0, 1)
    assert res.semidirect_report.group["class"] == "class1"
    assert res.abelian_valuations == ((5, 0),)
    assert res.subgroup_order == sg.SubgroupTable.from_generators(
        dec.parent, gens
    ).order
    assert res.oracle_queries == o.meter.queries
    assert res.simulation_cost == o.meter.sim_evals
    assert res.iterations == o.meter.iterations
    assert res.seed == 9


def test_combined_verification_queries_identity_then_each_generator(monkeypatch):
    cp = params()
    dec = cx.decompose(cp)
    o = orc.make_oracle_from_generators(dec.parent, [(2 * 730 % N, 3), (486, 0)])
    seen = record_queries(monkeypatch)
    res = cx.solve_composite(cp, o, seed=9)
    assert seen[-1 - len(res.generators):] == [gr.IDENTITY, *res.generators]


def test_combined_verification_stops_at_first_generator_outside(monkeypatch):
    # the hidden subgroup has no 3-part; a faulty p-part answer <x> lifts to
    # (730, 0) after the 5-slot generator (486, 0), which is inside
    solve = solver.solve

    def faulty(o, **kw):
        return solve(o, **kw)._replace(recovered=sg.sg1x(0))

    monkeypatch.setattr(solver, "solve", faulty)
    cp = params()
    dec = cx.decompose(cp)
    o = orc.make_oracle_from_generators(dec.parent, [(486, 0)])
    seen = record_queries(monkeypatch)
    with pytest.raises(VerificationFailed, match=r"combined generator \(730, 0\) is not"):
        cx.solve_composite(cp, o, seed=9)
    assert seen[-3:] == [gr.IDENTITY, (486, 0), (730, 0)]


def test_solve_composite_deterministic():
    def run():
        cp = params()
        dec = cx.decompose(cp)
        o = orc.make_oracle_from_generators(dec.parent, [(3 * 730 % N, 1)])
        return cx.solve_composite(cp, o, seed=4).to_json()

    assert run() == run()
