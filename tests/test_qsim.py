import hashlib
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

from hsp_sdp import composite as cx
from hsp_sdp import group as gr
from hsp_sdp import oracle as orc
from hsp_sdp import qsim
from hsp_sdp import solver
from hsp_sdp import subgroup as sg
from hsp_sdp.errors import (
    PreconditionViolated,
    RetriesExhausted,
    TooLarge,
)

from helpers import record_queries, register_span, row_walk_k_gens
import reference

G350 = gr.make_group(3, 5, 0)
G351 = gr.make_group(3, 5, 1)
G353 = gr.make_group(3, 5, 3)
G561 = gr.make_group(5, 6, 1)


def direct_domain(dims):
    """Registers map straight onto (a, b) coordinates."""
    return qsim.Domain(tuple(dims), ((1, 0), (0, 1)), name="direct")


def x_axis_domain(gp):
    return qsim.Domain((gp.x_mod,), ((1, 0),), name="x-axis")


def y_axis_domain(gp):
    return qsim.Domain((gp.y_mod,), ((0, 1),), name="y-axis")


# ---------------------------------------------------------------- dual_kernel

def test_dual_kernel_single_register():
    gens = qsim.dual_kernel((9,), [(3,)])
    assert register_span((9,), gens) == frozenset({(0,), (3,), (6,)})


def test_dual_kernel_two_registers():
    gens = qsim.dual_kernel((3, 9), [(1, 1)])
    span = register_span((3, 9), gens)
    want = {
        (u, v)
        for u in range(3)
        for v in range(9)
        if (u * 3 + v) % 9 == 0
    }
    assert span == want


def test_dual_kernel_empty_characters_is_whole_space():
    gens = qsim.dual_kernel((3, 3), [])
    assert len(register_span((3, 3), gens)) == 9


def test_double_annihilator_round_trip():
    rng = random.Random(23)
    dims = (9, 27)
    for _ in range(40):
        vecs = [
            tuple(rng.randrange(n) for n in dims)
            for _ in range(rng.randrange(1, 3))
        ]
        sub = register_span(dims, vecs)
        ann = qsim.dual_kernel(dims, vecs)
        back = qsim.dual_kernel(dims, ann)
        assert register_span(dims, back) == sub
        # annihilator size complements the subgroup size
        assert len(sub) * len(register_span(dims, ann)) == 9 * 27


def test_dual_kernel_rejects_mixed_primes():
    with pytest.raises(ValueError):
        qsim.dual_kernel((3, 4), [(1, 1)])


@pytest.mark.parametrize(
    "dims", [(243,), (9,), (81, 9), (3, 9), (25, 25), (125, 25), (7, 49), (27, 9, 3)]
)
def test_dual_kernel_ignores_repeats_and_zeros(dims):
    # qsim.dual_kernel takes one or two registers; three run the reference
    kernel = qsim.dual_kernel if len(dims) <= 2 else reference.dual_kernel_loop
    rng = random.Random(math.prod(dims))
    L = math.lcm(*dims)
    zero = (0,) * len(dims)
    points = list(itertools.product(*map(range, dims))) if math.prod(dims) <= 729 else []
    for _ in range(30):
        vs = [tuple(rng.randrange(n) for n in dims) for _ in range(rng.randrange(5))]
        gens = kernel(dims, vs)
        assert kernel(dims, vs + vs[::-1] + [zero]) == gens
        if points:
            want = {
                w for w in points
                if all(sum(a * b * (L // n) for a, b, n in zip(w, v, dims)) % L == 0
                       for v in vs)
            }
            assert register_span(dims, gens) == want


@pytest.mark.parametrize("n", [3**k for k in range(1, 8)] + [5**k for k in range(1, 5)]
                         + [7**k for k in range(1, 4)])
def test_dual_kernel_one_register_closed_form_matches_brute_force(n):
    rng = random.Random(n)
    lists = [[], [(0,)], [(n,)], [(-1,)], [(n - 1,), (n - 1,)]]
    for _ in range(12):  # zeros, repeats, values >= n and negative values
        pool = [0, n, -n, n // 3 * 2, rng.randrange(-3 * n, 3 * n), rng.randrange(n)]
        lists.append([(rng.choice(pool),) for _ in range(rng.randrange(1, 6))])
    for vs in lists:
        want = {(w,) for w in range(n) if all(w * c % n == 0 for (c,) in vs)}
        gens = qsim.dual_kernel((n,), vs)
        assert len(gens) <= 1 and all(0 < g < n and n % g == 0 for (g,) in gens), (vs, gens)
        assert register_span((n,), gens) == want, vs


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_two_register_kernel_matches_the_general_elimination(p):
    # dims (p^a, p^b) in both orders; character lists with repeats, zeros,
    # negative entries and entries >= n, and subgroup generators: the written-
    # out elimination must return the loop's list, in order
    for a, b in itertools.product((1, 2, 3), repeat=2):
        dims = (p**a, p**b)
        rng = random.Random(p * 100 + a * 10 + b)
        lists = [[], [(0, 0)], [dims], [(-1, -1)], [(1, p)] * 3,
                 [(p, 0), (0, p)], [(1, 0), (0, 1)]]
        while len(lists) < 60:
            pool = [rng.randrange(-3 * n, 3 * n) for n in dims]
            pool += [0, dims[0], -dims[1], rng.randrange(dims[0]) * p, rng.randrange(dims[1])]
            vs = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randrange(1, 8))]
            lists.append(vs + vs[: rng.randrange(3)])
        for vs in lists:
            assert qsim.dual_kernel(dims, vs) == reference.dual_kernel_loop(dims, vs), (dims, vs)


def test_dual_kernel_keeps_the_redundant_second_generator():
    # (9, 0) = 18 (26, 1) adds nothing to the span, but fourier_sample draws
    # once per generator: dropping it would move every seeded stream
    assert qsim.dual_kernel((27, 9), [(3, 1)]) == [(26, 1), (9, 0)]


def test_three_registers_raise():
    with pytest.raises(ValueError):
        qsim.dual_kernel((27, 9, 3), [(1, 1, 1)])
    with pytest.raises(ValueError):
        qsim.Domain((3, 3, 3), ((1, 0), (0, 1), (1, 1))).embed(G351, (1, 1, 1))


# ---------------------------------------------------------------- coset_sample

def test_coset_support_structure_mixed_cyclic():
    # H = <x y^3>, registers Z_3 x Z_9: support is a coset of <(1, 3)>
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    dom = direct_domain((3, 9))
    rng = random.Random(0)
    s = qsim.coset_sample(o, qsim.pullback(o, dom), rng)
    assert s.dims == (3, 9)
    a0, b0 = s.base
    want = {((a0 + l) % 3, (b0 + 3 * l) % 9) for l in range(3)}
    assert reference.points(s) == want
    assert len(reference.points(s)) == 3


def test_coset_support_singleton_and_full():
    dom = direct_domain((3, 9))
    rng = random.Random(1)
    o_small = orc.make_oracle(G351, sg.sg1x(1))
    s = qsim.coset_sample(o_small, qsim.pullback(o_small, dom), rng)
    assert reference.points(s) == {s.base}
    o_whole = orc.make_oracle(G351, sg.sg2(0, 0))
    s2 = qsim.coset_sample(o_whole, qsim.pullback(o_whole, dom), rng)
    assert len(reference.points(s2)) == 27


def test_coset_sample_accounting_and_cache():
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    dom = direct_domain((3, 9))
    rng = random.Random(2)
    # one read of the hidden table: H = <x y^3> has the rows b = 0, 3, 6
    k = qsim.pullback(o, dom)
    qsim.coset_sample(o, k, rng)
    assert o.meter.queries == 1
    assert o.meter.sim_evals == 3
    qsim.coset_sample(o, k, rng)
    assert o.meter.queries == 2
    assert o.meter.sim_evals == 3  # samples reuse K: no table read
    # every pullback reads the table again
    qsim.coset_sample(o, qsim.pullback(o, direct_domain((3, 9))), rng)
    assert o.meter.sim_evals == 6


def test_coset_sample_guard():
    o = orc.make_oracle(G351, sg.sg1x(1))
    big = qsim.Domain((2048, 1024), ((0, 0), (0, 0)), name="huge")
    with pytest.raises(TooLarge):
        reference.level_set_scan(o, big)


def test_coset_points_share_label():
    o = orc.make_oracle(G353, sg.sg1m(1, 0, 0))
    dom = direct_domain((9, 9))
    s = qsim.coset_sample(o, qsim.pullback(o, dom), random.Random(4))
    labels = {o.query((pt[0] % 243, pt[1])) for pt in reference.points(s)}
    assert len(labels) == 1


def first_outside_span_gens(dims, k_points):
    """Reference rule for K generators: each is the first point of K, in
    sorted order, outside the span of the generators before it."""
    gens = []
    span = register_span(dims, gens)
    for pt in sorted(k_points):
        if pt not in span:
            gens.append(pt)
            span = register_span(dims, gens)
    return tuple(gens)


def solver_domains(gp):
    """Every register domain solver.solve builds on gp, for any hidden subgroup:
    both axes, the abelian route <x^(p^s), y> at the scales its class uses
    (class1 s = 2, class2 s = 1; both on the abelian group), the
    abelianization section or the tau = 0 section, and the constraint
    routine's cyclic m = 1..3 and noncyclic m = 1..2 registers."""
    p, x_mod, y_mod = gp.p, gp.x_mod, gp.y_mod
    scales = {gr.CLASS1: (2,), gr.CLASS2: (1, 2), gr.CLASS_ABELIAN: (1, 2)}
    doms = [x_axis_domain(gp), y_axis_domain(gp)]
    for k in scales[gp.class_tag]:
        doms.append(qsim.Domain((x_mod // p**k, y_mod), ((p**k, 0), (0, 1)), f"route-{k}"))
    if gp.class_tag == gr.CLASS_ABELIAN:
        doms.append(qsim.Domain((x_mod, y_mod), ((1, 0), (0, 1)), "abelian"))
    else:
        q = p ** (gp.r - gr.commutator_depth(gp))
        doms.append(qsim.Domain((q, y_mod), ((1, 0), (0, 1)), "abelianization"))
    doms += [qsim.Domain((p**m, y_mod), ((1, 0), (0, 1)), f"cyclic-m{m}") for m in (1, 2, 3)]
    doms += [qsim.Domain((p, p), ((p ** (m - 1), 0), (0, 1)), f"noncyclic-m{m}") for m in (1, 2)]
    return doms


def coset_conditions(gp, table, dom) -> bool:
    """The qsim docstring's sufficient conditions for the level sets of
    (u[, v]) -> x^(s u) [y^v] to be cosets of K: x^(s n) lies in H and, for a
    two-register domain, y^(n_v) and x^(s (alpha - 1)) lie in H too."""
    if dom.axes == ((0, 1),):
        return True  # the y axis is a homomorphism into G
    s, n = dom.axes[0][0], dom.dims[0]
    needs = [(s * n % gp.x_mod, 0)]
    if len(dom.dims) == 2:
        needs += [(0, dom.dims[1] % gp.y_mod), (s * (gp.alpha - 1) % gp.x_mod, 0)]
    return all(table.contains(g) for g in needs)


def assert_closed_form_matches_scan(o, table, dom, label) -> bool:
    """The closed-form (gens, ann) equal the reference scan's wherever the scan
    accepts the domain; the scan must accept it when coset_conditions hold.
    Returns whether the scan accepted it."""
    try:
        scan = reference.level_set_scan(o, dom)
    except PreconditionViolated:
        assert not coset_conditions(o.group, table, dom), (label, dom.name)
        return False
    s = qsim.pullback(o, dom)
    assert (s.gens, s.ann) == (scan.k_gens, scan.ann), (label, dom.name)
    return True


@pytest.mark.parametrize("gp", [G351, G353, G350, G561])
def test_k_gens_follow_first_point_outside_span(gp):
    # literal check, |domain| queries per subgroup and domain: at p = 3 only
    literal = [
        qsim.Domain((27, 9), ((9, 0), (0, 1)), name="plane"),
        x_axis_domain(gp),
        y_axis_domain(gp),
    ] if gp.p == 3 else []
    accepted = 0  # (subgroup, domain) pairs the scan accepts
    for descr in sg.enumerate_catalog(gp):
        o = orc.make_oracle(gp, descr)
        for dom in literal:
            s = qsim.pullback(o, dom)
            ref = o.query(dom.embed(gp, qsim._zero(dom.dims)))
            k_points = [
                pt for pt in itertools.product(*map(range, dom.dims))
                if o.query(dom.embed(gp, pt)) == ref
            ]
            assert s.gens == first_outside_span_gens(dom.dims, k_points), descr
            assert s.ann == tuple(qsim.dual_kernel(dom.dims, s.gens)), descr
        table = sg.table_for(gp, descr)
        for dom in solver_domains(gp):
            accepted += assert_closed_form_matches_scan(o, table, dom, descr)
    # nearly every pair is compared; the rest fail coset_conditions
    assert accepted >= 0.9 * len(sg.enumerate_catalog(gp)) * len(solver_domains(gp))


def test_closed_form_matches_scan_on_composite_domains():
    # N = 1215 = 3^5 * 5, both twists: every p-part subgroup, with the Z_5
    # slot trivial or full, on the factor view of the oracle, and the crt-5
    # axis on the parent oracle
    for alpha in (271, 811):
        dec = cx.decompose(cx.make_composite(1215, 3, alpha))
        unit5 = dec.abelian[0].crt_unit
        crt_axis = qsim.Domain((5,), ((unit5, 0),), name="crt-5")
        for descr in sg.enumerate_catalog(dec.semidirect):
            table = sg.table_for(dec.semidirect, descr)
            lifted = [(a * dec.p_crt_unit % 1215, b)
                      for a, b in sg.generators(dec.semidirect, descr)]
            for slot in ([], [(unit5, 0)]):
                o = orc.make_oracle_from_generators(dec.parent, lifted + slot)
                fo = cx.FactorOracle(o, dec.semidirect, dec.p_crt_unit)
                head = fo._sim_table()
                assert head == sg._head(dec.semidirect, sg.generators(dec.semidirect, descr))
                row = sg._rows(dec.semidirect, head)
                assert [row(k) for k in range(len(table.reps))] == [a for _, a in table.reps]
                label = (alpha, descr, slot)
                for dom in solver_domains(dec.semidirect):
                    assert_closed_form_matches_scan(fo, table, dom, label)
                parent_table = sg.SubgroupTable.from_generators(dec.parent, lifted + slot)
                assert assert_closed_form_matches_scan(o, parent_table, crt_axis, label)


@pytest.mark.parametrize("gp", [G350, G351, G353, G561, gr.make_group(7, 5, 1)])
def test_closed_form_pullback_matches_the_row_walk(gp):
    compared = set()  # domains with a pair the conditions admit
    for descr in sg.enumerate_catalog(gp):
        o = orc.make_oracle(gp, descr)
        table = sg.table_for(gp, descr)
        for dom in solver_domains(gp):
            if coset_conditions(gp, table, dom):
                assert qsim.pullback(o, dom).gens == row_walk_k_gens(table, dom), (descr, dom.name)
                compared.add(dom.name)
    assert compared == {dom.name for dom in solver_domains(gp)}


def test_closed_form_pullback_matches_the_row_walk_on_factor_views():
    for alpha in (271, 811):
        dec = cx.decompose(cx.make_composite(1215, 3, alpha))
        unit5 = dec.abelian[0].crt_unit
        crt_axis = qsim.Domain((5,), ((unit5, 0),), name="crt-5")
        for descr in sg.enumerate_catalog(dec.semidirect):
            table = sg.table_for(dec.semidirect, descr)
            lifted = [(a * dec.p_crt_unit % 1215, b)
                      for a, b in sg.generators(dec.semidirect, descr)]
            for slot in ([], [(unit5, 0)]):
                o = orc.make_oracle_from_generators(dec.parent, lifted + slot)
                fo = cx.FactorOracle(o, dec.semidirect, dec.p_crt_unit)
                label = (alpha, descr, slot)
                for dom in solver_domains(dec.semidirect):
                    if coset_conditions(dec.semidirect, table, dom):
                        assert qsim.pullback(fo, dom).gens == row_walk_k_gens(table, dom), label
                parent_table = sg.SubgroupTable.from_generators(dec.parent, lifted + slot)
                assert coset_conditions(dec.parent, parent_table, crt_axis)
                assert qsim.pullback(o, crt_axis).gens == row_walk_k_gens(parent_table, crt_axis)


def test_solver_pullbacks_meet_the_coset_conditions(monkeypatch):
    # the closed form's precondition holds on every call solve and
    # solve_composite make: seeded solves with both strategies, composite
    # solves of every lifted p-part subgroup with and without the Z_5 slot
    met = []
    pullback = qsim.pullback

    def checked(o, dom):
        d, s, a_1 = o._sim_table()
        gp = o.group
        table = sg.SubgroupTable.from_generators(gp, [(d % gp.x_mod, 0), (a_1, s % gp.y_mod)])
        met.append(coset_conditions(gp, table, dom))
        return pullback(o, dom)

    monkeypatch.setattr(qsim, "pullback", checked)
    g751 = gr.make_group(7, 5, 1)
    picks = [(gp, d) for gp in (G350, G351, G353, G561) for d in sg.enumerate_catalog(gp)]
    picks += [(g751, d) for d in random.Random(751).sample(sg.enumerate_catalog(g751), 60)]
    for seed, (gp, d) in enumerate(picks):
        for strategy in ("direct", "abelianization"):
            try:
                solver.solve(orc.make_oracle(gp, d), strategy=strategy, seed=seed)
            except PreconditionViolated:
                assert strategy == "abelianization"
    for alpha in (271, 811):
        cp = cx.make_composite(1215, 3, alpha)
        dec = cx.decompose(cp)
        for seed, descr in enumerate(sg.enumerate_catalog(dec.semidirect)):
            lifted = [(a * dec.p_crt_unit % 1215, b)
                      for a, b in sg.generators(dec.semidirect, descr)]
            for slot in ([], [(dec.abelian[0].crt_unit, 0)]):
                o = orc.make_oracle_from_generators(dec.parent, lifted + slot)
                cx.solve_composite(cp, o, seed=seed)
    assert met and all(met)


class CurvedDomain(NamedTuple):
    """Test-only non-linear domain u -> (f(u), 0) with qsim.Domain's fields;
    f must work elementwise on int64 arrays as well as on ints. No linear
    domain reaches the coset guard."""

    dims: qsim.Register
    axes: tuple
    name: str
    f: Callable

    def embed(self, group, u):
        a = self.f(u) % group.x_mod
        return a, 0 * a


# H = <x^9>: on the x axis the label of (a, 0) is a mod 9, so each hand-built
# embedding below fixes the level sets of its domain directly.

def test_scan_rejects_identity_level_set_that_is_not_a_subgroup():
    cases = [
        # u -> u(u-1): the identity level set is {0, 1}
        (sg.sg1x(2), CurvedDomain((9,), (), name="quad", f=lambda pt: pt[0] * (pt[0] - 1))),
        # (u, v) -> x^v y^u against H = <x^2 y>
        (sg.sg1m(2, 0, 0), qsim.Domain((3, 3), ((0, 1), (1, 0)), name="swapped")),
    ]
    for descr, dom in cases:
        o = orc.make_oracle(G351, descr)
        with pytest.raises(PreconditionViolated, match="not a register subgroup"):
            reference.level_set_scan(o, dom)


def test_scan_rejects_unequal_level_set_sizes():
    cases = [
        # u -> u^2: level sets {0, 3, 6}, {1, 8}, {2, 7}, {4, 5}
        CurvedDomain((9,), (), name="square", f=lambda pt: pt[0] * pt[0]),
        # (u, v) -> y^(u+v): level sets of sizes 1, 2, 3, 2, 1
        qsim.Domain((3, 3), ((0, 1), (0, 1)), name="diagonal"),
    ]
    for dom in cases:
        o = orc.make_oracle(G351, sg.sg1x(2))
        with pytest.raises(PreconditionViolated, match="unequal sizes"):
            reference.level_set_scan(o, dom)


def test_scan_rejects_level_set_that_is_not_a_coset():
    # (u, v) -> 3v(1 + u^2): K = {(u, 0)}, but {(0, 1), (1, 2), (2, 2)} is a
    # level set of the right size that is no coset of K
    o = orc.make_oracle(G351, sg.sg1x(2))
    dom = CurvedDomain(
        (3, 3), (), name="twisted", f=lambda pt: 3 * pt[1] * (1 + pt[0] * pt[0])
    )
    with pytest.raises(PreconditionViolated, match="not a coset of K"):
        reference.level_set_scan(o, dom)


def test_coset_sample_rejects_domains_without_closed_form():
    o = orc.make_oracle(G351, sg.sg1x(2))
    for dom in (
        qsim.Domain((3, 3), ((0, 1), (1, 0)), name="swapped"),
        qsim.Domain((3, 3), ((0, 1), (0, 1)), name="diagonal"),
        qsim.Domain((3,), ((1, 1),), name="skew"),
        qsim.Domain((27,), ((0, 1),), name="long-y"),
        CurvedDomain((9,), (), name="quad", f=lambda pt: pt[0] * (pt[0] - 1)),
    ):
        with pytest.raises(PreconditionViolated, match="no closed-form level sets"):
            qsim.pullback(o, dom)
    assert o.meter.queries == 0


def test_embed_matches_the_general_loop():
    # every solver domain shape, and the hand-built swapped, diagonal, skew
    # and crt-5 domains, on ints and on the scan's int64 index arrays
    dec = cx.decompose(cx.make_composite(1215, 3, 271))
    cases = [(gp, dom) for gp in (G350, G351, G353, G561, gr.make_group(7, 5, 1))
             for dom in solver_domains(gp)]
    cases += [(dec.semidirect, dom) for dom in solver_domains(dec.semidirect)]
    cases += [(G351, qsim.Domain((3, 3), ((0, 1), (1, 0)), name="swapped")),
              (G351, qsim.Domain((3, 3), ((0, 1), (0, 1)), name="diagonal")),
              (G351, qsim.Domain((3,), ((1, 1),), name="skew")),
              (dec.parent, qsim.Domain((5,), ((dec.abelian[0].crt_unit, 0),), name="crt-5"))]
    rng = random.Random(36)
    for gp, dom in cases:
        pts = [tuple(rng.randrange(-n, 2 * n) for n in dom.dims) for _ in range(40)]
        pts.append(qsim._zero(dom.dims))
        for pt in pts:
            assert dom.embed(gp, pt) == reference.embed_loop(dom, gp, pt), (dom, pt)
        if math.prod(dom.dims) <= reference.COSET_GUARD:
            coords = np.unravel_index(np.arange(math.prod(dom.dims)), dom.dims)
            for got, want in zip(dom.embed(gp, coords), reference.embed_loop(dom, gp, coords)):
                assert np.array_equal(got, want), dom


# ---------------------------------------------------------------- fourier_distribution

def test_fourier_distribution_mixed_cyclic():
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    s = qsim.coset_sample(o, qsim.pullback(o, direct_domain((3, 9))), random.Random(5))
    dist = reference.fourier_distribution(s)
    want = {
        (c1, c2): Fraction(1, 9)
        for c1 in range(3)
        for c2 in range(9)
        if (c1 + c2) % 3 == 0
    }
    assert dist.probs == want
    assert sum(dist.probs.values()) == 1


def test_fourier_distribution_singleton_support():
    o = orc.make_oracle(G351, sg.sg1x(1))
    s = qsim.coset_sample(o, qsim.pullback(o, direct_domain((3, 9))), random.Random(6))
    dist = reference.fourier_distribution(s)
    assert len(dist.probs) == 27
    assert set(dist.probs.values()) == {Fraction(1, 27)}


def test_fourier_distribution_full_support_is_point_mass():
    o = orc.make_oracle(G351, sg.sg2(0, 0))
    s = qsim.coset_sample(o, qsim.pullback(o, direct_domain((3, 9))), random.Random(7))
    dist = reference.fourier_distribution(s)
    assert dist.probs == {(0, 0): Fraction(1)}


def test_fourier_distribution_probability_independent_of_base():
    # two samples of the same hidden subgroup give the same distribution
    o = orc.make_oracle(G351, sg.sg1m(2, 0, 1))
    k = qsim.pullback(o, direct_domain((3, 9)))
    rng = random.Random(9)
    d1 = reference.fourier_distribution(qsim.coset_sample(o, k, rng))
    d2 = reference.fourier_distribution(qsim.coset_sample(o, k, rng))
    assert d1.probs == d2.probs


# ---------------------------------------------------------------- fourier_sample

# SHA-256 of repr((base, character)) over 300 coset_sample -> fourier_sample
# pairs, recorded with the sampler's original per-coordinate loops: a faster
# sampler must draw the same RNG stream, or every seeded report moves. H =
# sg1x(0) fills the x axis, so its annihilator is empty and no character is
# drawn; crt-5 is the Z_5 slot of N = 1215 = 3^5 * 5 on the parent oracle.
# The two 2-D cases were recorded before the two-register closed form: on
# cyclic-m1's Z_3 x Z_9 the y coordinate is the larger (L = n1), and the whole
# group fills the abelian route's register, so again no character is drawn.
D1215 = cx.decompose(cx.make_composite(1215, 3, 271))
SAMPLER_STREAMS = [
    ("x-axis", G351, sg.generators(G351, sg.sg1x(2)), (243,), ((1, 0),), 30,
     "9abca071c53933da50f5fcb3e2e0c689bbefd58445ddd2461ec774afe968f988"),
    ("y-axis", G351, sg.generators(G351, sg.sg2(0, 1)), (9,), ((0, 1),), 31,
     "552a85991314b0ebcdecd7fa30775cb6fc10c5257137f7005d0b6e99a2740c9e"),
    ("abelianization", G351, sg.generators(G351, sg.sg2(1, 1)), (27, 9),
     ((1, 0), (0, 1)), 32,
     "9aa61b030292526ac859b3a175625aa44eee40c0c85fe4d93f13cf7a0eeb6769"),
    ("x-axis-whole", G351, sg.generators(G351, sg.sg1x(0)), (243,), ((1, 0),), 33,
     "5b46570f2a84075bb21664a97aa2faa457585c23db10a0a1ab35be1f3df24e00"),
    ("crt-5", D1215.parent, [(3 * D1215.p_crt_unit % 1215, 1)], (5,),
     ((D1215.abelian[0].crt_unit, 0),), 34,
     "44bf0e9aa28f21027ff3fd61ee320f9e91026e0799f016b8b7255e5704372a9a"),
    ("cyclic-m1", G351, sg.generators(G351, sg.sg1m(1, 0, 1)), (3, 9),
     ((1, 0), (0, 1)), 35,
     "44233d1943a5fefe72a52cdff8111ec071f9b3601a195cd1247a5145a6c0c252"),
    ("abelian-route-whole", G351, sg.generators(G351, sg.sg2(0, 0)), (27, 9),
     ((9, 0), (0, 1)), 36,
     "e42dc52599320640792929e0e6f2e8a03860df662871b26ccbf7a054636be5f4"),
]


@pytest.mark.parametrize("name, group, gens, dims, axes, seed, digest", SAMPLER_STREAMS,
                         ids=[case[0] for case in SAMPLER_STREAMS])
def test_sampler_stream_is_pinned(name, group, gens, dims, axes, seed, digest):
    o = orc.make_oracle_from_generators(group, gens)
    k = qsim.pullback(o, qsim.Domain(dims, axes, name))
    rng = random.Random(seed)
    h = hashlib.sha256()
    for i in range(1, 301):
        s = qsim.coset_sample(o, k, rng)
        c = qsim.fourier_sample(s, rng)
        assert o.meter.queries == i  # one superposed query per sample
        h.update(repr((s.base, c)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_one_register_draw_matches_the_general_loop(p):
    # annihilators of K = <p^i> on Z_(p^e) (none for i = 0, one generator
    # otherwise) and a two-generator one that dual_kernel never returns: the
    # closed form must return what the loop returns and leave the RNG in the
    # same state
    for e in (1, 2, 3):
        n = p**e
        anns = [tuple(qsim.dual_kernel((n,), [(p**i,)])) for i in range(e + 1)]
        assert [len(ann) for ann in anns] == [0] + [1] * e
        for ann in anns + [((1,), (p,))]:
            s = qsim.CosetSupport((n,), (0,), (), ann)
            fast, loop = random.Random(n + len(ann)), random.Random(n + len(ann))
            for _ in range(100):
                assert qsim.fourier_sample(s, fast) == reference.fourier_sample_loop(s, loop)
            assert fast.getstate() == loop.getstate()


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_two_register_draw_matches_the_general_loop(p):
    # dims (p^a, p^b) in both orders, so either coordinate can be the larger;
    # annihilators of K with 0, 1 and 2 generators from dual_kernel (the last
    # K is the whole register: no draw), and a hand-built two-generator one:
    # the closed form must return what the loop returns and leave the RNG in
    # the same state
    for a, b in itertools.product((1, 2, 3), repeat=2):
        dims = (p**a, p**b)
        ks = [[], [(1, p)], [(p, 0), (0, p)], [(1, 0), (0, 1)]]
        anns = [tuple(qsim.dual_kernel(dims, k)) for k in ks]
        assert len(anns[0]) == len(anns[2]) == 2 and anns[1] and not anns[3]
        for ann in anns + [((1, 1), (p, 0))]:
            s = qsim.CosetSupport(dims, (0, 0), (), ann)
            seed = p * 100 + a * 10 + b + len(ann)
            fast, loop = random.Random(seed), random.Random(seed)
            for _ in range(100):
                assert qsim.fourier_sample(s, fast) == reference.fourier_sample_loop(s, loop)
            assert fast.getstate() == loop.getstate()


def test_fourier_sample_satisfies_linear_constraint():
    # H = <x^2 y^3>: outcomes satisfy 2*c1 + c2 == 0 mod 3
    o = orc.make_oracle(G351, sg.sg1m(2, 0, 1))
    k = qsim.pullback(o, direct_domain((3, 9)))
    rng = random.Random(10)
    for _ in range(500):
        s = qsim.coset_sample(o, k, rng)
        c1, c2 = qsim.fourier_sample(s, rng)
        assert (2 * c1 + c2) % 3 == 0


def test_fourier_sample_deterministic():
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    k = qsim.pullback(o, direct_domain((3, 9)))

    def run():
        rng = random.Random(11)
        out = []
        for _ in range(50):
            s = qsim.coset_sample(o, k, rng)
            out.append(qsim.fourier_sample(s, rng))
        return out

    assert run() == run()


def test_fourier_sample_empirical_matches_distribution():
    # 1e5 draws from a fixed support: every outcome within 3 binomial sigma
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    s = qsim.coset_sample(o, qsim.pullback(o, direct_domain((3, 9))), random.Random(12))
    dist = reference.fourier_distribution(s)
    rng = random.Random(13)
    n = 10**5
    counts: dict = {}
    for _ in range(n):
        c = qsim.fourier_sample(s, rng)
        counts[c] = counts.get(c, 0) + 1
    assert set(counts) <= set(dist.probs)
    for outcome, p in dist.probs.items():
        mean = n * float(p)
        sigma = math.sqrt(n * float(p) * (1 - float(p)))
        assert abs(counts.get(outcome, 0) - mean) <= 3 * sigma


# ---------------------------------------------------------------- dense reference

BRANCH_CASES = [
    # (group, hidden, dims, scale) with embed (u, v) -> (scale*u mod x_mod, v)
    (G351, sg.sg1m(2, 0, 1), (3, 9), 1),    # mixed-or-x split at depth 1
    (G351, sg.sg1x(1), (3, 9), 1),
    (G351, sg.sg1m(2, 0, 0), (9, 9), 1),    # depth 2
    (G351, sg.sg3(2, 0), (3, 3), 1),        # noncyclic depth 1
    (G351, sg.sg3(2, 1), (3, 3), 3),        # noncyclic depth 2, scaled embed
    (G351, sg.sg2(2, 1), (3, 3), 3),
]


@pytest.mark.parametrize("gp,descr,dims,scale", BRANCH_CASES)
def test_dense_matches_structured_mixture(gp, descr, dims, scale):
    o = orc.make_oracle(gp, descr)
    dom = qsim.Domain(dims, ((scale, 0), (0, 1)), name="branch")
    exact = reference.branch_mixture_distribution(o, dom)
    dense = reference.dense_reference_distribution(o, dom)
    assert reference.total_variation(exact, dense) < 1e-9


def test_dense_reference_guard():
    o = orc.make_oracle(G351, sg.sg1x(1))
    big = qsim.Domain((243, 81), ((1, 0), (0, 0)), name="too-big")
    with pytest.raises(TooLarge):
        reference.dense_reference_distribution(o, big)


# ---------------------------------------------------------------- abelian_hsp

def test_abelian_hsp_y_axis():
    # H = <x^9, y^3>: y-axis intersection <3> inside Z_9
    o = orc.make_oracle(G351, sg.sg2(2, 1))
    gens = qsim.abelian_hsp(y_axis_domain(G351), o, random.Random(16))
    assert register_span((9,), gens) == {(0,), (3,), (6,)}


def test_abelian_hsp_x_axis():
    # H = <x^(2*3) y, x^9> meets <x> in <x^9>
    o = orc.make_oracle(G351, sg.sg3(2, 1))
    gens = qsim.abelian_hsp(x_axis_domain(G351), o, random.Random(17))
    assert register_span((243,), gens) == {(9 * k,) for k in range(27)}


def test_abelian_hsp_whole_group():
    o = orc.make_oracle(G351, sg.sg2(0, 0))
    gens = qsim.abelian_hsp(y_axis_domain(G351), o, random.Random(18))
    assert len(register_span((9,), gens)) == 9


def test_abelian_hsp_catalog_sweep_embedded_plane():
    # registers (u, v) -> (9u, v): recovered span must equal the true preimage
    gp = G351
    dims = (27, 9)
    rng = random.Random(19)
    for descr in sg.enumerate_catalog(gp):
        o = orc.make_oracle(gp, descr)
        hidden = sg.elements(gp, descr)
        plane = qsim.Domain(dims, ((9, 0), (0, 1)), name="plane")
        gens = qsim.abelian_hsp(plane, o, rng)
        want = {
            (u, v)
            for u in range(27)
            for v in range(9)
            if ((9 * u) % 243, v) in hidden
        }
        assert register_span(dims, gens) == want, descr


def test_probe_charges_and_can_raise_on_every_call():
    # the abelianization section (u, v) -> x^u y^v; the commutator is <x^27>
    dom = qsim.Domain((27, 9), ((1, 0), (0, 1)), name="abelianization")
    o = orc.make_oracle(G351, sg.sg1x(3))
    gens = qsim.abelian_hsp(dom, o, random.Random(24))
    assert register_span(dom.dims, gens) == {(0, 0)}
    sim_evals, queries = o.meter.sim_evals, o.meter.queries
    qsim._probe_embedding(o, dom)
    assert (o.meter.sim_evals - sim_evals, o.meter.queries) == (6, queries)
    # (x y)^2 = x^29 y^2 differs from x^2 y^2 once H misses the commutator
    fresh = orc.make_oracle(G351, sg.sg1x(5))
    with pytest.raises(PreconditionViolated):
        qsim.abelian_hsp(dom, fresh, random.Random(24))
    assert (fresh.meter.sim_evals, fresh.meter.queries) == (6, 0)


def test_abelian_hsp_deterministic():
    o1 = orc.make_oracle(G351, sg.sg3(1, 0))
    o2 = orc.make_oracle(G351, sg.sg3(1, 0))
    g1 = qsim.abelian_hsp(x_axis_domain(G351), o1, random.Random(20))
    g2 = qsim.abelian_hsp(x_axis_domain(G351), o2, random.Random(20))
    assert g1 == g2


def test_abelian_hsp_verifies_generators_with_queries(monkeypatch):
    seen = record_queries(monkeypatch)
    o = orc.make_oracle(G351, sg.sg2(2, 1))
    dom = y_axis_domain(G351)
    gens = qsim.abelian_hsp(dom, o, random.Random(21))
    # one reference query on the identity, then one per returned generator
    assert seen[-1 - len(gens):] == [gr.IDENTITY, *(dom.embed(G351, g) for g in gens)]
    assert o.meter.queries >= len(gens) + 1


def test_character_samples_annihilate_hidden_subgroup():
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    kernel = qsim.pullback(o, direct_domain((3, 9)))
    rng = random.Random(22)
    for _ in range(200):
        s = qsim.coset_sample(o, kernel, rng)
        c = qsim.fourier_sample(s, rng)
        for k in s.gens:
            pairing = sum(ci * ki * (9 // n) for ci, ki, n in zip(c, k, (3, 9)))
            assert pairing % 9 == 0


def test_abelian_hsp_exhausts_retries_when_samples_carry_no_constraint(monkeypatch):
    # zero characters leave the whole register as kernel; its generator (1,)
    # is outside the trivial hidden subgroup, so every attempt fails to verify
    calls = []

    def zero_character(s, rng):
        calls.append(s.dims)
        return (0,) * len(s.dims)

    monkeypatch.setattr(qsim, "fourier_sample", zero_character)
    o = orc.make_oracle(G351, sg.sg1x(5))
    with pytest.raises(RetriesExhausted):
        qsim.abelian_hsp(x_axis_domain(G351), o, random.Random(22))
    assert o.meter.iterations == qsim.RETRIES
    assert o.meter.retries == qsim.RETRIES - 1
    assert len(calls) == qsim.RETRIES * ((G351.x_mod - 1).bit_length() + qsim.KAPPA)
