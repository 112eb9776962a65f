import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import pytest

from hsp_sdp import group as gr
from hsp_sdp import oracle as orc
from hsp_sdp import qsim
from hsp_sdp import subgroup as sg
from hsp_sdp.errors import DimensionMismatch, PreconditionViolated, TooLarge

from helpers import register_span

G351 = gr.make_group(3, 5, 1)
G353 = gr.make_group(3, 5, 3)


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


# ---------------------------------------------------------------- coset_sample

def test_coset_support_structure_mixed_cyclic():
    # H = <x y^3>, registers Z_3 x Z_9: support is a coset of <(1, 3)>
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    dom = direct_domain((3, 9))
    rng = random.Random(0)
    s = qsim.coset_sample(o, dom, rng)
    assert s.dims == (3, 9)
    a0, b0 = s.base
    want = {((a0 + l) % 3, (b0 + 3 * l) % 9) for l in range(3)}
    assert s.points == want
    assert len(s.points) == 3


def test_coset_support_singleton_and_full():
    dom = direct_domain((3, 9))
    rng = random.Random(1)
    o_small = orc.make_oracle(G351, sg.sg1x(1))
    s = qsim.coset_sample(o_small, dom, rng)
    assert s.points == {s.base}
    o_whole = orc.make_oracle(G351, sg.sg2(0, 0))
    s2 = qsim.coset_sample(o_whole, dom, rng)
    assert len(s2.points) == 27


def test_coset_sample_accounting_and_cache():
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    dom = direct_domain((3, 9))
    rng = random.Random(2)
    qsim.coset_sample(o, dom, rng)
    assert o.query_count == 1
    assert o.simulation_cost == 27  # one full scan of the embedded domain
    qsim.coset_sample(o, dom, rng)
    assert o.query_count == 2
    assert o.simulation_cost == 27  # cached view: no rescan
    # a fresh domain object means a fresh scan
    qsim.coset_sample(o, direct_domain((3, 9)), rng)
    assert o.simulation_cost == 54


def test_coset_sample_guard():
    o = orc.make_oracle(G351, sg.sg1x(1))
    big = qsim.Domain((2048, 1024), ((0, 0), (0, 0)), name="huge")
    with pytest.raises(TooLarge):
        qsim.coset_sample(o, big, random.Random(3))


def test_coset_points_share_label():
    o = orc.make_oracle(G353, sg.sg1m(1, 0, 0))
    dom = direct_domain((9, 9))
    s = qsim.coset_sample(o, dom, random.Random(4))
    labels = {o.query((pt[0] % 243, pt[1])) for pt in s.points}
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


@pytest.mark.parametrize("gp", [G351, G353])
def test_k_gens_follow_first_point_outside_span(gp):
    domains = [
        qsim.Domain((27, 9), ((9, 0), (0, 1)), name="plane"),
        x_axis_domain(gp),
        y_axis_domain(gp),
    ]
    for descr in sg.enumerate_catalog(gp):
        o = orc.make_oracle(gp, descr)
        for dom in domains:
            s = qsim.coset_sample(o, dom, random.Random(0))
            ref = o.query(dom.embed(gp, qsim._zero(dom.dims)))
            k_points = [
                pt for pt in itertools.product(*map(range, dom.dims))
                if o.query(dom.embed(gp, pt)) == ref
            ]
            assert s.gens == first_outside_span_gens(dom.dims, k_points), descr
            assert s.ann == tuple(qsim.dual_kernel(dom.dims, s.gens)), descr


@dataclass(frozen=True, eq=False)
class CurvedDomain(qsim.Domain):
    """Test-only non-linear domain u -> (f(u), 0); f must work elementwise on
    int64 arrays as well as on ints. No linear domain reaches the coset guard."""

    f: Callable = None

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
            qsim.coset_sample(o, dom, random.Random(30))


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
            qsim.coset_sample(o, dom, random.Random(31))


def test_scan_rejects_level_set_that_is_not_a_coset():
    # (u, v) -> 3v(1 + u^2): K = {(u, 0)}, but {(0, 1), (1, 2), (2, 2)} is a
    # level set of the right size that is no coset of K
    o = orc.make_oracle(G351, sg.sg1x(2))
    dom = CurvedDomain(
        (3, 3), (), name="twisted", f=lambda pt: 3 * pt[1] * (1 + pt[0] * pt[0])
    )
    with pytest.raises(PreconditionViolated, match="not a coset of K"):
        qsim.coset_sample(o, dom, random.Random(32))


# ---------------------------------------------------------------- fourier_distribution

def test_fourier_distribution_mixed_cyclic():
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    s = qsim.coset_sample(o, direct_domain((3, 9)), random.Random(5))
    dist = qsim.fourier_distribution(s, (3, 9))
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
    s = qsim.coset_sample(o, direct_domain((3, 9)), random.Random(6))
    dist = qsim.fourier_distribution(s, (3, 9))
    assert len(dist.probs) == 27
    assert set(dist.probs.values()) == {Fraction(1, 27)}


def test_fourier_distribution_full_support_is_point_mass():
    o = orc.make_oracle(G351, sg.sg2(0, 0))
    s = qsim.coset_sample(o, direct_domain((3, 9)), random.Random(7))
    dist = qsim.fourier_distribution(s, (3, 9))
    assert dist.probs == {(0, 0): Fraction(1)}


def test_fourier_distribution_dimension_mismatch():
    o = orc.make_oracle(G351, sg.sg1x(1))
    s = qsim.coset_sample(o, direct_domain((3, 9)), random.Random(8))
    with pytest.raises(DimensionMismatch):
        qsim.fourier_distribution(s, (9, 9))


def test_fourier_distribution_probability_independent_of_base():
    # two samples of the same hidden subgroup give the same distribution
    o = orc.make_oracle(G351, sg.sg1m(2, 0, 1))
    dom = direct_domain((3, 9))
    rng = random.Random(9)
    d1 = qsim.fourier_distribution(qsim.coset_sample(o, dom, rng), (3, 9))
    d2 = qsim.fourier_distribution(qsim.coset_sample(o, dom, rng), (3, 9))
    assert d1.probs == d2.probs


# ---------------------------------------------------------------- fourier_sample

def test_fourier_sample_satisfies_linear_constraint():
    # H = <x^2 y^3>: outcomes satisfy 2*c1 + c2 == 0 mod 3
    o = orc.make_oracle(G351, sg.sg1m(2, 0, 1))
    dom = direct_domain((3, 9))
    rng = random.Random(10)
    for _ in range(500):
        s = qsim.coset_sample(o, dom, rng)
        c1, c2 = qsim.fourier_sample(s, (3, 9), rng)
        assert (2 * c1 + c2) % 3 == 0


def test_fourier_sample_deterministic():
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    dom = direct_domain((3, 9))

    def run():
        rng = random.Random(11)
        out = []
        for _ in range(50):
            s = qsim.coset_sample(o, dom, rng)
            out.append(qsim.fourier_sample(s, (3, 9), rng))
        return out

    assert run() == run()


def test_fourier_sample_empirical_matches_distribution():
    # 1e5 draws from a fixed support: every outcome within 3 binomial sigma
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    s = qsim.coset_sample(o, direct_domain((3, 9)), random.Random(12))
    dist = qsim.fourier_distribution(s, (3, 9))
    rng = random.Random(13)
    n = 10**5
    counts: dict = {}
    for _ in range(n):
        c = qsim.fourier_sample(s, (3, 9), rng)
        counts[c] = counts.get(c, 0) + 1
    assert set(counts) <= set(dist.probs)
    for outcome, p in dist.probs.items():
        mean = n * float(p)
        sigma = math.sqrt(n * float(p) * (1 - float(p)))
        assert abs(counts.get(outcome, 0) - mean) <= 3 * sigma


def test_outcome_distribution_sample_is_exact_and_seedable():
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    s = qsim.coset_sample(o, direct_domain((3, 9)), random.Random(14))
    dist = qsim.fourier_distribution(s, (3, 9))
    rng = random.Random(15)
    draws = [dist.sample(rng) for _ in range(2000)]
    assert set(draws) <= set(dist.probs)
    rng2 = random.Random(15)
    assert draws[:50] == [dist.sample(rng2) for _ in range(50)]


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
    exact = qsim.branch_mixture_distribution(o, dom)
    dense = qsim.dense_reference_distribution(o, dom)
    assert qsim.total_variation(exact, dense) < 1e-9


def test_dense_reference_guard():
    o = orc.make_oracle(G351, sg.sg1x(1))
    big = qsim.Domain((243, 81), ((1, 0), (0, 0)), name="too-big")
    with pytest.raises(TooLarge):
        qsim.dense_reference_distribution(o, big)


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


def test_abelian_hsp_deterministic():
    o1 = orc.make_oracle(G351, sg.sg3(1, 0))
    o2 = orc.make_oracle(G351, sg.sg3(1, 0))
    g1 = qsim.abelian_hsp(x_axis_domain(G351), o1, random.Random(20))
    g2 = qsim.abelian_hsp(x_axis_domain(G351), o2, random.Random(20))
    assert g1 == g2


def test_abelian_hsp_verifies_generators_with_queries():
    o = orc.make_oracle(G351, sg.sg2(2, 1))
    before = o.query_count
    gens = qsim.abelian_hsp(y_axis_domain(G351), o, random.Random(21))
    # sampling queries plus one reference query plus one per returned generator
    assert o.query_count >= before + len(gens) + 1


def test_character_samples_annihilate_hidden_subgroup():
    o = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    dom = direct_domain((3, 9))
    rng = random.Random(22)
    for _ in range(200):
        s = qsim.coset_sample(o, dom, rng)
        c = qsim.fourier_sample(s, (3, 9), rng)
        for k in s.gens:
            pairing = sum(ci * ki * (9 // n) for ci, ki, n in zip(c, k, (3, 9)))
            assert pairing % 9 == 0
