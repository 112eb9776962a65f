import itertools
import random

import pytest

from hsp_sdp import group as gr
from hsp_sdp.errors import (
    InvalidPrime,
    NotInvertible,
    Overflow,
    PreconditionViolated,
    RTooSmall,
)

G351 = gr.make_group(3, 5, 1)
G353 = gr.make_group(3, 5, 3)


# ---------------------------------------------------------------- make_group

def test_make_group_class1():
    gp = G351
    assert gp.p == 3 and gp.r == 5 and gp.tau == 1
    assert gp.alpha == 28
    assert gp.class_tag == "class1"
    assert gp.x_mod == 243 and gp.y_mod == 9
    assert gp.order == 3**7


def test_make_group_class2():
    gp = G353
    assert gp.alpha == 82
    assert gp.class_tag == "class2"


def test_make_group_abelian():
    gp = gr.make_group(3, 5, 0)
    assert gp.alpha == 1
    assert gp.class_tag == "abelian"


def test_make_group_rejects_bad_params():
    with pytest.raises(InvalidPrime):
        gr.make_group(2, 5, 1)
    with pytest.raises(InvalidPrime):
        gr.make_group(9, 5, 1)
    with pytest.raises(RTooSmall):
        gr.make_group(3, 2, 1)
    with pytest.raises(Overflow):
        gr.make_group(1000003, 9, 1)


def test_make_group_refuses_an_oversized_order_before_building_it(monkeypatch):
    # p^r would take seconds to build at r in the millions
    def refused(*args):
        raise AssertionError("make_group built p^r past the order guard")

    monkeypatch.setattr(gr, "make_semidirect", refused)
    with pytest.raises(Overflow, match="below 2\\*\\*63"):
        gr.make_group(3, 3_000_000, 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 509])
def test_make_group_builds_up_to_the_order_guard(p):
    # the early check refuses nothing that the exact guard would accept
    r = max(r for r in range(64) if p ** (r + 2) < gr.ORDER_GUARD)
    assert gr.make_group(p, r, 1).order == p ** (r + 2)
    with pytest.raises(Overflow):
        gr.make_group(p, r + 1, 1)


def test_make_group_accepts_r_3_and_4():
    # the group holds below the paper's r > 4; solve and verify-catalog check it
    gp = gr.make_group(3, 4, 1)
    assert gp.alpha == pow(3, 2, 81) * 1 + 1 == 10
    assert gr.make_group(3, 3, 1).alpha == 3 * 1 + 1 == 4


def test_tau_reduced_modulo_p_squared():
    assert gr.make_group(3, 5, 10).alpha == G351.alpha
    assert gr.make_group(3, 5, 10).tau == 1


def test_alpha_multiplicative_order():
    # class1: order p^2; class2: order p
    assert pow(G351.alpha, 9, 243) == 1
    assert all(pow(G351.alpha, k, 243) != 1 for k in (1, 3))
    assert pow(G353.alpha, 3, 243) == 1
    assert pow(G353.alpha, 1, 243) != 1


# ---------------------------------------------------------------- arithmetic

def test_mul_frozen_values():
    assert gr.mul(G351, (1, 1), (1, 0)) == (29, 1)
    assert gr.mul(G353, (0, 1), (1, 0)) == (82, 1)


def test_identity_and_inverse_frozen_values():
    assert gr.mul(G351, (0, 0), (17, 5)) == (17, 5)
    assert gr.inv(G351, (1, 0)) == (242, 0)
    assert gr.inv(G351, (0, 1)) == (0, 8)


def test_power_frozen_values():
    assert gr.power(G351, (1, 0), 5) == (5, 0)
    assert gr.power(G351, (0, 1), 9) == (0, 0)


def test_defining_relation():
    # y x y^-1 = x^alpha, stated as y*x == x^alpha * y
    for gp in (G351, G353):
        x, y = (1, 0), (0, 1)
        assert gr.mul(gp, y, x) == gr.mul(gp, gr.power(gp, x, gp.alpha), y)


def test_associativity_random_triples():
    rng = random.Random(0)
    for gp in (G351, G353):
        for _ in range(10**4):
            g1 = (rng.randrange(243), rng.randrange(9))
            g2 = (rng.randrange(243), rng.randrange(9))
            g3 = (rng.randrange(243), rng.randrange(9))
            left = gr.mul(gp, gr.mul(gp, g1, g2), g3)
            right = gr.mul(gp, g1, gr.mul(gp, g2, g3))
            assert left == right


def test_group_axioms_exhaustive_small():
    # every element has a two-sided inverse; order is exactly p^(r+2)
    gp = G351
    elems = list(itertools.product(range(243), range(9)))
    assert len(elems) == gp.order
    rng = random.Random(1)
    for g in rng.sample(elems, 500):
        gi = gr.inv(gp, g)
        assert gr.mul(gp, g, gi) == gr.IDENTITY
        assert gr.mul(gp, gi, g) == gr.IDENTITY


def test_power_matches_iterated_mul():
    rng = random.Random(2)
    for gp in (G351, G353):
        for _ in range(200):
            g = (rng.randrange(243), rng.randrange(9))
            k = rng.randrange(0, 50)
            acc = gr.IDENTITY
            for _ in range(k):
                acc = gr.mul(gp, acc, g)
            assert gr.power(gp, g, k) == acc
            assert gr.power(gp, g, -k) == gr.inv(gp, acc)


@pytest.mark.parametrize(
    "gp", [G351, G353, gr.make_semidirect(1215, 3, 271)], ids=["351", "353", "1215"]
)
def test_power_matches_iterated_mul_up_to_the_group_order(gp):
    rng = random.Random(6)
    for _ in range(4):
        g = (rng.randrange(gp.x_mod), rng.randrange(gp.y_mod))
        acc = [gr.IDENTITY]
        for _ in range(gp.order):
            acc.append(gr.mul(gp, acc[-1], g))
        for k in [gp.order, gp.order - 1] + rng.sample(range(gp.order), 60):
            assert gr.power(gp, g, k) == acc[k]
            assert gr.power(gp, g, -k) == gr.inv(gp, acc[k])


@pytest.mark.parametrize(
    "gp",
    [gr.make_group(401, 5, 1), gr.make_group(101, 5, 1), gr.make_semidirect(1215, 3, 271)],
    ids=["401-5-1", "101-5-1", "1215"],
)
def test_group_law_at_large_p_matches_the_literal_formula(gp):
    # mul and inv take alpha^b from pow(); the per-call list must agree
    apow = gr.alpha_powers(gp)
    assert len(apow) == gp.y_mod
    assert all(t == pow(gp.alpha, b, gp.x_mod) for b, t in enumerate(apow))
    rng = random.Random(7)
    for _ in range(2000):
        (a1, b1), (a2, b2) = g1, g2 = [
            (rng.randrange(gp.x_mod), rng.randrange(gp.y_mod)) for _ in range(2)
        ]
        assert gr.mul(gp, g1, g2) == ((a1 + a2 * apow[b1]) % gp.x_mod, (b1 + b2) % gp.y_mod)
        assert gr.inv(gp, g1) == (-a1 * apow[-b1 % gp.y_mod] % gp.x_mod, -b1 % gp.y_mod)
        assert gr.mul(gp, g1, gr.inv(gp, g1)) == gr.IDENTITY


def test_element_order():
    assert gr.element_order(G351, (1, 0)) == 243
    assert gr.element_order(G351, (0, 0)) == 1
    assert gr.element_order(G351, (0, 1)) == 9
    rng = random.Random(3)
    for gp in (G351, G353):
        for _ in range(50):
            g = (rng.randrange(243), rng.randrange(9))
            k = gr.element_order(gp, g)
            assert gr.power(gp, g, k) == gr.IDENTITY
            # minimality: order is a prime power here, so check k/p
            if k > 1:
                assert gr.power(gp, g, k // 3) != gr.IDENTITY


# ---------------------------------------------------------------- abelianization

def test_abelianization_map_values():
    # class1 quotient: Z_27 x Z_9
    assert gr.abelianization_map(G351, (29, 1)) == (2, 1)
    assert gr.abelianization_map(G351, (27, 4)) == (0, 4)
    # class2 quotient: Z_81 x Z_9
    assert gr.abelianization_map(G353, (82, 1)) == (1, 1)


def test_abelianization_is_homomorphism():
    rng = random.Random(4)
    for gp, q in ((G351, 27), (G353, 81)):
        for _ in range(2000):
            g1 = (rng.randrange(243), rng.randrange(9))
            g2 = (rng.randrange(243), rng.randrange(9))
            pi_prod = gr.abelianization_map(gp, gr.mul(gp, g1, g2))
            p1 = gr.abelianization_map(gp, g1)
            p2 = gr.abelianization_map(gp, g2)
            assert pi_prod == ((p1[0] + p2[0]) % q, (p1[1] + p2[1]) % 9)


def test_abelianization_is_identity_on_abelian_group():
    gp = gr.make_group(3, 5, 0)  # [G, G] is trivial: G/[G,G] = G
    assert gr.commutator_depth(gp) == 0
    for g in ((1, 0), (0, 1), (242, 8), (29, 4)):
        assert gr.abelianization_map(gp, g) == g


# ---------------------------------------------------------------- generic semidirect

def test_semidirect_group_composite_modulus():
    # x-modulus 1215 = 3^5 * 5, twist acting trivially on the 5-part
    sg = gr.make_semidirect(1215, 3, 271)
    assert sg.x_mod == 1215 and sg.y_mod == 9 and sg.alpha == 271
    g = (7, 5)
    k = gr.element_order(sg, g)
    assert gr.power(sg, g, k) == gr.IDENTITY
    rng = random.Random(5)
    for _ in range(2000):
        g1 = (rng.randrange(1215), rng.randrange(9))
        g2 = (rng.randrange(1215), rng.randrange(9))
        g3 = (rng.randrange(1215), rng.randrange(9))
        assert gr.mul(sg, gr.mul(sg, g1, g2), g3) == gr.mul(sg, g1, gr.mul(sg, g2, g3))
        assert gr.mul(sg, g1, gr.inv(sg, g1)) == gr.IDENTITY


@pytest.mark.parametrize(
    "x_mod,p,alpha,error,message",
    [
        (0, 3, 1, PreconditionViolated, "need x_mod >= 1 and p >= 2"),
        (1215, 1, 1, PreconditionViolated, "need x_mod >= 1 and p >= 2"),
        (2**60, 3, 1, Overflow, "below 2\\*\\*63"),
        (1215, 3, 3, NotInvertible, "alpha = 3 is not a unit mod 1215"),
        (1215, 3, 2, PreconditionViolated, "alpha = 2 does not have order dividing p\\^2"),
    ],
)
def test_make_semidirect_raises_typed_errors(x_mod, p, alpha, error, message):
    with pytest.raises(error, match=message):
        gr.make_semidirect(x_mod, p, alpha)
    assert gr.make_semidirect(1215, 3, 271 - 1215).alpha == 271  # alpha is reduced


def test_make_group_builds_its_base_through_make_semidirect(monkeypatch):
    seen = []
    real = gr.make_semidirect
    monkeypatch.setattr(gr, "make_semidirect", lambda *args: seen.append(args) or real(*args))
    gp = gr.make_group(3, 5, 10)
    assert seen == [(243, 3, 28)]
    assert (gp.x_mod, gp.y_mod, gp.alpha, gp.tau) == (243, 9, 28, 1)
