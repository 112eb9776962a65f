import json
import random

import pytest

from hsp_sdp import group as gr
from hsp_sdp import subgroup as sg
from hsp_sdp.errors import AbelianGroup, InvalidDescriptor, TooLarge

from helpers import intersect_with_axis

G351 = gr.make_group(3, 5, 1)
G353 = gr.make_group(3, 5, 3)


def mulclose(gp, gens):
    """Independent subgroup closure: BFS over generator products."""
    seen = {gr.IDENTITY}
    frontier = [gr.IDENTITY]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = gr.mul(gp, s, g)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return frozenset(seen)


# ---------------------------------------------------------------- descriptors

def test_generators_frozen_values():
    assert sg.generators(G351, sg.sg1x(1)) == [(3, 0)]
    assert sg.generators(G351, sg.sg3(2, 0)) == [(2, 1), (3, 0)]
    assert sg.generators(G351, sg.sg1m(1, 0, 1)) == [(1, 3)]
    assert sg.generators(G351, sg.sg2(1, 1)) == [(3, 0), (0, 3)]


def test_descriptor_validation():
    with pytest.raises(InvalidDescriptor):
        sg.generators(G351, sg.sg1m(3, 0, 1))  # t=3 not a unit mod 3
    with pytest.raises(InvalidDescriptor):
        sg.generators(G351, sg.sg1x(6))  # i > r
    with pytest.raises(InvalidDescriptor):
        sg.generators(G351, sg.sg2(5, 0))  # i must be < r
    with pytest.raises(InvalidDescriptor):
        sg.generators(G351, sg.sg3(3, 0))  # t not a unit mod p
    with pytest.raises(InvalidDescriptor):
        sg.generators(G351, sg.sg1m(2, 5, 0))  # l=0 forces t=1
    with pytest.raises(InvalidDescriptor):
        sg.generators(G351, sg.sg1m(4, 4, 0))  # l=1 there, t must be < 3


def test_descriptor_json_round_trip():
    for d in sg.enumerate_catalog(G351):
        blob = json.dumps(sg.descriptor_to_json(d))
        assert sg.descriptor_from_json(json.loads(blob)) == d
    assert sg.descriptor_to_json(sg.sg1x(2)) == {"form": "sg1x", "i": 2}
    assert sg.descriptor_to_json(sg.sg3(2, 1)) == {"form": "sg3", "t": 2, "i": 1}


# ---------------------------------------------------------------- elements

def test_elements_small_cyclic():
    assert sg.elements(G351, sg.sg1x(4)) == frozenset({(0, 0), (81, 0), (162, 0)})
    assert sg.elements(G351, sg.sg1x(5)) == frozenset({(0, 0)})


def test_elements_matches_closure_for_catalog():
    for gp in (G351, G353):
        for d in sg.enumerate_catalog(gp):
            got = sg.elements(gp, d)
            assert got == mulclose(gp, sg.generators(gp, d))


def test_elements_order_formula():
    # |H| = |y-projection| * p^(r-m)
    for d in sg.enumerate_catalog(G351):
        elems = sg.elements(G351, d)
        m = intersect_with_axis(G351, elems, "x")
        b_proj = {b for _, b in elems}
        assert len(elems) == len(b_proj) * 3 ** (5 - m)


def test_elements_too_large_guard():
    gp = gr.make_group(3, 14, 1)
    with pytest.raises(TooLarge):
        sg.elements(gp, sg.sg2(0, 0))  # whole group, 3^16 > 2^24


# ---------------------------------------------------------------- catalog

def test_catalog_count_and_determinism():
    cat1 = sg.enumerate_catalog(G351)
    assert len(cat1) == 62
    assert cat1 == sg.enumerate_catalog(G351)
    assert len(sg.enumerate_catalog(G353)) == 62


def test_catalog_has_no_duplicate_element_sets():
    seen = {}
    for d in sg.enumerate_catalog(G351):
        elems = sg.elements(G351, d)
        assert elems not in seen, (d, seen[elems])
        seen[elems] = d


def test_catalog_dedup_prefers_low_form_rank():
    # <x^(t*p^(r-1)) y> is catalogued as cyclic (sg1m), not as sg3(t, r-1)
    cat = sg.enumerate_catalog(G351)
    assert not any(d.form == "sg3" and d.i == 4 for d in cat)
    got = sg.canonicalize(G351, [(2 * 81, 1), (0, 0)])
    assert got == sg.sg1m(2, 4, 0)


def test_canonicalize_round_trip_catalog():
    for gp in (G351, G353):
        for d in sg.enumerate_catalog(gp):
            assert sg.canonicalize(gp, sg.generators(gp, d)) == d


def test_canonicalize_random_generating_sets():
    rng = random.Random(7)
    for gp in (G351, G353):
        for _ in range(30):
            gens = [
                (rng.randrange(243), rng.randrange(9))
                for _ in range(rng.randrange(1, 4))
            ]
            d = sg.canonicalize(gp, gens)
            assert sg.elements(gp, d) == mulclose(gp, gens)


@pytest.mark.parametrize("p,r,tau", [(3, 3, 1), (3, 3, 3), (3, 3, 0), (3, 4, 1)])
def test_catalog_equals_brute_force_lattice_small(p, r, tau):
    gp = gr.make_group(p, r, tau, allow_unclassified=True)
    lattice = sg.brute_force_lattice(gp)
    catalog_sets = {sg.elements(gp, d) for d in sg.enumerate_catalog(gp)}
    assert catalog_sets == set(lattice)


def test_brute_force_lattice_guard():
    gp = gr.make_group(3, 13, 1)
    with pytest.raises(TooLarge):
        sg.brute_force_lattice(gp)


# ---------------------------------------------------------------- normality

def test_is_normal_frozen_values():
    assert sg.is_normal(G351, sg.sg1x(4))
    assert sg.is_normal(G351, sg.sg1x(1))
    # <x^t y> is normal (contains the commutator <x^27>)
    assert sg.is_normal(G351, sg.sg1m(1, 0, 0))
    # <y> is not normal in class1
    assert not sg.is_normal(G351, sg.sg1m(1, 5, 0))


def test_is_normal_matches_exhaustive_conjugation():
    import itertools

    whole = list(itertools.product(range(243), range(9)))
    rng = random.Random(11)
    for gp in (G351, G353):
        cat = sg.enumerate_catalog(gp)
        for d in rng.sample(cat, 12):
            elems = sg.elements(gp, d)
            exhaustive = all(
                gr.conjugate(gp, h, g) in elems for g in whole for h in elems
            )
            assert sg.is_normal(gp, d) == exhaustive


# ---------------------------------------------------------------- commutator

def test_commutator_subgroup_descriptors():
    assert sg.commutator_subgroup(G351) == sg.sg1x(3)  # <x^27>
    assert sg.commutator_subgroup(G353) == sg.sg1x(4)  # <x^81>
    with pytest.raises(AbelianGroup):
        sg.commutator_subgroup(gr.make_group(3, 5, 0))


def test_brute_force_commutator_matches():
    for gp in (G351, G353):
        want = sg.elements(gp, sg.commutator_subgroup(gp))
        assert sg.brute_force_commutator(gp) == want


# ---------------------------------------------------------------- axis intersections

def test_intersect_with_axis_frozen_values():
    whole = sg.elements(G351, sg.sg2(0, 0))
    assert intersect_with_axis(G351, whole, "x") == 0
    assert intersect_with_axis(G351, whole, "y") == 0
    trivial = frozenset({(0, 0)})
    assert intersect_with_axis(G351, trivial, "x") == 5
    assert intersect_with_axis(G351, trivial, "y") == 2
    mixed = sg.elements(G351, sg.sg1m(1, 0, 1))  # <x y^3>
    assert intersect_with_axis(G351, mixed, "x") == 1
    assert intersect_with_axis(G351, mixed, "y") == 2


def test_intersect_with_axis_rejects_bad_axis():
    with pytest.raises(ValueError):
        intersect_with_axis(G351, frozenset({(0, 0)}), "z")


# ---------------------------------------------------------------- normal form

def test_subgroup_table_is_complete_invariant():
    # same subgroup from different generating sets -> identical table
    t1 = sg.SubgroupTable.from_generators(G351, [(2, 1), (3, 0)])
    t2 = sg.SubgroupTable.from_generators(G351, [(3, 0), (2, 1), (5, 1)])
    assert (5, 1) in sg.elements(G351, sg.canonicalize(G351, [(2, 1), (3, 0)]))
    assert t1 == t2
    t3 = sg.SubgroupTable.from_generators(G351, [(2, 1)])
    assert t1 != t3


def test_subgroup_table_membership():
    t = sg.SubgroupTable.from_generators(G351, [(2, 1), (3, 0)])
    elems = t.elements()
    import itertools

    for g in itertools.product(range(243), range(9)):
        assert t.contains(g) == (g in elems)
