import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from hsp_sdp import group as gr
from hsp_sdp import numtheory as nt
from hsp_sdp import subgroup as sg
from hsp_sdp.errors import InvalidDescriptor, TooLarge

from helpers import intersect_with_axis

G351 = gr.make_group(3, 5, 1)
G353 = gr.make_group(3, 5, 3)

# groups on which the closed-form canonicalize is pinned to a table index
INDEX_GROUPS = [
    gr.make_group(p, r, tau)
    for p, r, tau in [
        (3, 5, 0), (3, 5, 1), (3, 5, 3), (5, 6, 0), (5, 6, 1), (5, 6, 5),
        (7, 5, 1), (7, 5, 7), (3, 12, 1), (11, 5, 1),
        (3, 3, 1), (3, 3, 3), (3, 4, 1), (5, 3, 1), (13, 3, 1),
    ]
]


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


@pytest.mark.parametrize(
    "p,r,tau",
    [(3, 3, 1), (3, 5, 0), (3, 5, 1), (3, 5, 3), (5, 6, 5), (7, 5, 7), (3, 36, 1), (101, 5, 1)],
)
def test_descriptor_head_equals_the_head_of_the_generators(p, r, tau):
    gp = gr.make_group(p, r, tau)
    for d in sg.enumerate_catalog(gp):
        assert sg.descriptor_head(gp, d) == sg._head(gp, sg.generators(gp, d)), d


def test_descriptor_head_rejects_out_of_range_descriptors():
    for d in (sg.sg1x(6), sg.sg1m(3, 0, 1), sg.sg1m(2, 5, 0), sg.sg2(5, 0), sg.sg3(3, 0)):
        with pytest.raises(InvalidDescriptor):
            sg.descriptor_head(G351, d)


def _in_range_table(gp, form, i, t, j) -> bool:
    """The module docstring's range table, restated as a predicate."""
    p, r = gp.p, gp.r

    def unit(t, modulus):
        if modulus == 1:
            return t == 1
        return t is not None and 1 <= t < modulus and t % p != 0

    if form == "sg1x":
        return 0 <= i <= r and t is None and j is None
    if form == "sg1m":
        return j in (0, 1) and 0 <= i <= r and unit(t, p ** min(r - i, 2 - j))
    if form == "sg2":
        return 0 <= i < r and j in (0, 1) and t is None
    if form == "sg3":
        return 0 <= i < r and j is None and unit(t, p)
    return False


@pytest.mark.parametrize(
    "p, r, tau", [(3, 5, 0), (3, 5, 1), (3, 5, 3), (5, 6, 1), (3, 3, 1), (11, 5, 1)]
)
def test_validate_descriptor_accepts_exactly_the_range_table(p, r, tau):
    gp = gr.make_group(p, r, tau)
    ts = (None, -1, 0, 1, 2, p - 1, p, p + 1, p * p - 1, p * p, True)
    grid = itertools.product(
        ("sg1x", "sg1m", "sg2", "sg3", "sg4"), range(-1, r + 2), ts, (None, -1, 0, 1, 2)
    )
    for form, i, t, j in grid:
        d = sg.Descriptor(form, i, t=t, j=j)
        try:
            sg.validate_descriptor(gp, d)
            accepted = True
        except InvalidDescriptor:
            accepted = False
        assert accepted == _in_range_table(gp, form, i, t, j), d


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


@pytest.mark.parametrize("d", [sg.sg2(0, 0), sg.sg2(0, 1), sg.sg1m(1, 0, 0)])
def test_elements_refuses_before_building_a_table(monkeypatch, d):
    # the guard reads the closed-form order, so a refused call caches no table
    def refused(*args):
        raise AssertionError("elements built a table past its guard")

    monkeypatch.setattr(sg, "table_for", refused)
    monkeypatch.setattr(sg.SubgroupTable, "from_generators", refused)
    gp = gr.make_group(401, 5, 1)
    with pytest.raises(TooLarge, match=f"^subgroup order {sg.subgroup_order(gp, d)} exceeds"):
        sg.elements(gp, d)


# ---------------------------------------------------------------- catalog

def test_catalog_count_and_determinism():
    cat1 = sg.enumerate_catalog(G351)
    assert len(cat1) == 62
    assert cat1 == sg.enumerate_catalog(G351)
    assert len(sg.enumerate_catalog(G353)) == 62


def table_index(gp):
    """The catalog keyed by table, a complete invariant: the test oracle for
    the closed-form canonicalize."""
    catalog = sg.enumerate_catalog(gp)
    index = {sg.table_for(gp, d): d for d in catalog}
    assert len(index) == len(catalog)
    return index


def test_catalog_has_no_duplicate_element_sets():
    seen = {}
    for d in sg.enumerate_catalog(G351):
        elems = sg.elements(G351, d)
        assert elems not in seen, (d, seen[elems])
        seen[elems] = d
    # tables are a complete invariant, so distinct tables are distinct sets
    for gp in INDEX_GROUPS:
        table_index(gp)


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
    for gp in INDEX_GROUPS:
        for table, d in table_index(gp).items():
            assert sg.canonicalize(gp, sg.generators(gp, d)) == d, (gp, table)


def _seeded_generating_sets(gp, rng, count):
    """Generating sets with x values scaled by random powers of p, y values
    scaled by 1, p or p^2, and the identity sometimes mixed in."""
    depth = nt.p_valuation(gp.x_mod, gp.p)[0]
    out = []
    for _ in range(count):
        gens = [
            (rng.randrange(gp.x_mod) * gp.p ** rng.randrange(depth + 1) % gp.x_mod,
             rng.randrange(gp.y_mod) * rng.choice((1, gp.p, gp.p**2)) % gp.y_mod)
            for _ in range(rng.randrange(1, 4))
        ]
        if rng.random() < 0.2:
            gens.insert(rng.randrange(len(gens) + 1), gr.IDENTITY)
        out.append(gens)
    return out


def test_canonicalize_builds_no_table(monkeypatch):
    catalog = sg.enumerate_catalog(G351)
    batch = _seeded_generating_sets(G351, random.Random(17), 200)
    index = table_index(G351)
    expected = [index[sg.SubgroupTable.from_generators(G351, gens)] for gens in batch]

    def no_table(*args):
        raise AssertionError("canonicalize built a table")

    monkeypatch.setattr(sg.SubgroupTable, "from_generators", no_table)
    monkeypatch.setattr(sg, "table_for", no_table)
    for d in catalog:
        assert sg.canonicalize(G351, sg.generators(G351, d)) == d
    for gens, d in zip(batch, expected):
        assert sg.canonicalize(G351, gens) == d, gens


@pytest.mark.parametrize("p", [101, 211])
def test_canonicalize_names_the_same_table_at_large_p(p):
    # no catalog is enumerated, and from_generators keeps table_for's cache small
    gp = gr.make_group(p, 5, 1)
    for gens in _seeded_generating_sets(gp, random.Random(p), 12):
        d = sg.canonicalize(gp, gens)
        got = sg.SubgroupTable.from_generators(gp, sg.generators(gp, d))
        assert got == sg.SubgroupTable.from_generators(gp, gens), gens


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
    rng = random.Random(8)
    for gp in INDEX_GROUPS:
        index = table_index(gp)
        for _ in range(200):
            # x-coordinates scaled by random powers of p reach the deep subgroups
            gens = [
                (rng.randrange(gp.x_mod) * gp.p ** rng.randrange(gp.r + 1) % gp.x_mod,
                 rng.randrange(gp.y_mod))
                for _ in range(rng.randrange(1, 4))
            ]
            table = sg.SubgroupTable.from_generators(gp, gens)
            assert sg.canonicalize(gp, gens) == index[table], (gp, gens)


@pytest.mark.parametrize(
    "p,r,tau",
    [(3, 3, 1), (3, 3, 3), (3, 3, 0), (3, 4, 1), (5, 3, 0), (5, 3, 1), (5, 3, 5), (3, 6, 1)],
)
def test_catalog_equals_brute_force_lattice_small(p, r, tau):
    gp = gr.make_group(p, r, tau)
    lattice = sg.brute_force_lattice(gp)
    catalog_sets = {sg.elements(gp, d) for d in sg.enumerate_catalog(gp)}
    assert catalog_sets == set(lattice)


@pytest.mark.parametrize("p,r,tau", [(3, 5, 0), (3, 5, 1), (3, 5, 3), (5, 5, 1)])
def test_table_bitset_decodes_to_elements(p, r, tau):
    gp = gr.make_group(p, r, tau)
    for d in sg.enumerate_catalog(gp):
        table = sg.table_for(gp, d)
        bits = table.bitset()
        assert bits.bit_count() == table.order
        assert sg.bitset_elements(bits, gp.y_mod) == table.elements(), d


def test_bitset_elements_indexes_a_times_y_mod_plus_b():
    assert sg.bitset_elements(0, 9) == frozenset()
    assert sg.bitset_elements(1, 9) == {gr.IDENTITY}
    assert sg.bitset_elements((1 << 9 * 5 + 2) | (1 << 8), 9) == {(5, 2), (0, 8)}


def test_brute_force_lattice_decodes_the_bitset_core():
    gp = gr.make_group(3, 3, 1)
    bits = sg.brute_force_lattice_bits(gp)
    lattice = sg.brute_force_lattice(gp)
    assert len(set(bits)) == len(bits) == len(lattice)
    assert {sg.bitset_elements(b, gp.y_mod) for b in bits} == set(lattice)
    keys = [(len(s), sorted(s)) for s in lattice]
    assert keys == sorted(keys)


def _generating_set(gp, elems):
    """A few elements whose closure is the subgroup elems."""
    gens, span = [], frozenset({gr.IDENTITY})
    for g in sorted(elems):
        if g not in span:
            gens.append(g)
            span = mulclose(gp, gens)
    assert span == elems
    return gens


@pytest.mark.parametrize("tau", [1, 3])
def test_brute_force_lattice_against_definition(tau):
    # every cyclic subgroup, closure of every member and of every pair
    gp = gr.make_group(3, 3, tau)
    lattice = sg.brute_force_lattice(gp)
    members = set(lattice)
    assert len(members) == len(lattice)
    for g in itertools.product(range(gp.x_mod), range(gp.y_mod)):
        assert mulclose(gp, [g]) in members
    for s in lattice:
        assert all(gr.mul(gp, a, b) in s for a in s for b in s)
    gens = [_generating_set(gp, s) for s in lattice]
    for ga, gb in itertools.combinations(gens, 2):
        # <A u B> = <gens(A) u gens(B)>
        assert mulclose(gp, ga + gb) in members


def test_brute_force_lattice_guard():
    gp = gr.make_group(3, 13, 1)
    with pytest.raises(TooLarge):
        sg.brute_force_lattice(gp)
    with pytest.raises(TooLarge):
        sg.brute_force_lattice_bits(gp)



# sha256 of ",".join(map(hex, brute_force_lattice_bits(gp))): the list and its
# discovery order are pinned. The first five were recorded from the
# element-by-element closure that the coset closure replaced, (5, 5, 5) and
# (3, 7, 3) from the coset closure before |A n B| was looked up by mask
LATTICE_DIGESTS = {
    (3, 5, 0): "dd99d69657d7bfc7fdf71f42752dfd2fd83c93bf122f891859d90f21c52bcd10",
    (3, 5, 1): "dd99d69657d7bfc7fdf71f42752dfd2fd83c93bf122f891859d90f21c52bcd10",
    (3, 5, 3): "dd99d69657d7bfc7fdf71f42752dfd2fd83c93bf122f891859d90f21c52bcd10",
    (3, 6, 1): "94853ef121dbf2e5fada7b1cbb58000e3b5932ee74d309eec8b312a7748c3a76",
    (5, 5, 1): "5fe153e54dbf931646e82deb2c905032d7a9474285095cc542eba11e5e4ae91e",
    (5, 5, 5): "5fe153e54dbf931646e82deb2c905032d7a9474285095cc542eba11e5e4ae91e",
    (3, 7, 3): "3d4541c9272a76b6ef8fa3720c4ff1b8121acbf52e933c1de8a5fbe6ca3a690c",
}


@pytest.mark.parametrize("p,r,tau", sorted(LATTICE_DIGESTS))
def test_brute_force_lattice_bits_keeps_its_discovery_order(p, r, tau):
    bits = sg.brute_force_lattice_bits(gr.make_group(p, r, tau))
    digest = hashlib.sha256(",".join(map(hex, bits)).encode()).hexdigest()
    assert digest == LATTICE_DIGESTS[(p, r, tau)]


@pytest.mark.parametrize("p,r,tau", [(3, 5, 1), (5, 3, 1)])
def test_right_coset_matches_elementwise_products(p, r, tau):
    gp = gr.make_group(p, r, tau)
    rng = random.Random(13)
    for bits in sg.brute_force_lattice_bits(gp):
        members = sg.bitset_elements(bits, gp.y_mod)
        columns = sg._columns(gp, bits)
        for _ in range(3):
            k = (rng.randrange(gp.x_mod), rng.randrange(gp.y_mod))
            coset = sg._right_coset(gp, columns, k)
            assert sg.bitset_elements(coset, gp.y_mod) == {gr.mul(gp, h, k) for h in members}


@pytest.mark.parametrize("p,r,tau", [(3, 5, 1), (3, 5, 3), (5, 3, 1)])
def test_cyclic_subgroups_lists_each_cyclic_closure_once(p, r, tau):
    gp = gr.make_group(p, r, tau)
    found, orders, gen_idx = sg._cyclic_subgroups(gp)
    listed = [sg.bitset_elements(bits, gp.y_mod) for bits in found]
    assert len(set(listed)) == len(listed)
    closures = {mulclose(gp, [g]) for g in itertools.product(range(gp.x_mod), range(gp.y_mod))}
    assert set(listed) == closures
    for bits, order, idx in zip(found, orders, gen_idx):
        assert order == bits.bit_count()
        assert bits >> idx & 1


@pytest.mark.parametrize("tau", [0, 1, 3])
def test_cyclic_mask_containment_equals_bitset_containment(tau):
    gp = gr.make_group(3, 5, tau)
    _, _, cyclic_gens = sg._cyclic_subgroups(gp)
    lattice = sg.brute_force_lattice_bits(gp)
    masks = [sg._cyclic_mask(gp, bits, cyclic_gens) for bits in lattice]
    assert len(set(masks)) == len(lattice)
    by_mask = dict(zip(masks, lattice))
    for a, mask_a in zip(lattice, masks):
        for b, mask_b in zip(lattice, masks):
            assert (mask_a & mask_b == mask_a) == (a & b == a)
            # the lattice looks |A n B| up by this meet of masks
            assert by_mask[mask_a & mask_b] == a & b


@pytest.mark.parametrize("tau", [1, 3])
def test_coset_closure_matches_generator_closure(tau):
    gp = gr.make_group(3, 3, tau)
    lattice = sg.brute_force_lattice_bits(gp)
    rng = random.Random(17)
    for bits in lattice:
        gens = [(rng.randrange(gp.x_mod), rng.randrange(gp.y_mod)) for _ in range(2)]
        members = sg.bitset_elements(bits, gp.y_mod)
        want = mulclose(gp, _generating_set(gp, members) + gens)
        assert sg.bitset_elements(sg._coset_closure(gp, bits, gens), gp.y_mod) == want

# ---------------------------------------------------------------- normality

def test_is_normal_frozen_values():
    assert sg.is_normal(G351, sg.sg1x(4))
    assert sg.is_normal(G351, sg.sg1x(1))
    # <x^t y> is normal (contains the commutator <x^27>)
    assert sg.is_normal(G351, sg.sg1m(1, 0, 0))
    # <y> is not normal in class1
    assert not sg.is_normal(G351, sg.sg1m(1, 5, 0))


def _closed_under_conjugation(gp, elems):
    """g h g^-1 in elems for every g in G and h in elems, by numpy over all pairs."""
    apow = np.array(gr.alpha_powers(gp), dtype=np.int64)
    x_mod, y_mod = gp.x_mod, gp.y_mod

    def mul(a1, b1, a2, b2):
        return (a1 + a2 * apow[b1]) % x_mod, (b1 + b2) % y_mod

    h = sorted(elems)
    ha, hb = np.array(h, dtype=np.int64).T
    member = np.zeros(gp.order, dtype=bool)
    member[ha * y_mod + hb] = True
    ga = np.arange(x_mod, dtype=np.int64)[:, None]
    closed = True
    for b in range(y_mod):  # one row of G per x-value, one column per h
        gb = np.full_like(ga, b)
        ca, cb = mul(*mul(ga, gb, ha, hb), -ga * apow[-b % y_mod] % x_mod, -gb % y_mod)
        for j in range(min(3, len(h))):  # the arrays follow the scalar group law
            assert all(
                (ca[a, j], cb[a, j]) == gr.conjugate(gp, h[j], (a, b)) for a in range(x_mod)
            )
        closed &= bool(member[ca * y_mod + cb].all())
    return closed


def test_is_normal_matches_exhaustive_conjugation():
    rng = random.Random(11)
    for gp in (G351, G353):
        cat = sg.enumerate_catalog(gp)
        for d in rng.sample(cat, 12):
            elems = sg.elements(gp, d)
            exhaustive = _closed_under_conjugation(gp, elems)
            assert sg.is_normal(gp, d) == exhaustive


@pytest.mark.parametrize(
    "p,r,tau",
    [
        (3, 5, 3), (5, 6, 1), (7, 5, 7), (3, 3, 1),
        (5, 6, 5), (7, 5, 0), (5, 4, 1), (11, 5, 1), (13, 5, 13), (3, 36, 1),
    ],
)
def test_order_and_normality_from_the_head_match_the_table(p, r, tau):
    gp = gr.make_group(p, r, tau)
    conjugators = ((1, 0), (0, 1))
    for d in sg.enumerate_catalog(gp):
        table = sg.SubgroupTable.from_generators(gp, sg.generators(gp, d))
        assert sg.subgroup_order(gp, d) == table.order, d
        normal = all(
            table.contains(gr.conjugate(gp, h, c))
            for h in sg.generators(gp, d) for c in conjugators
        )
        assert sg.is_normal(gp, d) == normal, d


# ---------------------------------------------------------------- commutator

def test_commutator_subgroup_descriptors():
    assert sg.commutator_subgroup(G351) == sg.sg1x(3)  # <x^27>
    assert sg.commutator_subgroup(G353) == sg.sg1x(4)  # <x^81>
    assert sg.commutator_subgroup(gr.make_group(3, 5, 0)) == sg.sg1x(5)  # trivial


def test_brute_force_commutator_matches():
    for gp in (G351, G353):
        want = sg.elements(gp, sg.commutator_subgroup(gp))
        assert sg.brute_force_commutator(gp) == want


@pytest.mark.parametrize("tau", [0, 1, 3])
def test_brute_force_commutator_is_the_literal_commutator_set(tau):
    gp = gr.make_group(3, 3, tau)
    group = list(itertools.product(range(gp.x_mod), range(gp.y_mod)))
    literal = {
        gr.mul(gp, gr.mul(gp, g, h), gr.mul(gp, gr.inv(gp, g), gr.inv(gp, h)))
        for g in group for h in group
    }
    assert sg.brute_force_commutator(gp) == literal


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
    # y-step 3 reaches the rows that a y-value off the step must not index
    for gens, y_step in [([(2, 1), (3, 0)], 1), ([(2, 3), (9, 0)], 3)]:
        t = sg.SubgroupTable.from_generators(G351, gens)
        assert t.y_step == y_step
        elems = t.elements()
        for g in itertools.product(range(243), range(9)):
            assert t.contains(g) == (g in elems), (gens, g)


# ---------------------------------------------------------------- pinned group law

# sha256 over the reprs of SubgroupTable.from_generators on a seeded batch of
# generating sets, then of gr.power on seeded (g, k) with |k| < |G|, recorded
# from the closed forms (x-residues by gr.power, powers by a geometric sum)
# that the pivot walk and square-and-multiply replaced
NORMAL_FORM_DIGESTS = {
    (3, 5, 0): "ac7c3c5075f4b6f2ea8b49b37f8b6465a9b073162a6980d8ec64664afe3d139e",
    (3, 5, 1): "a19bc57ee990d76671c28df1451b0ae3708e9bebf0b5951e9744c7d2d7c3c4c2",
    (3, 5, 3): "d593db8c1ba63aa34df9c613c1c7b399b930ad65d0735d2a5dce566d764dc7af",
    (5, 6, 1): "8c0fad3af13bebf3bb6d298cb73ec6b3f415784fda3b5a809023c1a765a48e37",
    (7, 5, 1): "759bcc99571b662ec4058c26db203ee4a4c101b7a83cc8efacd3ecf515d9a94d",
    (3, 3, 1): "df513143689c4c06fe772db89729241d986ff4de3e4c8386a25977e1b0aacdea",
    (5, 4, 1): "42772244fbb30a90ce7cf7e086489daad9dc13b2f0d171536f86e3c1b3ea0242",
    (1215, 271): "ee3a5f15f756124df69a355b821d75bda900e458ad0a7edea36af12896970877",
    (1215, 811): "1c08defeac13b295a6caf9735a6c4227f54a8ef48d17ca78d39879c07259f179",
}


def _pinned_group(key):
    """(p, r, tau) names a prime-power group, (N, alpha) a parent over Z_9."""
    if len(key) == 3:
        return gr.make_group(*key)
    return gr.make_semidirect(key[0], 3, key[1])


@pytest.mark.parametrize("key", list(NORMAL_FORM_DIGESTS))
def test_normal_form_and_powers_keep_their_digests(key):
    gp = _pinned_group(key)
    x_mod, y_mod = gp.x_mod, gp.y_mod
    rng = random.Random(repr(key))
    lines = [repr(sg.SubgroupTable.from_generators(gp, gens))
             for gens in _seeded_generating_sets(gp, rng, 300)]
    for _ in range(300):
        g = (rng.randrange(x_mod), rng.randrange(y_mod))
        k = rng.randrange(1 - gp.order, gp.order)
        lines.append(repr(gr.power(gp, g, k)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == NORMAL_FORM_DIGESTS[key]


@pytest.mark.parametrize("key", list(NORMAL_FORM_DIGESTS))
def test_rows_of_the_head_match_the_table(key):
    # the digest test's generating sets: every row, computed on demand
    gp = _pinned_group(key)
    for gens in _seeded_generating_sets(gp, random.Random(repr(key)), 300):
        table = sg.SubgroupTable.from_generators(gp, gens)
        row = sg._rows(gp, sg._head(gp, gens))
        assert [row(k) for k in range(len(table.reps))] == [a for _, a in table.reps], gens


@pytest.mark.parametrize("p", [101, 211])
def test_rows_of_the_head_match_the_table_at_large_p(p):
    gp = gr.make_group(p, 5, 1)
    rng = random.Random(p)
    for gens in _seeded_generating_sets(gp, rng, 12):
        table = sg.SubgroupTable.from_generators(gp, gens)
        row = sg._rows(gp, sg._head(gp, gens))
        for k in rng.sample(range(len(table.reps)), min(len(table.reps), 40)):
            assert row(k) == table.reps[k][1], (gens, k)
