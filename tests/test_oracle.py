import itertools
import random

import numpy as np
import pytest

from hsp_sdp import group as gr
from hsp_sdp import oracle as orc
from hsp_sdp import subgroup as sg
from hsp_sdp.errors import TooLarge

import reference

G351 = gr.make_group(3, 5, 1)
G353 = gr.make_group(3, 5, 3)


def literal_coset_min_label(gp, hidden_elems, g):
    """Reference implementation: materialize g*H and take its least element in
    b-major order (least y-value first, then least x-value)."""
    coset = [gr.mul(gp, g, h) for h in hidden_elems]
    a, b = min(coset, key=lambda e: (e[1], e[0]))
    return a * gp.y_mod + b


def test_label_packing_frozen_values():
    o = orc.make_oracle(G351, sg.sg1x(1))  # <x^3>
    assert o.query(gr.IDENTITY)._packed == 0
    # coset of (1,1): x-parts {1 + 84k mod 243} = {1 + 3j}, least is (1,1)
    assert o.query((1, 1))._packed == 1 * 9 + 1


@pytest.mark.parametrize(
    "gp,descr",
    [
        (G351, sg.sg1x(1)),
        (G351, sg.sg1m(2, 1, 0)),
        (G351, sg.sg3(1, 2)),
        (G351, sg.sg2(0, 0)),
        (G351, sg.sg1x(5)),
        (G353, sg.sg1m(1, 0, 1)),
        (G353, sg.sg2(2, 1)),
    ],
)
def test_labels_match_literal_coset_minimum(gp, descr):
    o = orc.make_oracle(gp, descr)
    hidden = sg.elements(gp, descr)
    for g in itertools.product(range(gp.x_mod), range(gp.y_mod)):
        assert o.query(g)._packed == literal_coset_min_label(gp, hidden, g)


@pytest.mark.parametrize("tau", [0, 1, 3])
def test_array_labels_match_scalar_labels_on_catalog(tau):
    gp = gr.make_group(3, 5, tau)
    elems = list(itertools.product(range(gp.x_mod), range(gp.y_mod)))
    a = np.array([g[0] for g in elems], dtype=np.int64)
    b = np.array([g[1] for g in elems], dtype=np.int64)
    for descr in sg.enumerate_catalog(gp):
        o = orc.make_oracle(gp, descr)
        want = [o._label(g)._packed for g in elems]
        assert reference.label_array(o, a, b).tolist() == want, descr
        _, s, _ = sg.descriptor_head(gp, descr)
        assert o.meter.sim_evals == gp.y_mod // s  # one head read
        assert o.meter.queries == 0


@pytest.mark.parametrize("tau", [0, 1, 3])
def test_array_labels_hide_every_catalog_subgroup(tau):
    """Exact hiding, whatever the label's definition: labels over all of G do
    not move under right multiplication by each generator of H, and there are
    exactly |G|/|H| of them."""
    gp = gr.make_group(3, 5, tau)
    elems = list(itertools.product(range(gp.x_mod), range(gp.y_mod)))
    a = np.array([g[0] for g in elems], dtype=np.int64)
    b = np.array([g[1] for g in elems], dtype=np.int64)
    apow = np.array(gr.alpha_powers(gp), dtype=np.int64)
    for descr in sg.enumerate_catalog(gp):
        labels = reference.label_array(orc.make_oracle(gp, descr), a, b)
        for ha, hb in sg.generators(gp, descr):
            moved = (a + apow[b] * ha) % gp.x_mod * gp.y_mod + (b + hb) % gp.y_mod
            assert (labels[moved] == labels).all(), (descr, (ha, hb))
        assert len(set(labels.tolist())) == gp.order // sg.subgroup_order(gp, descr), descr


@pytest.mark.parametrize("p", [47, 101])
def test_scalar_labels_hide_at_large_p(p):
    """Up to p^2 hidden-table rows: f(g) == f(g*h) for h a random product of
    generator powers, and f(g) == f(g2) exactly when g^-1 g2 lies in H."""
    gp = gr.make_group(p, 5, 1)
    rng = random.Random(p)
    catalog = sg.enumerate_catalog(gp)
    picks = [sg.sg1m(2, 0, 0), sg.sg3(1, 2), sg.sg2(3, 1)] + rng.sample(catalog, 5)
    for descr in picks:
        o = orc.make_oracle(gp, descr)
        table = sg.table_for(gp, descr)
        gens = sg.generators(gp, descr)
        for _ in range(40):
            g = (rng.randrange(gp.x_mod), rng.randrange(gp.y_mod))
            h = gr.IDENTITY
            for gen in rng.choices(gens, k=3):
                h = gr.mul(gp, h, gr.power(gp, gen, rng.randrange(gp.order)))
            gh = gr.mul(gp, g, h)
            assert o.query(g) == o.query(gh), (descr, g, h)
            nudged = gr.mul(gp, gh, (rng.randrange(3), rng.randrange(3)))
            anywhere = (rng.randrange(gp.x_mod), rng.randrange(gp.y_mod))
            for g2 in (gh, nudged, anywhere):
                want = table.contains(gr.mul(gp, gr.inv(gp, g), g2))
                assert (o.query(g) == o.query(g2)) == want, (descr, g, g2)


def test_hiding_property_random_pairs():
    rng = random.Random(13)
    for gp, descr in ((G351, sg.sg3(2, 1)), (G353, sg.sg1m(4, 1, 0))):
        o = orc.make_oracle(gp, descr)
        hidden = sg.elements(gp, descr)
        for _ in range(10**4):
            g1 = (rng.randrange(243), rng.randrange(9))
            g2 = (rng.randrange(243), rng.randrange(9))
            same = o.query(g1) == o.query(g2)
            assert same == (gr.mul(gp, gr.inv(gp, g1), g2) in hidden)


def test_query_count_accounting():
    o = orc.make_oracle(G351, sg.sg1x(2))
    assert o.meter.queries == 0
    o.query((5, 3))
    o.query((5, 3))
    assert o.meter.queries == 2
    o.charge_superposition_query()
    assert o.meter.queries == 3
    assert o.meter.sim_evals == 0
    o._sim_eval((5, 3))
    assert o.meter.sim_evals == 1
    assert o.meter.queries == 3


@pytest.mark.parametrize(
    "gens, outside, k",
    [
        ([], None, 0),
        ([(9, 0), (0, 3), (18, 6)], None, 3),
        ([(1, 0), (9, 0)], (1, 0), 1),
        ([(9, 0), (0, 3), (3, 3), (0, 1), (1, 0)], (3, 3), 3),
    ],
)
def test_first_outside_charges_identity_plus_prefix(gens, outside, k):
    o = orc.make_oracle(G351, sg.sg2(2, 1))  # <x^9, y^3>
    assert o.first_outside(gens) == outside
    assert o.meter.queries == 1 + k
    assert o.meter.sim_evals == 0


def test_labels_deterministic_across_instances():
    o1 = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    o2 = orc.make_oracle(G351, sg.sg1m(1, 0, 1))
    rng = random.Random(17)
    for _ in range(200):
        g = (rng.randrange(243), rng.randrange(9))
        assert o1.query(g) == o2.query(g)


def test_labels_are_opaque():
    o = orc.make_oracle(G351, sg.sg1x(1))
    lbl = o.query((0, 0))
    assert lbl == o.query((3, 0))
    assert hash(lbl) == hash(o.query((3, 0)))
    with pytest.raises(TypeError):
        lbl < o.query((1, 0))  # no ordering: labels carry no usable structure
    with pytest.raises(TypeError):
        int(lbl)


def test_brute_force_recover():
    o = orc.make_oracle(G351, sg.sg3(2, 1))
    want = sg.elements(G351, sg.sg3(2, 1))
    got = orc.brute_force_recover(o)
    assert got == want
    assert o.meter.queries == G351.order


def test_brute_force_recover_guard():
    gp = gr.make_group(3, 13, 1)
    o = orc.make_oracle(gp, sg.sg1x(1))
    with pytest.raises(TooLarge):
        orc.brute_force_recover(o)


def test_label_array_guard():
    gp = gr.make_group(3, 14, 1)  # order 3^16 > 2^24
    o = orc.make_oracle(gp, sg.sg1x(1))  # <x^3>; scalar labels take any size
    assert o.query((3, 0)) == o.query(gr.IDENTITY) != o.query((1, 0))
    a = np.array([0, 1], dtype=np.int64)
    with pytest.raises(TooLarge):
        reference.label_array(o, a, a)


def test_make_oracle_from_generators():
    o1 = orc.make_oracle(G351, sg.sg3(2, 0))
    o2 = orc.make_oracle_from_generators(G351, [(2, 1), (3, 0)])
    rng = random.Random(19)
    for _ in range(300):
        g = (rng.randrange(243), rng.randrange(9))
        assert o1.query(g) == o2.query(g)
