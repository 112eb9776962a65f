"""Every subgroup of Z_{p^r} x| Z_{p^2}, written in a normal form.

A subgroup H of the twisted product is pinned down by two generators in a
canonical shape, and every H falls into one of four descriptor families:

    sg1x(i)        <x^(p^i)>                        pure x-axis chains
    sg1m(t, i, j)  <x^(t*p^i) y^(p^j)>              cyclic but mixed direction
    sg2(i, j)      <x^(p^i), y^(p^j)>               products of two chains
    sg3(t, i)      <x^(t*p^i) y, x^(p^(i+1))>       mixed leg plus an x-chain

The catalog enumerator walks the valid parameter ranges once and yields each
subgroup exactly once.  Canonical membership tests, orders and element
lists come from a small transversal table built per subgroup; normality is
read in closed form from the subgroup's head (x-step, y-step, a_1), with no
table at all.
Everything here is cross-checked against a brute-force walk of the whole
lattice (every subset closure at desk scale), so the catalog is exact, not
heuristic.
"""

from collections import Counter

from hsp_sdp import group as gr
from hsp_sdp import subgroup as sg


def main():
    gp = gr.make_group(3, 5, 1)
    catalog = sg.enumerate_catalog(gp)
    print(f"group: p=3 r=5 tau=1, |G| = {gp.order}")
    print(f"catalog size: {len(catalog)} subgroups")

    by_form = Counter(d.form for d in catalog)
    print("\ncount by family:")
    for form in ("sg1x", "sg1m", "sg2", "sg3"):
        print(f"  {form:5} {by_form[form]}")

    print("\na few entries, with order and normality:")
    picks = [sg.sg1x(2), sg.sg1m(2, 0, 1), sg.sg2(1, 1), sg.sg3(1, 2)]
    for d in picks:
        table = sg.table_for(gp, d)
        print(f"  {sg.descriptor_to_json(d)}")
        print(f"    generators {sg.generators(gp, d)}")
        print(f"    order {table.order}  normal {sg.is_normal(gp, d)}")

    # Two descriptor parameterizations can name the same subgroup; the
    # canonicalizer maps any generating set back to the catalog entry.
    print("\ncanonicalization from a messy generating set:")
    messy = [(54, 3), (81, 0)]
    d = sg.canonicalize(gp, messy)
    print(f"  <{messy[0]}, {messy[1]}> == {sg.descriptor_to_json(d)}")

    print("\nderived subgroup of G:")
    comm = sg.commutator_subgroup(gp)
    print(f"  computed from the twist: {sg.descriptor_to_json(comm)}")
    brute = sg.brute_force_commutator(gp)
    print(f"  brute force over all pairs agrees: {sg.elements(gp, comm) == brute}")

    print("\nchecking the whole catalog against the brute-forced lattice...")
    lattice = sg.brute_force_lattice(gp)
    catalog_sets = {frozenset(sg.table_for(gp, d).elements()) for d in catalog}
    lattice_sets = {frozenset(s) for s in lattice}
    print(f"  brute-force lattice size: {len(lattice_sets)}")
    print(f"  element-set match: {catalog_sets == lattice_sets}")


if __name__ == "__main__":
    main()
