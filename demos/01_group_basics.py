"""Element arithmetic in the twisted product Z_{p^r} x| Z_{p^2}.

The groups this package works with are built from two cyclic pieces: an
x-coordinate living mod p^r and a y-coordinate living mod p^2.  Multiplication
twists the x-part before adding it:

    (a1, b1) * (a2, b2) = (a1 + a2 * alpha^b1  mod p^r,  b1 + b2  mod p^2)

where alpha = tau * p^(r-2) + 1.  The single integer tau controls how much
the product fails to commute:

    tau = 0            alpha = 1, the twist disappears, the group is abelian
    gcd(tau, p^2) = 1  the twist has full depth ("class 1")
    gcd(tau, p^2) = p  the twist is shallower by one power of p ("class 2")

This script builds one group of each kind at p = 3, r = 5 and pokes at the
arithmetic: products, inverses, powers, conjugation, commutators, and the
abelianization map that crushes the twist away.
"""

import pathlib
import sys

from hsp_sdp import group as gr

# the order and abelianization maps are test code, kept in tests/
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from helpers import abelianization_map, element_order


def show(label, value):
    print(f"  {label:<38} {value}")


def main():
    print("== three groups at p=3, r=5, differing only in tau ==")
    groups = {tau: gr.make_group(3, 5, tau) for tau in (0, 1, 3)}
    for tau, gp in groups.items():
        show(f"tau={tau}", f"alpha={gp.alpha}  class={gp.class_tag}  |G|={gp.order}")

    gp = groups[1]
    x = (1, 0)   # generates the x-coordinate cyclic part
    y = (0, 1)   # generates the y-coordinate cyclic part

    print("\n== products do not commute in class1 ==")
    show("x * y", gr.mul(gp, x, y))
    show("y * x", gr.mul(gp, y, x))
    show("y * x with tau=0 (abelian)", gr.mul(groups[0], y, x))

    print("\n== inverses and powers ==")
    g = (7, 4)
    show("g", g)
    show("g^-1", gr.inv(gp, g))
    show("g * g^-1", gr.mul(gp, g, gr.inv(gp, g)))
    show("g^6 by repeated squaring", gr.power(gp, g, 6))
    show("order of g", element_order(gp, g))
    show("order of y", element_order(gp, y))

    print("\n== conjugation moves x along the twist ==")
    show("y x y^-1", gr.conjugate(gp, x, y))
    show("y^3 x y^-3", gr.conjugate(gp, x, gr.power(gp, y, 3)))

    # The commutator [y, x] lands in <x^{p^{r-depth}}>; the depth tells how
    # far down the x-axis the derived subgroup sits.
    print("\n== commutator depth per class ==")
    for tau, g2 in groups.items():
        if g2.class_tag == gr.CLASS_ABELIAN:
            show(f"tau={tau} commutator depth", "trivial commutator (abelian)")
        else:
            show(f"tau={tau} commutator depth", gr.commutator_depth(g2))

    print("\n== abelianization: quotient where the twist dies ==")
    show("image of x", abelianization_map(gp, x))
    show("image of y", abelianization_map(gp, y))
    comm = gr.mul(gp, gr.conjugate(gp, x, y), gr.inv(gp, x))
    show("[y,x] in G", comm)
    show("image of [y,x] (must be trivial)", abelianization_map(gp, comm))


if __name__ == "__main__":
    main()
