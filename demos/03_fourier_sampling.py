"""Coset states and Fourier sampling, simulated exactly.

The quantum core of hidden-subgroup recovery is a two-step experiment:

  1. Prepare a uniform superposition over a register domain, query the hiding
     function into a second register, and measure that second register.  The
     first register collapses onto one coset of K, the pullback of the hidden
     subgroup into the domain.
  2. Apply the Fourier transform over the (abelian) register group and
     measure.  Outcomes land only on characters that annihilate K, uniformly.

Nothing here needs amplitudes on the hot path: step 1 is "pick a coset with
the right weight", and step 2's outcome set is the integer solution set of

    sum_j c_j k_j (L / n_j) = 0  (mod L),  L = lcm(n_j),

over all k in K.  The sampler draws from that exact distribution using
rationals.  As a cross-check, this script also builds the full dense
state-vector distribution with numpy and confirms the two agree to within
floating-point dust (total variation ~ 1e-16).

The payoff of sampling characters: each draw is one linear constraint on the
hidden generator.  The last section shows the constraint in action for a
mixed cyclic subgroup <x^t y^p>, where a drawn character (c_a, c_b) with
invertible c_a pins t = -c_a^(-1) c_b mod p.  Invertible draws happen with
frequency 1 - 1/p, which is why a handful of samples suffice.
"""

import pathlib
import random
import sys
from fractions import Fraction

from hsp_sdp import group as gr
from hsp_sdp import oracle as orc
from hsp_sdp import qsim
from hsp_sdp import solver
from hsp_sdp import subgroup as sg

# the exact and dense reference distributions are test code, kept in tests/
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
import reference


def main():
    rng = random.Random(7)
    gp = gr.make_group(3, 5, 1)
    hidden = sg.sg1m(2, 0, 1)            # H = <x^2 y^3>, order 243
    o = orc.make_oracle(gp, hidden)
    print(f"group p=3 r=5 tau=1; hidden subgroup {sg.descriptor_to_json(hidden)}")

    # The solver's m=1 routine works on the register domain Z_3 x Z_9 embedded
    # along (x, y) directly.
    domain = qsim.Domain((3, 9), ((1, 0), (0, 1)), name="m=1 grid")

    print("\n== one coset-collapse draw ==")
    k = qsim.pullback(o, domain)
    s = qsim.coset_sample(o, k, rng)
    print(f"  support size {len(reference.points(s))} (= |K|), base point {s.base}")
    print(f"  K generators in the register domain: {list(s.gens)}")

    print("\n== exact Fourier outcome distribution of that coset state ==")
    dist = reference.fourier_distribution(s)
    for outcome in sorted(dist.probs):
        print(f"  character {outcome}  prob {dist.probs[outcome]}")
    uniform = set(dist.probs.values()) == {Fraction(1, len(dist.probs))}
    print(f"  uniform over the annihilator: {uniform}")

    print("\n== sampled characters constrain the hidden generator ==")
    hits = 0
    draws = 12
    for _ in range(draws):
        c_a, c_b = qsim.fourier_sample(qsim.coset_sample(o, k, rng), rng)
        t = solver.recover_t(c_a, c_b, 3)
        verdict = f"t = {t}" if t is not None else "uninformative (c_a not a unit)"
        hits += t is not None
        print(f"  ({c_a}, {c_b})  ->  {verdict}")
    print(f"  informative fraction {hits}/{draws} (expected about 2/3)")

    print("\n== exact sampler vs dense state-vector reference ==")
    exact = reference.branch_mixture_distribution(o, domain)
    dense = reference.dense_reference_distribution(o, domain)
    tv = reference.total_variation(exact, dense)
    print(f"  outcomes in the mixture: {len(exact.probs)}")
    print(f"  total variation distance: {tv:.3e}")

    print("\n== the same machinery solves a plain abelian instance ==")
    x_axis = qsim.Domain((gp.x_mod,), ((1, 0),), name="x-axis")
    gens = qsim.abelian_hsp(x_axis, o, rng)
    print(f"  x-axis intersection generators: {gens}")
    print("  (cubing the hidden generator kills its y-part and lands on x^6,")
    print("   so H meets the x-axis in <x^3>; the solver uses this depth as m)")


if __name__ == "__main__":
    main()
