"""Reference code that only tests call: register spans and axis depths
computed by brute force from explicit element sets."""

import math
from functools import reduce

from hsp_sdp import group as gr
from hsp_sdp import numtheory as nt
from hsp_sdp.qsim import Register, _add, _zero
from hsp_sdp.subgroup import SubgroupSet


def register_span(dims: Register, gens) -> frozenset:
    """Subgroup of Z_dims generated by gens (BFS closure)."""
    span = {_zero(dims)}
    for g in gens:
        g = tuple(a % n for a, n in zip(g, dims))
        frontier = list(span)
        while frontier:
            fresh = []
            for u in frontier:
                v = _add(u, g, dims)
                if v not in span:
                    span.add(v)
                    fresh.append(v)
            frontier = fresh
    return frozenset(span)


def intersect_with_axis(gp: gr.GroupParams, subgroup: SubgroupSet, axis: str) -> int:
    """Valuation of the intersection with <x> (returns m) or <y> (returns n)."""
    if axis == "x":
        g = reduce(math.gcd, (a for a, b in subgroup if b == 0), gp.x_mod)
        v, u = nt.p_valuation(g, gp.p)
    elif axis == "y":
        g = reduce(math.gcd, (b for a, b in subgroup if a == 0), gp.y_mod)
        v, u = nt.p_valuation(g, gp.p)
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    assert u <= 1, "axis intersection must be a p-power cyclic group"
    return v
