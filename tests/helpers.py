"""Reference code that only tests and demos call: register spans and axis
depths computed by brute force from explicit element sets, element orders
and the abelianization map, the alpha-power walk over a head's rows that
subgroup._rows' closed form replaced, the row walk that qsim.pullback's
closed form replaced, the element walk that the lattice's cyclic pass
replaced, the product enumeration that the commutator's multiples replaced,
and a recorder of the elements an oracle is queried on."""

import math
from functools import reduce

from hsp_sdp import group as gr
from hsp_sdp import numtheory as nt
from hsp_sdp import oracle as orc
from hsp_sdp.qsim import Register, _add, _shape, _zero
from hsp_sdp.subgroup import SubgroupSet, SubgroupTable


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


def element_order(gp: gr.SemidirectGroup, g: gr.Element) -> int:
    """Exact multiplicative order of g (divisor-refinement over |G|)."""
    order = gp.order
    for q, e in nt.factorize(order).items():
        for _ in range(e):
            if gr.power(gp, g, order // q) == gr.IDENTITY:
                order //= q
            else:
                break
    return order


def abelianization_map(gp: gr.GroupParams, g: gr.Element) -> tuple[int, int]:
    """Projection to G/[G,G] = Z_{p^(r-c)} x Z_{p^2}."""
    c = gr.commutator_depth(gp)
    a, b = g
    return (a % gp.p ** (gp.r - c), b)


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


def walked_rows(gp: gr.SemidirectGroup, head: tuple[int, int, int]) -> list[int]:
    """The x-offset a_k of every row k of H's head (d, s, a_1), walked in b
    order: row k+1 = row k + alpha^(k*s) * a_1 mod d."""
    d, s, a_1 = head
    apow, rows, a = gr.alpha_powers(gp), [], 0
    for b in range(0, gp.y_mod, s):
        rows.append(a)
        a = (a + apow[b] * a_1) % d
    return rows


def row_walk_k_gens(table: SubgroupTable, domain) -> tuple:
    """Generators of K = embed^-1(H) for H's table, by the reference scan's
    rule (qsim module docstring), found by walking every row of H in b order."""
    n, s, n_v, kept = _shape(domain, table.y_mod)
    d = table.x_step
    g = math.gcd(s, d)
    step = d // g  # the solutions u of s u == a (mod d) repeat with this period
    inv = pow(s // g, -1, step) if step > 1 else 0
    v0 = u1 = v1 = None
    for b, a in table.reps:  # sorted by b
        if b >= n_v:
            break
        if a % g:
            continue
        u = a // g * inv % step  # least u >= 0 with s u == a (mod d)
        if u == 0:
            if b and v0 is None:
                v0 = b
            u = step
        if u < n and (u1 is None or u < u1):
            u1, v1 = u, b
    gens = ([(0, v0)] if v0 is not None else []) + ([(u1, v1)] if u1 is not None else [])
    return tuple(tuple(pt[i] for i in kept) for pt in gens)


def cyclic_subgroups_walk(gp: gr.GroupParams) -> tuple[list[int], list[int], list[int]]:
    """subgroup._cyclic_subgroups by walking every power of every cyclic
    subgroup, one group-law step per element.

    Walking <g> lists g^k for k = 1..ord(g); every g^k with gcd(k, ord(g)) = 1
    generates the same <g>, so those elements are skipped as later starting
    points, and every remaining element gives a new one. The bitset of <g> is
    set bit by bit in a packed little-endian byte array, read by
    int.from_bytes.
    """
    apow = gr.alpha_powers(gp)
    x_mod, y_mod = gp.x_mod, gp.y_mod
    found, orders, gen_idx = [], [], []
    covered, nbytes = bytearray(gp.order), (gp.order + 7) // 8
    idx = 0
    while idx >= 0:  # idx runs over the elements not yet covered
        a0, b0 = a1, b1 = divmod(idx, y_mod)
        powers = [idx]
        while a1 or b1:  # up to the identity (0, 0)
            a1, b1 = (a1 + a0 * apow[b1]) % x_mod, (b1 + b0) % y_mod
            powers.append(a1 * y_mod + b1)
        n = len(powers)
        for k in range(1, n + 1):
            if math.gcd(k, n) == 1:
                covered[powers[k - 1]] = 1
        packed = bytearray(nbytes)
        for pdx in powers:
            packed[pdx >> 3] |= 1 << (pdx & 7)
        found.append(int.from_bytes(packed, "little"))
        orders.append(n)
        gen_idx.append(idx)
        idx = covered.find(0, idx + 1)
    return found, orders, gen_idx


def commutators_by_products(gp: gr.GroupParams) -> frozenset:
    """subgroup.brute_force_commutator from all x_mod * y_mod products
    a*(1 - alpha^b): the pairwise sums of that value set, on the x-axis."""
    x_mod, apow = gp.x_mod, gr.alpha_powers(gp)
    left = {a * (1 - t) % x_mod for a in range(x_mod) for t in apow}
    return frozenset(((u + v) % x_mod, 0) for u in left for v in left)


def record_queries(monkeypatch) -> list:
    """The list every later HidingOracle.query appends its element to."""
    seen: list = []
    query = orc.HidingOracle.query

    def recording(self, g):
        seen.append(g)
        return query(self, g)

    monkeypatch.setattr(orc.HidingOracle, "query", recording)
    return seen
