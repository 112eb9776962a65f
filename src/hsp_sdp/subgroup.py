"""Subgroup descriptors, catalog enumeration, and brute-force references.

Four descriptor forms cover every subgroup of Z_{p^r} x| Z_{p^2}:

    sg1x(i)        <x^(p^i)>                       0 <= i <= r
    sg1m(t, i, j)  <x^(t*p^i) y^(p^j)>             0 <= i <= r, j in {0,1}, t unit
                                                   mod p^l, l = min(r-i, 2-j), t=1 if l=0
    sg2(i, j)      <x^(p^i), y^(p^j)>              0 <= i < r, j in {0,1}
    sg3(t, i)      <x^(t*p^i) y, x^(p^(i+1))>      0 <= i < r, t unit mod p

with a unit mod q taken in [1, q). This table is the one spec of the
descriptors: validate_descriptor checks one against its ranges without
enumerating. It names each subgroup once, except that the p - 1 cyclic
sg3(t, r-1) equal sg1m(t, r-1, 0); enumerate_catalog lists the table with
sg3 at i < r - 1 only, in (form, i, j, t) order, and builds no tables.

A subgroup's normal form is its head (d, s, a_1): the x-axis step d = p^k,
the y-step s = p^j (y_mod if the y-projection is trivial), and row 1
(s, a_1) with a_1 = u*p^i in [0, d) for a unit u; two subgroups are equal
iff their heads are. Row k is (k*s, a_k), a_k the x-part of (a_1, s)^k mod
d, which _rows computes with one pow, so no solve builds a table.
descriptor_head reads a catalog descriptor's head in closed form:

    sg1x(i)        (p^i, y_mod, 0)
    sg1m(t, i, j)  (D, p^j, t*p^i mod D), D = p^min(r, i+2-j)
    sg2(i, j)      (p^i, p^j, 0)
    sg3(t, i)      (p^(i+1), 1, t*p^i)

sg1m's x-step comes from the wrap (t*p^i, p^j)^(p^(2-j)) = (t*p^i * c, 0),
with c = sum_{k < p^(2-j)} alpha^(k*p^j). As alpha = 1 mod p, lifting the
exponent (p odd) gives c the p-valuation of p^(2-j), that is 2 - j, so
H's x-axis part is <x^D> with D = gcd(t*p^i * c, p^r) = p^min(r, i+2-j).
_head reads the head off any generating set in O(#gens * log p^2) group
operations. SubgroupTable materializes the head as one x-offset per
y-value, for bitsets, element sets and the tests' reference. canonicalize
reads the catalog descriptor off the head:

    s == y_mod                   sg1x(k)
    a_1 == 0                     sg2(k, j) if k < r, else sg1m(1, r, j)
    j == 0 and i + 1 == k < r    sg3(u mod p, i)
    otherwise                    sg1m(u mod p^(k-i), i, j)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

from . import group as gr
from . import numtheory as nt
from .errors import InvalidDescriptor, TooLarge, shown

MATERIALIZE_GUARD = 2**24
BRUTE_FORCE_GUARD = 2**20

SubgroupSet = frozenset  # frozenset[gr.Element]


@dataclass(frozen=True)
class Descriptor:
    form: str
    i: int
    t: int | None = None
    j: int | None = None


def sg1x(i: int) -> Descriptor:
    return Descriptor("sg1x", i)


def sg1m(t: int, i: int, j: int) -> Descriptor:
    return Descriptor("sg1m", i, t=t, j=j)


def sg2(i: int, j: int) -> Descriptor:
    return Descriptor("sg2", i, j=j)


def sg3(t: int, i: int) -> Descriptor:
    return Descriptor("sg3", i, t=t)


def descriptor_to_json(d: Descriptor) -> dict:
    out: dict = {"form": d.form}
    if d.t is not None:
        out["t"] = d.t
    out["i"] = d.i
    if d.j is not None:
        out["j"] = d.j
    return out


def descriptor_from_json(blob: dict) -> Descriptor:
    if not isinstance(blob, dict) or "form" not in blob or "i" not in blob:
        raise InvalidDescriptor(f"malformed descriptor JSON: {shown(blob, repr)}")
    form = blob["form"]
    allowed = {"sg1x": set(), "sg1m": {"t", "j"}, "sg2": {"j"}, "sg3": {"t"}}.get(form)
    if allowed is None:
        raise InvalidDescriptor(f"unknown form {shown(form, repr)}")
    extra = set(blob) - {"form", "i"} - allowed
    missing = allowed - set(blob)
    if extra or missing:
        raise InvalidDescriptor(f"wrong fields for {form}: {shown(blob, repr)}")
    if any(type(blob[k]) is not int for k in {"i"} | allowed):
        raise InvalidDescriptor(f"descriptor fields must be integers: {shown(blob, repr)}")
    return Descriptor(form, blob["i"], t=blob.get("t"), j=blob.get("j"))


def _is_unit(t, modulus: int, p: int) -> bool:
    """t is a unit mod the p-power modulus taken in [1, modulus), or t = 1 if
    the modulus is 1."""
    return t == 1 if modulus == 1 else t in range(1, modulus) and t % p != 0


def validate_descriptor(gp: gr.GroupParams, d: Descriptor) -> None:
    """Check d against the module docstring's range table, as a predicate."""
    p, r, i, t, j = gp.p, gp.r, d.i, d.t, d.j
    if d.form == "sg1x":
        ok = i in range(r + 1) and t is None and j is None
    elif d.form == "sg1m":
        ok = j in (0, 1) and i in range(r + 1) and _is_unit(t, p ** min(r - i, 2 - j), p)
    elif d.form == "sg2":
        ok = i in range(r) and j in (0, 1) and t is None
    else:
        ok = d.form == "sg3" and i in range(r) and j is None and _is_unit(t, p, p)
    if not ok:
        raise InvalidDescriptor(f"{shown(d)} is out of range for p={gp.p}, r={gp.r}")


def generators(gp: gr.GroupParams, d: Descriptor) -> list[gr.Element]:
    validate_descriptor(gp, d)
    p, x_mod = gp.p, gp.x_mod
    if d.form == "sg1x":
        return [(p**d.i % x_mod, 0)]
    if d.form == "sg1m":
        return [(d.t * p**d.i % x_mod, p**d.j)]
    if d.form == "sg2":
        return [(p**d.i, 0), (0, p**d.j)]
    return [(d.t * p**d.i % x_mod, 1), (p ** (d.i + 1) % x_mod, 0)]


def descriptor_head(gp: gr.GroupParams, d: Descriptor) -> tuple[int, int, int]:
    """The head (x-step, y-step, a_1) of a valid descriptor d, in closed form
    (module docstring); equal to _head(gp, generators(gp, d))."""
    validate_descriptor(gp, d)
    p = gp.p
    if d.form == "sg1x":
        return p**d.i, gp.y_mod, 0
    if d.form == "sg2":
        return p**d.i, p**d.j, 0
    if d.form == "sg3":
        return p ** (d.i + 1), 1, d.t * p**d.i
    x_step = p ** min(gp.r, d.i + 2 - d.j)
    return x_step, p**d.j, d.t * p**d.i % x_step


# ------------------------------------------------------------ normal form


@dataclass(frozen=True)
class SubgroupTable:
    """Transversal normal form: x-step d plus one x-offset per y-value.

    The element set is exactly {(a_b + d*u mod x_mod, b)} over rep pairs
    (b, a_b) and 0 <= u < x_mod/d, so the table is a complete invariant.
    """

    x_mod: int
    y_mod: int
    x_step: int
    reps: tuple[tuple[int, int], ...]  # (b, a_b) sorted by b, a_0 = 0

    @classmethod
    def from_generators(cls, gp: gr.SemidirectGroup, gens) -> "SubgroupTable":
        """_head, then row k+1 = row k + alpha^(k*s) * a_1 mod d in b order."""
        d, s, a_1 = _head(gp, gens)
        apow, reps, a = gr.alpha_powers(gp), [], 0
        for b in range(0, gp.y_mod, s):
            reps.append((b, a))
            a = (a + apow[b] * a_1) % d
        return cls(gp.x_mod, gp.y_mod, d, tuple(reps))

    @property
    def order(self) -> int:
        return len(self.reps) * (self.x_mod // self.x_step)

    @property
    def y_step(self) -> int:
        """Row k of reps has b = k*s."""
        return self.y_mod // len(self.reps)

    def contains(self, g: gr.Element) -> bool:
        k, r0 = divmod(g[1], self.y_step)
        return r0 == 0 and g[0] % self.x_step == self.reps[k][1]

    def elements(self) -> frozenset:
        d, x_mod = self.x_step, self.x_mod
        return frozenset(
            ((a + d * u) % x_mod, b)
            for b, a in self.reps
            for u in range(x_mod // d)
        )

    def bitset(self) -> int:
        """elements() as an int bitset over the index a*y_mod + b.

        With a_b < d, the reps fill the first block of d*y_mod indices, and
        the element set is that block repeated x_mod/d times, each copy d*y_mod
        indices (one x-step) higher. Doubling the copies takes O(log) shifts.
        """
        stride, count = self.x_step * self.y_mod, self.x_mod // self.x_step
        bits = 0
        for b, a in self.reps:
            bits |= 1 << (a * self.y_mod + b)
        copies = 1
        while copies < count:
            bits |= bits << (stride * copies)
            copies *= 2
        return bits & ((1 << stride * count) - 1)

    def x_intersection_val(self, p: int) -> int:
        """m with intersection along the x-axis equal to <x^(p^m)>."""
        v, u = nt.p_valuation(self.x_step, p)
        assert u == 1, "x_step must be a power of p here"
        return v

    def y_intersection_val(self, p: int) -> int:
        """n with intersection along the y-axis equal to <y^(p^n)>."""
        g = reduce(math.gcd, (b for b, a in self.reps if a == 0), self.y_mod)
        v, u = nt.p_valuation(g, p)
        assert u == 1
        return v


def _head(gp: gr.SemidirectGroup, gens) -> tuple[int, int, int]:
    """(d, s, a_1) of H = <gens>. For a mixed pivot of least p-valuation in b,
    s = gcd(b_pivot, y_mod), n = y_mod/s and h = pivot^((b_pivot/s)^-1 mod n)
    = (a_1, s). H's x-axis part is generated by the pure-x generators, the
    wrap pivot^n (h^n and the pivot's residue are powers of it) and the
    residues h^-(b_g/s) * g of the other mixed generators."""
    x_parts = [a for a, b in gens if b == 0]  # the identity adds nothing
    mixed = [g for g in gens if g[1] != 0]
    if not mixed:
        return reduce(math.gcd, x_parts, gp.x_mod), gp.y_mod, 0
    pivot = min(mixed, key=lambda g: (g[1] % gp.p == 0, g))  # b of least p-valuation
    s = math.gcd(pivot[1], gp.y_mod)
    h = gr.power(gp, pivot, nt.mod_inv(pivot[1] // s, gp.y_mod // s))
    x_parts.append(gr.power(gp, pivot, gp.y_mod // s)[0])
    x_parts += [gr.mul(gp, gr.power(gp, h, -(g[1] // s)), g)[0] for g in mixed if g != pivot]
    d = reduce(math.gcd, x_parts, gp.x_mod)
    return d, s, h[0] % d


def _rows(gp: gr.SemidirectGroup, head: tuple[int, int, int]):
    """k -> a_k = a_1 (q^k - 1)/(q - 1) mod d, with q = alpha^s mod x_mod +
    x_mod > 1, read from q^k mod d*(q - 1)."""
    d, s, a_1 = head
    q = pow(gp.alpha, s, gp.x_mod) + gp.x_mod
    mod = d * (q - 1)
    return lambda k: a_1 * ((pow(q, k, mod) - 1) // (q - 1)) % d


@lru_cache(maxsize=None)
def table_for(gp: gr.GroupParams, d: Descriptor) -> SubgroupTable:
    return SubgroupTable.from_generators(gp, generators(gp, d))


# ------------------------------------------------------------ catalog


def _units(modulus: int, p: int) -> list[int]:
    if modulus == 1:
        return [1]
    return [t for t in range(1, modulus) if t % p]


def enumerate_catalog(gp: gr.GroupParams) -> list[Descriptor]:
    """All subgroups of G, one descriptor each, in (form, i, j, t) order: the
    module docstring's range table without the aliases sg3(t, r-1)."""
    p, r = gp.p, gp.r
    catalog = [sg1x(i) for i in range(r + 1)]
    for i in range(r + 1):
        for j in (0, 1):
            catalog += [sg1m(t, i, j) for t in _units(p ** min(r - i, 2 - j), p)]
    catalog += [sg2(i, j) for i in range(r) for j in (0, 1)]
    catalog += [sg3(t, i) for i in range(r - 1) for t in _units(p, p)]
    return catalog


def canonicalize(gp: gr.GroupParams, gens) -> Descriptor:
    """Map any generating set to its catalog descriptor (module docstring)."""
    p, r = gp.p, gp.r
    d, s, a_1 = _head(gp, gens)
    k = nt.p_valuation(d, p)[0]
    if s == gp.y_mod:
        return sg1x(k)
    j = nt.p_valuation(s, p)[0]
    if a_1 == 0:
        return sg2(k, j) if k < r else sg1m(1, r, j)
    i, u = nt.p_valuation(a_1, p)
    if j == 0 and i + 1 == k < r:
        return sg3(u % p, i)
    return sg1m(u % p ** (k - i), i, j)


def subgroup_order(gp: gr.GroupParams, d: Descriptor) -> int:
    """|H| = (x_mod/d) * (y_mod/s), read from the head."""
    x_step, y_step, _ = descriptor_head(gp, d)
    return gp.order // (x_step * y_step)


def elements(gp: gr.GroupParams, d: Descriptor) -> SubgroupSet:
    order = subgroup_order(gp, d)  # in closed form: a refused call builds no table
    if order > MATERIALIZE_GUARD:
        raise TooLarge(f"subgroup order {order} exceeds 2^24 materialization guard")
    return table_for(gp, d).elements()


# ------------------------------------------------------------ queries


def is_normal(gp: gr.GroupParams, d: Descriptor) -> bool:
    """Exact normality from the head (d, s, a_1): H = <x^d, h>, h = (a_1, s).

    As G = <x, y>, H is normal iff x and y conjugate x^d and h into H. x fixes
    x^d and y sends it to x^(alpha*d) in <x^d>; y h y^-1 = (alpha*a_1, s) and
    x h x^-1 = (a_1 + 1 - alpha^s, s), and (a, s) is in H iff a = a_1 mod d.
    So H is normal iff d | (alpha - 1)*a_1 and d | alpha^s - 1, where alpha^s
    may be read mod x_mod as d | x_mod.
    """
    x_step, y_step, a_1 = descriptor_head(gp, d)
    q = pow(gp.alpha, y_step, gp.x_mod)
    return (gp.alpha - 1) * a_1 % x_step == 0 and (q - 1) % x_step == 0


def commutator_subgroup(gp: gr.GroupParams) -> Descriptor:
    """[G, G] = <x^(p^(r-2))> for class1, <x^(p^(r-1))> for class2 and the
    trivial <x^(p^r)> for the abelian class."""
    return sg1x(gp.r - gr.commutator_depth(gp))


def brute_force_commutator(gp: gr.GroupParams) -> SubgroupSet:
    """The set of commutators, enumerated directly.

    [g, h] = (a1*(1 - alpha^b2) + a2*(alpha^b1 - 1), 0), so the commutator
    set is the pairwise sum of the two single-coordinate value sets
    {a*(1 - alpha^b)} and {a*(alpha^b - 1)}. As a runs over all of Z_{x_mod},
    the first set is closed under negation (a -> x_mod - a), so the two sets
    are the same and one pass over the a values and alpha powers builds it.
    """
    if gp.order > BRUTE_FORCE_GUARD:
        raise TooLarge(f"group order {gp.order} exceeds 2^20 brute force guard")
    x_mod, apow = gp.x_mod, gr.alpha_powers(gp)  # once: an inner for is re-run per a
    left = {a * (1 - t) % x_mod for a in range(x_mod) for t in apow}
    if len(left) ** 2 > MATERIALIZE_GUARD:
        raise TooLarge("commutator pair set too large")
    return frozenset(((u + v) % x_mod, 0) for u in left for v in left)


# ------------------------------------------------------------ brute force

def bitset_elements(bits: int, y_mod: int) -> SubgroupSet:
    """The element set of an int bitset over the index a*y_mod + b."""
    flags = bin(bits)[:1:-1]
    out = []
    idx = flags.find("1")
    while idx >= 0:
        out.append(divmod(idx, y_mod))
        idx = flags.find("1", idx + 1)
    return frozenset(out)


def _cyclic_subgroups(gp: gr.GroupParams) -> tuple[list[int], list[int], list[int]]:
    """Every cyclic subgroup of G as (bitsets, orders, generator indices).

    Walking <g> lists g^k for k = 1..ord(g); every g^k with gcd(k, ord(g)) = 1
    generates the same <g>, so those elements are skipped as later starting
    points, and every remaining element gives a new one. So each element
    generates exactly one of the subgroups listed. The bitset of <g> is set
    bit by bit in a packed little-endian byte array, read by int.from_bytes.
    """
    apow = gr.alpha_powers(gp)
    x_mod, y_mod = gp.x_mod, gp.y_mod
    found, orders, gen_idx = [], [], []
    covered, nbytes = bytearray(gp.order), (gp.order + 7) // 8
    prime_to: dict[int, list[int]] = {}  # order n -> indices into powers of the generators
    idx = 0
    while idx >= 0:  # idx runs over the elements not yet covered
        a0, b0 = a1, b1 = divmod(idx, y_mod)
        powers = [idx]
        while a1 or b1:  # up to the identity (0, 0)
            a1, b1 = (a1 + a0 * apow[b1]) % x_mod, (b1 + b0) % y_mod
            powers.append(a1 * y_mod + b1)
        n = len(powers)
        if n not in prime_to:
            prime_to[n] = [k - 1 for k in range(1, n + 1) if math.gcd(k, n) == 1]
        for k in prime_to[n]:
            covered[powers[k]] = 1
        packed = bytearray(nbytes)
        for pdx in powers:
            packed[pdx >> 3] |= 1 << (pdx & 7)
        found.append(int.from_bytes(packed, "little"))
        orders.append(n)
        gen_idx.append(idx)
        idx = covered.find(0, idx + 1)
    return found, orders, gen_idx


def _cyclic_mask(gp: gr.GroupParams, bits: int, cyclic_gens: list[int]) -> int:
    """Bit c is set when the subgroup bitset holds generator c, that is,
    when the subgroup contains cyclic subgroup c. Bit i of the bitset is bit
    i % 8 of byte i // 8 of its little-endian bytes."""
    packed = bits.to_bytes((gp.order + 7) // 8, "little")
    return sum(1 << c for c, i in enumerate(cyclic_gens) if packed[i >> 3] >> (i & 7) & 1)


@lru_cache(maxsize=None)
def _column_mask(gp: gr.SemidirectGroup) -> int:
    """Bit a*y_mod set for every a: column 0 of the whole group's bitset."""
    return int(("0" * (gp.y_mod - 1) + "1") * gp.x_mod, 2)


def _columns(gp: gr.SemidirectGroup, bits: int) -> list[tuple[int, int]]:
    """The bitset split by b: (b, column) for every nonempty column, where the
    column has bit a*y_mod set when (a, b) is in the bitset."""
    col0 = _column_mask(gp)
    return [(b, col) for b in range(gp.y_mod) if (col := bits >> b & col0)]


def _right_coset(gp: gr.SemidirectGroup, columns: list[tuple[int, int]], k: gr.Element) -> int:
    """The right coset A*k as a bitset, from A's _columns.

    (a, b)*k = (a + alpha^b*a_k, b + b_k), so column b is rotated by
    alpha^b*a_k and moved to column b + b_k: a left shift, folded modulo |G|.
    """
    ak, bk = k
    alpha, x_mod, y_mod, order = gp.alpha, gp.x_mod, gp.y_mod, gp.order
    out = 0
    for b, col in columns:
        out |= col << (pow(alpha, b, x_mod) * ak % x_mod * y_mod + (b + bk) % y_mod)
    return out & ((1 << order) - 1) | out >> order


def _coset_closure(gp: gr.SemidirectGroup, bits: int, gens) -> int:
    """<A, gens> for the subgroup bitset A, as a union of right cosets A*k.

    Starting from the identity, each k reached by right-multiplying by a
    generator that is not yet in the union adds its coset A*k. A k already in
    the union lies in a coset A*k' taken before, and then A*k = A*k'. So the
    union ends closed under right multiplication by every generator, which
    makes it <A, gens>.
    """
    alpha, x_mod, y_mod = gp.alpha, gp.x_mod, gp.y_mod
    columns = _columns(gp, bits)
    join, frontier = bits, [gr.IDENTITY]
    while frontier:
        nxt = []
        for a1, b1 in frontier:
            t = pow(alpha, b1, x_mod)
            for a2, b2 in gens:
                k = (a1 + a2 * t) % x_mod, (b1 + b2) % y_mod
                if not join >> (k[0] * y_mod + k[1]) & 1:
                    join |= _right_coset(gp, columns, k)
                    nxt.append(k)
        frontier = nxt
    return join


def brute_force_lattice_bits(gp: gr.GroupParams) -> list[int]:
    """Every subgroup of G as an int bitset over the element index
    a*y_mod + b, in discovery order: cyclic subgroups, then pairwise joins
    to fixpoint.

    A reference independent of the catalog: it uses the group law only
    (alpha powers, multiplication), never descriptors, normal-form tables or
    structural facts such as a bound on the number of generators. An order
    is a popcount, taken once per member.

    Containment is tested on masks with one bit per cyclic subgroup
    (_cyclic_mask), far fewer bits than |G|. A subgroup is the union of the
    cyclic subgroups of its elements, so A <= K exactly when
    mask(A) & mask(K) == mask(A), and a mask names at most one subgroup.
    mask(A) & mask(B) is the mask of A n B, so |A n B| is looked up in
    order_of (mask -> order of every member found so far); only on a miss,
    when A n B is not yet found, is it one AND and one popcount of the
    element bitsets. Element bitsets are otherwise used only for closures
    and for the output. No miss happens in G: meets of cyclic subgroups are
    cyclic, and G is metacyclic, so every subgroup joins two cyclic ones and
    is found before the first non-cyclic member is tried. The fallback
    stays, as this reference assumes no generator bound.

    Joins use the product formula. For subgroups A and B the set AB has
    exactly |A|*|B| / |A n B| elements and lies inside <A, B>. If a subgroup
    K already found contains A u B and has exactly that order, then
    AB <= <A, B> <= K with |AB| = |K|, so <A, B> = K and no closure is
    needed. The members of that order are scanned newest first: the one that
    contains A u B is most often a recent join, and whether one exists does
    not depend on the order of the scan. Any other incomparable pair is
    closed by right cosets of the larger member (_coset_closure).
    """
    if gp.order > BRUTE_FORCE_GUARD:
        raise TooLarge(f"group order {gp.order} exceeds 2^20 brute force guard")
    # in discovery order: bitsets, their popcounts and their masks
    found, orders, cyclic_gens = _cyclic_subgroups(gp)
    masks = [_cyclic_mask(gp, bits, cyclic_gens) for bits in found]
    gens_of = {bits: (divmod(i, gp.y_mod),) for bits, i in zip(found, cyclic_gens)}
    order_of = dict(zip(masks, orders))  # mask -> order
    by_order: dict[int, list[int]] = {}  # order -> masks
    for order, mask in zip(orders, masks):
        by_order.setdefault(order, []).append(mask)

    # found grows while it is walked, so joins of new members are tried too
    for idx, bits_a in enumerate(found):
        order_a, mask_a = orders[idx], masks[idx]
        for bits_b, order_b, mask_b in zip(found[:idx], orders[:idx], masks[:idx]):
            meet = mask_a & mask_b
            if meet == mask_a or meet == mask_b:
                continue
            union = mask_a | mask_b
            meet_order = order_of.get(meet) or (bits_a & bits_b).bit_count()
            order = order_a * order_b // meet_order
            for k in reversed(by_order.get(order, ())):
                if k & union == union:
                    break  # <A, B> = AB is already in the lattice
            else:
                gens = gens_of[bits_a] + gens_of[bits_b]
                big = bits_a if order_a >= order_b else bits_b
                bits = _coset_closure(gp, big, gens)
                if bits not in gens_of:
                    gens_of[bits] = gens
                    found.append(bits)
                    orders.append(bits.bit_count())
                    masks.append(_cyclic_mask(gp, bits, cyclic_gens))
                    order_of[masks[-1]] = orders[-1]
                    by_order.setdefault(orders[-1], []).append(masks[-1])
    return found


def brute_force_lattice(gp: gr.GroupParams) -> list[SubgroupSet]:
    """Every subgroup of G as an element set, ordered by (order, sorted elements).

    A thin decode of brute_force_lattice_bits, which derives the lattice from
    the group law only and raises TooLarge above BRUTE_FORCE_GUARD.
    """
    sets = [bitset_elements(bits, gp.y_mod) for bits in brute_force_lattice_bits(gp)]
    return sorted(sets, key=lambda s: (len(s), sorted(s)))
