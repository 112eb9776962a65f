"""Subgroup descriptors, catalog enumeration, and brute-force references.

Four descriptor forms cover every subgroup of Z_{p^r} x| Z_{p^2}:

    sg1x(i)        <x^(p^i)>                       0 <= i <= r
    sg1m(t, i, j)  <x^(t*p^i) y^(p^j)>             j in {0,1}, t unit mod p^l,
                                                   l = min(r-i, 2-j), t=1 if l=0
    sg2(i, j)      <x^(p^i), y^(p^j)>              0 <= i < r, j in {0,1}
    sg3(t, i)      <x^(t*p^i) y, x^(p^(i+1))>      0 <= i < r, t unit mod p

The forms overlap (sg3 at i = r-1 is cyclic); the catalog keeps the
lexicographically least (form-rank, i, j, t) representative per element set.

Internally every subgroup is reduced to a transversal normal form
(SubgroupTable): the x-axis intersection step d and, for each value b of the
y-projection, the unique representative x-offset in [0, d). Two subgroups are
equal iff their tables are equal, which keeps dedup, canonicalization and
membership exact without materializing element sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import group as gr
from . import numtheory as nt
from .errors import InvalidDescriptor, NotInCatalog, TooLarge

MATERIALIZE_GUARD = 2**24
BRUTE_FORCE_GUARD = 2**20

FORM_RANK = {"sg1x": 0, "sg1m": 1, "sg2": 2, "sg3": 3}

SubgroupSet = frozenset  # frozenset[gr.Element]


@dataclass(frozen=True)
class Descriptor:
    form: str
    i: int
    t: int | None = None
    j: int | None = None

    def sort_key(self) -> tuple[int, int, int, int]:
        return (FORM_RANK[self.form], self.i, self.j or 0, self.t or 0)


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
        raise InvalidDescriptor(f"malformed descriptor JSON: {blob!r}")
    form = blob["form"]
    if form not in FORM_RANK:
        raise InvalidDescriptor(f"unknown form {form!r}")
    allowed = {"sg1x": set(), "sg1m": {"t", "j"}, "sg2": {"j"}, "sg3": {"t"}}[form]
    extra = set(blob) - {"form", "i"} - allowed
    missing = allowed - set(blob)
    if extra or missing:
        raise InvalidDescriptor(f"wrong fields for {form}: {blob!r}")
    if any(type(blob[k]) is not int for k in {"i"} | allowed):
        raise InvalidDescriptor(f"descriptor fields must be integers: {blob!r}")
    return Descriptor(form, blob["i"], t=blob.get("t"), j=blob.get("j"))


def _mixed_t_modulus_exp(gp: gr.GroupParams, i: int, j: int) -> int:
    return min(gp.r - i, 2 - j)


def validate_descriptor(gp: gr.GroupParams, d: Descriptor) -> None:
    p, r = gp.p, gp.r
    form = d.form
    if form not in FORM_RANK:
        raise InvalidDescriptor(f"unknown form {form!r}")
    if form == "sg1x":
        if not (0 <= d.i <= r) or d.t is not None or d.j is not None:
            raise InvalidDescriptor(f"bad sg1x descriptor {d}")
        return
    if form == "sg1m":
        if d.t is None or d.j is None or not (0 <= d.i <= r) or d.j not in (0, 1):
            raise InvalidDescriptor(f"bad sg1m descriptor {d}")
        l = _mixed_t_modulus_exp(gp, d.i, d.j)
        if l == 0:
            if d.t != 1:
                raise InvalidDescriptor(f"sg1m with trivial t-range requires t=1: {d}")
        elif not (1 <= d.t < p**l) or d.t % p == 0:
            raise InvalidDescriptor(f"sg1m t={d.t} not a unit mod {p**l}: {d}")
        return
    if form == "sg2":
        if not (0 <= d.i < r) or d.j not in (0, 1) or d.t is not None:
            raise InvalidDescriptor(f"bad sg2 descriptor {d}")
        return
    # sg3
    if d.t is None or d.j is not None or not (0 <= d.i < r):
        raise InvalidDescriptor(f"bad sg3 descriptor {d}")
    if not (1 <= d.t < p) :
        raise InvalidDescriptor(f"sg3 t={d.t} not a unit mod {p}: {d}")


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
        p, x_mod, y_mod = gp.p, gp.x_mod, gp.y_mod
        gens = [g for g in gens if g != gr.IDENTITY]
        mixed = [g for g in gens if g[1] != 0]
        if not mixed:
            d = reduce(math.gcd, (a for a, _ in gens), x_mod)
            return cls(x_mod, y_mod, d, ((0, 0),))

        def y_val(b: int) -> int:
            return 0 if b % p else 1

        pivot = min(mixed, key=lambda g: (y_val(g[1]), g))
        nv = y_val(pivot[1])
        span = p ** (2 - nv)  # size of the y-projection
        unit = nt.mod_inv(pivot[1] // p**nv, span)
        x_parts = [a for a, b in gens if b == 0]
        for g in mixed:
            if g is pivot:
                continue
            k = (g[1] // p**nv) * unit % span
            residue = gr.mul(gp, g, gr.power(gp, pivot, -k))
            assert residue[1] == 0
            x_parts.append(residue[0])
        wrap = gr.power(gp, pivot, span)
        assert wrap[1] == 0
        x_parts.append(wrap[0])
        d = reduce(math.gcd, x_parts, x_mod)
        reps = []
        cur = gr.IDENTITY
        for _ in range(span):
            reps.append((cur[1], cur[0] % d))
            cur = gr.mul(gp, cur, pivot)
        return cls(x_mod, y_mod, d, tuple(sorted(reps)))

    @property
    def order(self) -> int:
        return len(self.reps) * (self.x_mod // self.x_step)

    def contains(self, g: gr.Element) -> bool:
        a, b = g
        for rb, ra in self.reps:
            if rb == b:
                return a % self.x_step == ra
        return False

    def elements(self) -> frozenset:
        d, x_mod = self.x_step, self.x_mod
        return frozenset(
            ((a + d * u) % x_mod, b)
            for b, a in self.reps
            for u in range(x_mod // d)
        )

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


def table_for(gp: gr.GroupParams, d: Descriptor) -> SubgroupTable:
    return SubgroupTable.from_generators(gp, generators(gp, d))


# ------------------------------------------------------------ catalog


def _units(modulus: int, p: int) -> list[int]:
    if modulus == 1:
        return [1]
    return [t for t in range(1, modulus) if t % p]


@lru_cache(maxsize=None)
def _catalog_with_index(gp: gr.GroupParams):
    p, r = gp.p, gp.r
    raw: list[Descriptor] = [sg1x(i) for i in range(r + 1)]
    for j in (0, 1):
        for i in range(r + 1):
            l = _mixed_t_modulus_exp(gp, i, j)
            raw.extend(sg1m(t, i, j) for t in _units(p**l, p))
    raw.extend(sg2(i, j) for j in (0, 1) for i in range(r))
    raw.extend(sg3(t, i) for i in range(r) for t in _units(p, p))
    raw.sort(key=Descriptor.sort_key)
    index: dict[SubgroupTable, Descriptor] = {}
    kept: list[Descriptor] = []
    for d in raw:
        table = table_for(gp, d)
        if table not in index:
            index[table] = d
            kept.append(d)
    return tuple(kept), index


def enumerate_catalog(gp: gr.GroupParams) -> list[Descriptor]:
    """All subgroups of G, one canonical descriptor each, deterministic order."""
    return list(_catalog_with_index(gp)[0])


def canonicalize(gp: gr.GroupParams, gens) -> Descriptor:
    """Map any generating set to its canonical catalog descriptor."""
    table = SubgroupTable.from_generators(gp, gens)
    index = _catalog_with_index(gp)[1]
    try:
        return index[table]
    except KeyError as exc:  # the catalog is complete; this is a bug trap
        raise NotInCatalog(f"no catalog entry for subgroup with table {table}") from exc


def subgroup_order(gp: gr.GroupParams, d: Descriptor) -> int:
    return table_for(gp, d).order


def elements(gp: gr.GroupParams, d: Descriptor) -> SubgroupSet:
    table = table_for(gp, d)
    if table.order > MATERIALIZE_GUARD:
        raise TooLarge(f"subgroup order {table.order} exceeds 2^24 materialization guard")
    return table.elements()


# ------------------------------------------------------------ queries


def is_normal(gp: gr.GroupParams, d: Descriptor) -> bool:
    """Exact normality: conjugate the generators by x and y.

    Conjugation is an automorphism and G = <x, y>, so this is equivalent to
    conjugating every element by every element.
    """
    table = table_for(gp, d)
    for h in generators(gp, d):
        for c in ((1, 0), (0, 1)):
            if not table.contains(gr.conjugate(gp, h, c)):
                return False
    return True


def commutator_subgroup(gp: gr.GroupParams) -> Descriptor:
    """[G, G] = <x^(p^(r-2))> for class1, <x^(p^(r-1))> for class2."""
    return sg1x(gp.r - gr.commutator_depth(gp))


def brute_force_commutator(gp: gr.GroupParams) -> SubgroupSet:
    """The set of commutators, enumerated directly.

    [g, h] = (a1*(1 - alpha^b2) + a2*(alpha^b1 - 1), 0), so the commutator
    set is the pairwise sum of the two single-coordinate value sets.
    """
    if gp.order > BRUTE_FORCE_GUARD:
        raise TooLarge(f"group order {gp.order} exceeds 2^20 brute force guard")
    apow = np.array(gr._alpha_pows(gp), dtype=np.int64)
    a_range = np.arange(gp.x_mod, dtype=np.int64)
    left = np.unique(a_range[:, None] * ((1 - apow) % gp.x_mod)[None, :] % gp.x_mod)
    right = np.unique(a_range[:, None] * ((apow - 1) % gp.x_mod)[None, :] % gp.x_mod)
    if left.size * right.size > MATERIALIZE_GUARD:
        raise TooLarge("commutator pair set too large")
    total = np.unique((left[:, None] + right[None, :]) % gp.x_mod)
    return frozenset((int(v), 0) for v in total)


# ------------------------------------------------------------ brute force


def _mulclose(gp: gr.SemidirectGroup, gens) -> frozenset:
    seen = {gr.IDENTITY}
    frontier = [gr.IDENTITY]
    apow = gr._alpha_pows(gp)
    x_mod, y_mod = gp.x_mod, gp.y_mod
    while frontier:
        nxt = []
        for a1, b1 in frontier:
            for a2, b2 in gens:
                t = ((a1 + a2 * apow[b1]) % x_mod, (b1 + b2) % y_mod)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return frozenset(seen)


def brute_force_lattice(gp: gr.GroupParams) -> list[SubgroupSet]:
    """Every subgroup of G: cyclic subgroups, then pairwise joins to fixpoint."""
    if gp.order > BRUTE_FORCE_GUARD:
        raise TooLarge(f"group order {gp.order} exceeds 2^20 brute force guard")
    apow = gr._alpha_pows(gp)
    x_mod, y_mod = gp.x_mod, gp.y_mod

    subs: dict[frozenset, tuple] = {}
    for g in itertools.product(range(x_mod), range(y_mod)):
        cyc = {gr.IDENTITY}
        cur = g
        while cur != gr.IDENTITY:
            cyc.add(cur)
            a1, b1 = cur
            cur = ((a1 + g[0] * apow[b1]) % x_mod, (b1 + g[1]) % y_mod)
        fs = frozenset(cyc)
        if fs not in subs:
            subs[fs] = (g,)

    sets = list(subs.items())
    idx = 0
    known = set(subs)
    while idx < len(sets):
        fs_a, gens_a = sets[idx]
        for jdx in range(idx):
            fs_b, gens_b = sets[jdx]
            if fs_a <= fs_b or fs_b <= fs_a:
                continue
            joined = _mulclose(gp, gens_a + gens_b)
            if joined not in known:
                known.add(joined)
                sets.append((joined, gens_a + gens_b))
        idx += 1
    return sorted((fs for fs, _ in sets), key=lambda s: (len(s), sorted(s)))
