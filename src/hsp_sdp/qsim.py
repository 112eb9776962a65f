"""Exact simulation of the quantum subroutines.

The state preparation + measurement cycle of every routine in the solver is:
prepare a uniform superposition over an embedded register domain, query the
hiding oracle once, measure the label register (collapsing the state to a
uniform coset of the level-set subgroup K), apply the product-of-cyclic-QFTs,
and measure. Classically that is:

    pullback         read K = embed^-1(H), once per routine
    coset_sample     draw the post-collapse support (a coset of K)
    fourier_sample   draw one Fourier outcome (uniform on the annihilator)

Neither needs the labels of the register points. The base point is uniform
and independent of K, and the outcome law depends only on K. So pullback
reads K = embed^-1(H) once per recovery routine, in closed form from the
hidden SubgroupTable (x-step d, one x-offset a_b per y-value b) through the
oracle's sealed _sim_table accessor: O(|table rows|) <= p^2 work, charged as
one simulation evaluation per row. Every coset_sample of the routine then
shifts K by a uniform base. The solver and composite domains have one of
the shapes

    (u,) -> x^(s u)      (v,) -> y^v      (u, v) -> x^(s u) y^v

and (s u, v) lies in H iff row v exists and s u == a_v (mod d). The
generators follow the reference scan's rule, "the first point of K in C
order outside the span so far": (0, v0) with v0 the least nonzero v in row
u = 0 of K, if any, then (u1, v1) with u1 the least positive u of K's
u-projection (which generates it) and v1 the least v in that row. Any other
shape raises PreconditionViolated.

Level sets are cosets of K when embed(u)^-1 embed(w) lies in H exactly when
embed(w - u) does. On register dims (n, n_v) the two differ by a left factor
x^delta, delta an integer combination of s n and s (alpha^k - 1), and a
right factor y^(n_v j). As alpha - 1 divides alpha^k - 1, it suffices that
x^(s n), y^(n_v) and x^(s (alpha - 1)) lie in H. Per solver domain:

    x axis, y axis, crt axes   homomorphisms into G
    <x^(p^s), y> (abelian      p^s (alpha - 1) == 0 mod p^r: s = c, the
      route, tau = 0 section)  commutator depth; alpha = 1 for tau = 0
    constraint routine         x^(p^m) in H; alpha == 1 (mod p^(r-2)) with
                               m <= 3 <= r-2; y^p in H when n = 1
    abelianization section     H contains the commutator <x^q>, q = p^(r-c),
      (u, v) on Z_q x Z_(p^2)  and x^(alpha - 1) lies in it

Two pure functions of frozen values are cached at module level, which is
exact: the probe's six points per (group, dims, axes) and K's annihilator
per (dims, K generators). Labels, table reads and their charges are not
cached, so every call still evaluates, meters and can raise.

reference.level_set_scan labels every point and checks the coset structure
by brute force; the tests pin the closed form against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul

from . import group as gr
from . import numtheory as nt
from .errors import PreconditionViolated, RetriesExhausted

#: extra character samples beyond log2(|domain|) per recovery attempt
KAPPA = 10
#: Las Vegas retry budget
RETRIES = 20

Register = tuple[int, ...]


def _zero(dims: Register) -> Register:
    return (0,) * len(dims)


def _add(u: Register, v: Register, dims: Register) -> Register:
    return tuple((a + b) % n for a, b, n in zip(u, v, dims))


@lru_cache(maxsize=None)
def _register(dims: Register) -> tuple[int, int, int, tuple[int, ...]]:
    """(p, L, v_p(L), L / n_j per coordinate) for a register of p-power dims."""
    p = None
    for n in dims:
        if n < 2:
            raise ValueError(f"register dimension {n} is not supported")
        factors = nt.factorize(n)
        if len(factors) != 1:
            raise ValueError(f"register dimension {n} is not a prime power")
        q = next(iter(factors))
        if p is None:
            p = q
        elif q != p:
            raise ValueError(f"mixed primes {p} and {q} in register dimensions")
    L = math.lcm(*dims)
    return p, L, nt.p_valuation(L, p)[0], tuple(L // n for n in dims)


def dual_kernel(dims: Register, vectors) -> list[Register]:
    """Generators of {w : <w, v> == 0 (mod L) for every v in vectors}.

    The pairing is <w, v> = sum_j w_j v_j (L / n_j) with L = lcm(dims); it is
    symmetric, so this computes both character kernels (vectors = sampled
    characters) and annihilators (vectors = subgroup generators). Each vector
    cuts the current generator list by p-adic pivoting, so the list never
    grows beyond the register count.
    """
    dims = tuple(dims)
    p, L, exp_l, weights = _register(dims)
    gens: list[Register] = [
        tuple(1 if j == l else 0 for j in range(len(dims))) for l in range(len(dims))
    ]
    for c in dict.fromkeys(map(tuple, vectors)):  # a repeat pairs to 0 with gens
        cw = [cj * wt for cj, wt in zip(c, weights)]
        ds = [sum(map(mul, cw, w)) % L for w in gens]
        live = [l for l in range(len(gens)) if ds[l]]
        if not live:
            continue
        pivot = min(live, key=lambda l: (nt.p_valuation(ds[l], p)[0], l))
        v, u = nt.p_valuation(ds[pivot], p)
        modulus = p ** (exp_l - v)
        inv_u = nt.mod_inv(u, modulus)
        fresh: list[Register] = []
        for l, w in enumerate(gens):
            if l == pivot:
                continue
            if ds[l]:
                k = (ds[l] // p**v) * inv_u % modulus
                w = tuple(
                    (wj - k * pj) % n for wj, pj, n in zip(w, gens[pivot], dims)
                )
            if any(w):
                fresh.append(w)
        scaled = tuple(modulus * pj % n for pj, n in zip(gens[pivot], dims))
        if any(scaled):
            fresh.append(scaled)
        gens = fresh
    return gens


# ------------------------------------------------------------ domains


@dataclass(frozen=True)
class Domain:
    """A register Z_dims mapped linearly into the ambient group.

    Register coordinate j steps by axes[j] = (dx_j, dy_j), so u embeds as
    (sum_j u_j dx_j mod x_mod, sum_j u_j dy_j mod y_mod).
    """

    dims: Register
    axes: tuple[gr.Element, ...]
    name: str = ""

    def embed(self, group: gr.SemidirectGroup, u) -> gr.Element:
        x_mod, y_mod = group.x_mod, group.y_mod
        a = sum(c * (dx % x_mod) for c, (dx, _) in zip(u, self.axes)) % x_mod
        b = sum(c * (dy % y_mod) for c, (_, dy) in zip(u, self.axes)) % y_mod
        return a, b


def _shape(domain: Domain, y_mod: int) -> tuple[int, int, int, tuple[int, ...]]:
    """(n, s, n_v, kept) for a domain read as (u, v) -> x^(s u) y^v on
    Z_n x Z_n_v; kept lists which of (u, v) are register coordinates."""
    dims, axes = domain.dims, domain.axes
    if len(dims) == len(axes) == 1 and axes[0] == (0, 1) and y_mod % dims[0] == 0:
        return 1, 0, dims[0], (1,)
    if len(dims) == len(axes) == 1 and axes[0][1] == 0:
        return dims[0], axes[0][0], 1, (0,)
    if (
        len(dims) == len(axes) == 2
        and axes[0][1] == 0
        and axes[1] == (0, 1)
        and y_mod % dims[1] == 0
    ):
        return dims[0], axes[0][0], dims[1], (0, 1)
    raise PreconditionViolated(
        f"domain {domain.name!r}: no closed-form level sets for axes {domain.axes} "
        f"on dims {dims}"
    )


# ------------------------------------------------------------ sampling


@dataclass(frozen=True)
class CosetSupport:
    """Post-measurement support: the coset base + K of the register domain.

    The points are materialized from base and generators only when read.
    """

    dims: Register
    base: Register
    gens: tuple[Register, ...]  # generators of K, shared by every sample
    ann: tuple[Register, ...]  # generators of the annihilator of K

    @cached_property
    def points(self) -> frozenset:
        pts = {self.base}
        for g in self.gens:
            layer = pts
            while True:  # pts + k g for k = 1, 2, ... until it closes up
                layer = {_add(u, g, self.dims) for u in layer}
                if layer <= pts:
                    break
                pts |= layer
        return frozenset(pts)


def pullback(o, domain: Domain) -> CosetSupport:
    """K = embed^-1(H) as the support at base 0, read in closed form from the
    hidden table: one simulation evaluation per table row, no query."""
    n, s, n_v, kept = _shape(domain, o.group.y_mod)
    d, reps = o._sim_table()
    g = math.gcd(s, d)
    step = d // g  # the solutions u of s u == a (mod d) repeat with this period
    inv = pow(s // g, -1, step) if step > 1 else 0
    v0 = u1 = v1 = None
    for b, a in reps:  # sorted by b
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
    k_gens = tuple(tuple(pt[i] for i in kept) for pt in gens)
    dims = domain.dims
    return CosetSupport(dims, _zero(dims), k_gens, _annihilator(dims, k_gens))


@lru_cache(maxsize=None)
def _annihilator(dims: Register, k_gens: tuple[Register, ...]) -> tuple[Register, ...]:
    return tuple(dual_kernel(dims, k_gens))


def coset_sample(o, k: CosetSupport, rng) -> CosetSupport:
    """One superposed query + label measurement: costs exactly one query.

    k is the routine's pullback(o, domain); the sample is k shifted by a
    uniform base point.
    """
    base = tuple(rng.randrange(n) for n in k.dims)
    o.charge_superposition_query()
    return CosetSupport(k.dims, base, k.gens, k.ann)


def fourier_sample(s: CosetSupport, rng) -> Register:
    """One draw from the outcome law of the coset state s, uniform on the
    annihilator of K (reference.fourier_distribution derives it by summation).

    Summing uniform multiples of the annihilator generators is a surjective
    homomorphism from Z_L^k onto it, hence uniform.
    """
    dims = s.dims
    L = _register(dims)[1]
    c = [0] * len(dims)
    for g in s.ann:
        k = rng.randrange(L)
        for j, gj in enumerate(g):
            c[j] += k * gj
    return tuple(cj % n for cj, n in zip(c, dims))


# ------------------------------------------------------------ abelian HSP


def _probe_embedding(o, domain: Domain) -> None:
    """Cheap always-on precondition check: the hiding function must not see
    the difference between register addition and group multiplication.

    Holds both for genuine abelian subgroup embeddings and for sections of
    the abelianization quotient (where f factors through the quotient).
    """
    for prod, summed in _probe_points(o.group, domain.dims, domain.axes):
        if o._sim_eval(prod) != o._sim_eval(summed):
            raise PreconditionViolated(
                f"domain {domain.name!r}: embedding incompatible with the hiding function"
            )


@lru_cache(maxsize=None)
def _probe_points(gp: gr.SemidirectGroup, dims: Register, axes: tuple) -> tuple:
    """(embed(u) embed(w), embed(u + w)) for the probe's three pairs (u, w)."""
    embed = Domain(dims, axes).embed  # keyed by value: the cache keeps no Domain
    e0, elast = (1,) + (0,) * (len(dims) - 1), (0,) * (len(dims) - 1) + (1,)
    ones = (1,) * len(dims)
    return tuple((gr.mul(gp, embed(gp, u), embed(gp, w)), embed(gp, _add(u, w, dims)))
                 for u, w in ((e0, e0), (e0, elast), (ones, ones)))


def abelian_hsp(domain: Domain, o, rng) -> list[Register]:
    """Recover generators of {u : f(embed(u)) = f(embed(0))}, Las Vegas.

    Per attempt: ceil(log2 |domain|) + KAPPA character samples, kernel by
    p-adic elimination, then one verification query per kernel generator.
    The kernel always contains the hidden register subgroup K; it equals K
    iff every generator passes verification, so a wrong answer is impossible.
    At most RETRIES attempts, each counted on the oracle's meter.
    """
    dims = domain.dims
    _probe_embedding(o, domain)
    k = pullback(o, domain)
    n_samples = (math.prod(dims) - 1).bit_length() + KAPPA
    for attempt in range(1, RETRIES + 1):
        o.meter.attempt(attempt)
        chars = []
        for _ in range(n_samples):
            s = coset_sample(o, k, rng)
            chars.append(fourier_sample(s, rng))
        gens = dual_kernel(dims, chars)
        # embed(0) is the identity, which first_outside queries first
        if o.first_outside(domain.embed(o.group, g) for g in gens) is None:
            return [tuple(g) for g in gens]
    raise RetriesExhausted(f"abelian recovery failed after {RETRIES} attempts")
