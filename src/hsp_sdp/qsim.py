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
reads K = embed^-1(H) once per recovery routine, in closed form from H's
head (d, t, a_1) (subgroup module docstring) through the oracle's sealed
_sim_table accessor, charged as one simulation evaluation per row of H.
Every coset_sample of the routine then shifts K by a uniform base. The
solver and composite domains have one of the shapes

    (u,) -> x^(s u)      (v,) -> y^v      (u, v) -> x^(s u) y^v

and (s u, v) lies in H iff t divides v and s u == a_(v/t) (mod d), a_k the
x-offset of row k. When the level sets are cosets (below), K is generated by
(m0, 0), m0 = gcd(d / gcd(s, d), n), and (u*, v*) for the least p-power
multiple v* of t whose row has a least solution u* < n: at most two rows.
The generators follow the reference scan's rule, "the first point of K in C
order outside the span so far": (0, v0) with v0 = v* m0 / gcd(u*, m0) mod
n_v the least nonzero v in row u = 0 of K, if any, then (u1, v1) with
u1 = gcd(u*, m0) the least positive u of K's u-projection (which generates
it) and v1 = c v* mod n_v the least v in that row, c < m0 / u1 solving
c u* == u1 (mod m0). Any other shape raises PreconditionViolated.

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

A sample is a handful of RNG draws: coset_sample draws one base coordinate
per register and builds one CosetSupport sharing K's generators and
annihilator, and fourier_sample draws one multiplier per annihilator
generator straight into the one or two coordinates. At (3, 5) a sample pair
takes about 1.55 us on the x axis: the CosetSupport build 0.35 us and the
Fourier draw 0.4 us. On the abelian route's Z_27 x Z_9 the draw takes 0.6 us
for one annihilator generator and 0.9 us for two; the per-coordinate loop
took 1.3, 1.7 and 2.1 us (2-vCPU VM, Python 3.11).
dual_kernel is written out for both shapes: on Z_n the closed form
<n / gcd(n, c_1, ..., c_k)>, on Z_n0 x Z_n1 the p-adic elimination on at
most two generators, with p^v = gcd(d, L) and the inverse inline. Both
return the list of tests/reference.py's dual_kernel_loop (any register
count), in order. The 18 characters of an attempt on Z_27 x Z_9 take 4.0 us
(the loop 32.7 us), 24 on Z_625 x Z_25 4.5 us (54.1 us).

Three pure functions of frozen values are cached at module level, which is
exact: the probe's six points per (group, dims, axes), K's annihilator per
(dims, K generators) and _register's constants per dims. Labels, head reads
and their charges are not cached: every call evaluates, meters and can raise.

The test reference (tests/reference.py) labels every point with its
level_set_scan and checks the coset structure by brute force; the tests pin
the closed form against it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import group as gr
from . import numtheory as nt
from . import subgroup as sg
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
def _register(dims: Register) -> tuple[int, tuple[int, ...]]:
    """(L, L / n_j per coordinate) for a register of p-power dims, L = lcm."""
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
    return L, tuple(L // n for n in dims)


def dual_kernel(dims: Register, vectors) -> list[Register]:
    """Generators of {w : <w, v> == 0 (mod L) for every v in vectors}.

    The pairing is <w, v> = sum_j w_j v_j (L / n_j) with L = lcm(dims); it is
    symmetric, so this computes both character kernels (vectors = sampled
    characters) and annihilators (vectors = subgroup generators). On Z_n the
    kernel is <n / gcd(n, every c)>, empty when that is n. On Z_n0 x Z_n1
    each vector cuts the (at most two) generators by p-adic pivoting, as
    tests/reference.py's dual_kernel_loop does on any register: same list,
    same order. Other register counts raise ValueError.
    """
    dims = tuple(dims)
    L, weights = _register(dims)
    if len(dims) == 1:
        step = L // math.gcd(L, *(c for c, in vectors))
        return [(step,)] if step < L else []
    if len(dims) != 2:
        raise ValueError(f"dual_kernel takes one or two registers, not {len(dims)}")
    n0, n1 = dims
    w0, w1 = weights
    gens: list[Register] = [(1, 0), (0, 1)]
    for c0, c1 in vectors:  # a repeat pairs to 0 with every generator left: skipped
        a, b = c0 * w0, c1 * w1
        if len(gens) == 2:
            (e0, e1), (f0, f1) = gens
            de, df = (a * e0 + b * e1) % L, (a * f0 + b * f1) % L
            # the pivot e has the least p-valuation, gcd(de, L) = p^v; ties keep the first
            if df and (not de or math.gcd(df, L) < math.gcd(de, L)):
                e0, e1, de, f0, f1, df = f0, f1, df, e0, e1, de
            elif not de:
                continue
            g = math.gcd(de, L)
            modulus = L // g
            if df:
                k = df // g * pow(de // g, -1, modulus) % modulus
                f0, f1 = (f0 - k * e0) % n0, (f1 - k * e1) % n1
            gens = [(f0, f1)] if f0 or f1 else []
        else:
            (e0, e1), = gens
            de = (a * e0 + b * e1) % L
            if not de:
                continue
            modulus = L // math.gcd(de, L)
            gens = []
        s0, s1 = modulus * e0 % n0, modulus * e1 % n1
        if s0 or s1:
            gens.append((s0, s1))
        elif not gens:  # the kernel is 0: no later vector changes it
            break
    return gens


# ------------------------------------------------------------ domains


class Domain(NamedTuple):
    """A register Z_dims mapped linearly into the ambient group.

    Register coordinate j steps by axes[j] = (dx_j, dy_j), so u embeds as
    (sum_j u_j dx_j mod x_mod, sum_j u_j dy_j mod y_mod).
    """

    dims: Register
    axes: tuple[gr.Element, ...]
    name: str = ""

    def embed(self, group: gr.SemidirectGroup, u) -> gr.Element:
        """u's image; u may hold int64 arrays (tests/reference.py's scan).
        One and two coordinates are written out, the same sums as
        tests/reference.py's embed_loop; other lengths raise ValueError."""
        x_mod, y_mod = group.x_mod, group.y_mod
        if len(self.axes) == 1:
            (dx, dy), = self.axes
            c, = u
            return c * (dx % x_mod) % x_mod, c * (dy % y_mod) % y_mod
        (dx0, dy0), (dx1, dy1) = self.axes
        c0, c1 = u
        return ((c0 * (dx0 % x_mod) + c1 * (dx1 % x_mod)) % x_mod,
                (c0 * (dy0 % y_mod) + c1 * (dy1 % y_mod)) % y_mod)


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


class CosetSupport(NamedTuple):
    """Post-measurement support: the coset base + K of the register domain,
    kept as base and generators (tests/reference.py lists its points)."""

    dims: Register
    base: Register
    gens: tuple[Register, ...]  # generators of K, shared by every sample
    ann: tuple[Register, ...]  # generators of the annihilator of K


def pullback(o, domain: Domain) -> CosetSupport:
    """K = embed^-1(H) as the support at base 0, read in closed form from
    H's head: one simulation evaluation per row of H, no query."""
    n, s, n_v, kept = _shape(domain, o.group.y_mod)
    d, t, _ = head = o._sim_table()
    row = sg._rows(o.group, head)
    g = math.gcd(s, d)
    step = d // g  # the solutions u of s u == a (mod d) repeat with this period
    inv = pow(s // g, -1, step)  # 0 when step == 1
    m0 = math.gcd(step, n)  # K meets the u axis in <m0>
    u_star = v_star = 0  # K's v-projection is <v_star>, reached at u_star
    v = t
    while v < n_v:
        a = row(v // t)
        if a % g == 0 and (u := a // g * inv % step) < n:  # u: least solution
            u_star, v_star = u, v
            break
        v *= o.group.p
    u1 = math.gcd(u_star, m0)
    v0 = v_star * (m0 // u1) % n_v
    gens = [(0, v0)] if v0 else []
    if u1 < n:
        gens.append((u1, pow(u_star // u1, -1, m0 // u1) * v_star % n_v))
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
    base = tuple(map(rng.randrange, k.dims))
    o.charge_superposition_query()
    return CosetSupport(k.dims, base, k.gens, k.ann)


def fourier_sample(s: CosetSupport, rng) -> Register:
    """One draw from the outcome law of the coset state s, uniform on the
    annihilator of K (tests/reference.py's fourier_distribution derives it
    by summation).

    Summing uniform multiples of the annihilator generators is a surjective
    homomorphism from Z_L^k onto it, hence uniform. Two closed forms add it
    into Z_n (L = n) or Z_n0 x Z_n1 (L the larger: both are powers of p), one
    randrange(L) per generator in order, draw for draw as tests/reference.py's
    fourier_sample_loop: no draw when K is the whole register.
    """
    dims = s.dims
    if len(dims) == 1:
        n, = dims
        c = 0
        for g, in s.ann:
            c += rng.randrange(n) * g
        return (c % n,)
    n0, n1 = dims
    L = n0 if n0 >= n1 else n1  # p-power dims: the lcm is the larger
    c0 = c1 = 0
    for g0, g1 in s.ann:
        k = rng.randrange(L)
        c0 += k * g0
        c1 += k * g1
    return (c0 % n0, c1 % n1)


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
