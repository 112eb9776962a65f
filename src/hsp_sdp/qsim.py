"""Exact simulation of the quantum subroutines.

The state preparation + measurement cycle of every routine in the solver is:
prepare a uniform superposition over an embedded register domain, query the
hiding oracle once, measure the label register (collapsing the state to a
uniform coset of the level-set subgroup K), apply the product-of-cyclic-QFTs,
and measure. Classically that is:

    coset_sample     draw the post-collapse support (a coset of K)
    fourier_sample   draw one Fourier outcome (uniform on the annihilator)

The level sets behind coset_sample come from one array pass per (oracle,
domain): the domain's embed is evaluated on int64 index arrays covering the
whole register (C order) and the oracle labels them all at once. Every embed
must therefore work elementwise on arrays as well as on tuples of ints (see
Domain); the scan checks the two agree at a few points.

Outcome probabilities are exact rationals: for a coset support the Fourier
amplitude at character c is a root-of-unity sum that is either |S| (character
trivial on K) or sweeps a nontrivial cyclic subgroup of phases uniformly and
cancels to exactly zero. fourier_distribution performs that direct summation
with integer phase bookkeeping; dense_reference_distribution redoes it with
complex-double matrices as an independent floating-point cross-check.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from typing import Callable, NamedTuple

import numpy as np

from . import group as gr
from . import numtheory as nt
from .errors import (
    DimensionMismatch,
    PreconditionViolated,
    RetriesExhausted,
    TooLarge,
)

#: extra character samples beyond log2(|domain|) per recovery attempt
KAPPA = 10
#: Las Vegas retry budget
RETRIES = 20

COSET_GUARD = 2**20
DENSE_GUARD = 2**14
#: below this domain size every level set is verified to be a coset in full
FULL_VALIDATE_LIMIT = 4096

Register = tuple[int, ...]


def _zero(dims: Register) -> Register:
    return (0,) * len(dims)


def _add(u: Register, v: Register, dims: Register) -> Register:
    return tuple((a + b) % n for a, b, n in zip(u, v, dims))


def _scale(k: int, u: Register, dims: Register) -> Register:
    return tuple(k * a % n for a, n in zip(u, dims))


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


def _single_prime(dims: Register) -> int:
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
    return p


def dual_kernel(dims: Register, vectors) -> list[Register]:
    """Generators of {w : <w, v> == 0 (mod L) for every v in vectors}.

    The pairing is <w, v> = sum_j w_j v_j (L / n_j) with L = lcm(dims); it is
    symmetric, so this computes both character kernels (vectors = sampled
    characters) and annihilators (vectors = subgroup generators). Each vector
    cuts the current generator list by p-adic pivoting, so the list never
    grows beyond the register count.
    """
    dims = tuple(dims)
    p = _single_prime(dims)
    L = math.lcm(*dims)
    exp_l = nt.p_valuation(L, p)[0]
    weights = [L // n for n in dims]
    gens: list[Register] = [
        tuple(1 if j == l else 0 for j in range(len(dims))) for l in range(len(dims))
    ]
    for c in vectors:
        ds = [
            sum(cj * wj * wt for cj, wj, wt in zip(c, w, weights)) % L for w in gens
        ]
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


@dataclass(eq=False)
class Domain:
    """An embedded register domain: dims plus a map into the ambient group.

    Embed contract: embed(pt) takes a register point as a tuple of Python
    ints and returns the group element (a, b). The level-set scan also calls
    it once with a tuple of int64 arrays (every register point, C order) and
    expects the elementwise result: arrays, or constants that broadcast. Plain
    `*`, `+`, `-`, `%` and constant arithmetic meets this; the scan compares
    the two forms at a few points and raises PreconditionViolated on a
    mismatch.

    Identity-keyed on purpose: the per-oracle level-set scan is cached per
    (oracle, domain object), so reusing one Domain across samples costs one
    scan total.
    """

    dims: Register
    embed: Callable[[Register], gr.Element]
    name: str = ""


class _DomainView(NamedTuple):
    labels: np.ndarray  # level-set label of every register point, C order
    k_gens: tuple[Register, ...]


def _point(flat: int, dims: Register) -> Register:
    return tuple(int(c) for c in np.unravel_index(flat, dims))


def _embed_array(domain: Domain, coords) -> tuple[np.ndarray, np.ndarray]:
    """domain.embed over every register point at once, checked against the
    scalar embed at the zero point, each unit vector and the last point."""
    dims = domain.dims
    size = coords[0].size
    a, b = (
        np.broadcast_to(np.asarray(v, dtype=np.int64), (size,))
        for v in domain.embed(coords)
    )
    probes = [0, size - 1] + [math.prod(dims[j + 1:]) for j in range(len(dims))]
    for flat in probes:
        pt = _point(flat, dims)
        if tuple(domain.embed(pt)) != (int(a[flat]), int(b[flat])):
            raise PreconditionViolated(
                f"domain {domain.name!r}: embed on arrays disagrees with embed{pt}"
            )
    return a, b


def _span_mask(dims: Register, coords, gens) -> np.ndarray:
    """Membership in span(gens): <u, w> == 0 (mod L) for every w in the
    annihilator dual_kernel(dims, gens) (the double annihilator is the span)."""
    L = math.lcm(*dims)
    mask = np.ones(coords[0].size, dtype=bool)
    for w in dual_kernel(dims, gens):
        pairing = sum(c * (wj * (L // n) % L) for c, wj, n in zip(coords, w, dims))
        mask &= pairing % L == 0
    return mask


def _domain_view(o, domain: Domain) -> _DomainView:
    cached = o._domain_views.get(id(domain))
    if cached is not None and cached[0] is domain:
        return cached[1]
    dims = domain.dims
    coords = np.unravel_index(np.arange(math.prod(dims)), dims)
    labels = o._sim_eval_array(*_embed_array(domain, coords))
    # K generators: repeatedly the first point of K, in sorted (= C) order,
    # outside the span of the generators so far.
    in_k = labels == labels[0]
    k_gens: list[Register] = []
    while True:
        span = _span_mask(dims, coords, k_gens)
        outside = in_k & ~span
        if not outside.any():
            break
        k_gens.append(_point(int(np.argmax(outside)), dims))
    if np.any(span != in_k):
        raise PreconditionViolated(
            f"identity level set of domain {domain.name!r} is not a register subgroup"
        )
    k_size = int(np.count_nonzero(in_k))
    _, counts = np.unique(labels, return_counts=True)
    if np.any(counts != k_size):
        raise PreconditionViolated(
            f"level sets of domain {domain.name!r} have unequal sizes"
        )
    if labels.size <= FULL_VALIDATE_LIMIT:
        # rows: the points of one level set, in C order. A row less its first
        # point is |K| distinct points, so it equals K iff it lies in K.
        rows = np.argsort(labels, kind="stable").reshape(-1, k_size)
        shifted = [(c[rows] - c[rows[:, :1]]) % n for c, n in zip(coords, dims)]
        if not np.all(span[np.ravel_multi_index(shifted, dims)]):
            raise PreconditionViolated(
                f"a level set of domain {domain.name!r} is not a coset of K"
            )
    view = _DomainView(labels=labels, k_gens=tuple(k_gens))
    o._domain_views[id(domain)] = (domain, view)
    return view


# ------------------------------------------------------------ sampling


@dataclass(frozen=True)
class CosetSupport:
    """Post-measurement support: a coset base + K of the register domain.

    `labels` are the level-set labels of the whole domain in C order; the
    support is the level set of `base`, materialized only when read.
    """

    dims: Register
    base: Register
    gens: tuple[Register, ...]  # generators of K, shared by every sample
    labels: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def points(self) -> frozenset:
        flat = np.ravel_multi_index(self.base, self.dims)
        members = np.flatnonzero(self.labels == self.labels[flat])
        coords = np.unravel_index(members, self.dims)
        return frozenset(zip(*(c.tolist() for c in coords)))


def coset_sample(o, domain: Domain, rng) -> CosetSupport:
    """One superposed query + label measurement: costs exactly one query.

    The first call per (oracle, domain) runs the level-set scan: one array
    pass of the embed and the label function over the whole domain, counted
    as |domain| simulation evaluations. Later calls reuse the cached scan.
    """
    if math.prod(domain.dims) > COSET_GUARD:
        raise TooLarge(f"domain size {math.prod(domain.dims)} exceeds 2^20 guard")
    view = _domain_view(o, domain)
    base = tuple(rng.randrange(n) for n in domain.dims)
    o.charge_superposition_query()
    return CosetSupport(dims=domain.dims, base=base, gens=view.k_gens, labels=view.labels)


def _level_sets(view: _DomainView, dims: Register) -> list[CosetSupport]:
    """One support per level set, ordered by least point."""
    _, firsts = np.unique(view.labels, return_index=True)
    return [
        CosetSupport(dims=dims, base=_point(f, dims), gens=view.k_gens, labels=view.labels)
        for f in np.sort(firsts)
    ]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact measurement distribution: outcome tuple -> Fraction, zero omitted."""

    dims: Register
    probs: dict

    def prob(self, outcome) -> Fraction:
        return self.probs.get(tuple(outcome), Fraction(0))

    def sample(self, rng) -> Register:
        denom = math.lcm(*(p.denominator for p in self.probs.values()))
        k = rng.randrange(denom)
        acc = 0
        for outcome, p in self.probs.items():
            acc += int(p * denom)
            if k < acc:
                return outcome
        raise AssertionError("probabilities must sum to 1")


def fourier_distribution(s: CosetSupport, dims) -> OutcomeDistribution:
    """Direct amplitude summation over the support, exact rationals.

    For each outcome the root-of-unity phases are either all zero relative to
    the base point (probability |S| / |domain|) or sweep a nontrivial cyclic
    phase subgroup uniformly (amplitude exactly zero); anything else means the
    support was not a coset and is reported loudly.
    """
    dims = tuple(dims)
    if dims != s.dims:
        raise DimensionMismatch(f"support dims {s.dims} vs requested {dims}")
    L = math.lcm(*dims)
    weights = [L // n for n in dims]
    pts = sorted(s.points)
    size = len(pts)
    n_total = math.prod(dims)
    hit = Fraction(size, n_total)
    probs: dict = {}
    for c in itertools.product(*(range(n) for n in dims)):
        phases = [
            sum(cj * uj * wj for cj, uj, wj in zip(c, u, weights)) % L for u in pts
        ]
        rel = Counter((v - phases[0]) % L for v in phases)
        if set(rel) == {0}:
            probs[c] = hit
            continue
        g = reduce(math.gcd, rel.keys(), L)
        cycle = list(range(0, L, g))
        if set(rel) != set(cycle) or set(rel.values()) != {size // len(cycle)}:
            raise AssertionError("support phases are not a uniform phase subgroup")
    if sum(probs.values()) != 1:
        raise AssertionError("outcome probabilities must sum to exactly 1")
    return OutcomeDistribution(dims=dims, probs=probs)


def fourier_sample(s: CosetSupport, dims, rng) -> Register:
    """One draw from fourier_distribution(s) without materializing it.

    The outcome law is uniform on the annihilator of K; summing uniform
    multiples of the annihilator generators is a surjective homomorphism from
    Z_L^k onto it, hence uniform.
    """
    dims = tuple(dims)
    if dims != s.dims:
        raise DimensionMismatch(f"support dims {s.dims} vs requested {dims}")
    ann = dual_kernel(dims, s.gens)
    L = math.lcm(*dims)
    c = _zero(dims)
    for g in ann:
        c = _add(c, _scale(rng.randrange(L), g, dims), dims)
    return c


# ------------------------------------------------------------ dense reference


def dense_reference_distribution(o, domain: Domain) -> dict:
    """Floating-point cross-check: full state vector + QFT matrices.

    Returns {outcome: probability} as floats; mixes the post-measurement
    branches by their label probabilities.
    """
    dims = domain.dims
    n_total = math.prod(dims)
    if n_total > DENSE_GUARD:
        raise TooLarge(f"domain size {n_total} exceeds 2^14 dense guard")
    view = _domain_view(o, domain)
    mats = []
    for n in dims:
        idx = np.arange(n)
        mats.append(np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n))
    out = np.zeros(dims, dtype=float)
    for s in _level_sets(view, dims):
        pts = s.points
        amp = np.zeros(dims, dtype=complex)
        a0 = 1.0 / math.sqrt(len(pts))
        for pt in pts:
            amp[pt] = a0
        for axis in range(len(dims)):
            amp = np.moveaxis(
                np.tensordot(mats[axis], amp, axes=([1], [axis])), 0, axis
            )
        out += (np.abs(amp) ** 2) * (len(pts) / n_total)
    return {tuple(map(int, idx)): float(out[idx]) for idx in np.ndindex(*dims)}


def branch_mixture_distribution(o, domain: Domain) -> OutcomeDistribution:
    """Exact mixture over all level sets: sum_labels P(label) P(outcome|label)."""
    view = _domain_view(o, domain)
    dims = domain.dims
    n_total = math.prod(dims)
    acc: dict = {}
    for s in _level_sets(view, dims):
        dist = fourier_distribution(s, dims)
        weight = Fraction(len(s.points), n_total)
        for c, p in dist.probs.items():
            acc[c] = acc.get(c, Fraction(0)) + weight * p
    return OutcomeDistribution(dims=dims, probs=acc)


def total_variation(exact: OutcomeDistribution, dense: dict) -> float:
    keys = set(exact.probs) | set(dense)
    return 0.5 * sum(
        abs(float(exact.prob(k)) - dense.get(k, 0.0)) for k in keys
    )


# ------------------------------------------------------------ abelian HSP


def _probe_embedding(o, domain: Domain) -> None:
    """Cheap always-on precondition check: the hiding function must not see
    the difference between register addition and group multiplication.

    Holds both for genuine abelian subgroup embeddings and for sections of
    the abelianization quotient (where f factors through the quotient).
    """
    dims = domain.dims
    e0 = tuple(1 if j == 0 else 0 for j in range(len(dims)))
    elast = tuple(1 if j == len(dims) - 1 else 0 for j in range(len(dims)))
    ones = (1,) * len(dims)
    for u, w in ((e0, e0), (e0, elast), (ones, ones)):
        lhs = o._sim_eval(gr.mul(o.group, domain.embed(u), domain.embed(w)))
        rhs = o._sim_eval(domain.embed(_add(u, w, dims)))
        if lhs != rhs:
            raise PreconditionViolated(
                f"domain {domain.name!r}: embedding incompatible with the hiding function"
            )


def abelian_hsp(
    dims,
    embed: Callable[[Register], gr.Element],
    o,
    rng,
    kappa: int = KAPPA,
    retries: int = RETRIES,
    stats: dict | None = None,
) -> list[Register]:
    """Recover generators of {u : f(embed(u)) = f(embed(0))}, Las Vegas.

    Per attempt: ceil(log2 |domain|) + kappa character samples, kernel by
    p-adic elimination, then one verification query per kernel generator.
    The kernel always contains the hidden register subgroup K; it equals K
    iff every generator passes verification, so a wrong answer is impossible.
    """
    dims = tuple(dims)
    domain = Domain(dims, embed, name="abelian-hsp")
    _probe_embedding(o, domain)
    n_samples = (math.prod(dims) - 1).bit_length() + kappa
    zero = _zero(dims)
    for attempt in range(1, retries + 1):
        if stats is not None:
            stats["iterations"] = stats.get("iterations", 0) + 1
            if attempt > 1:
                stats["retries"] = stats.get("retries", 0) + 1
        chars = []
        for _ in range(n_samples):
            s = coset_sample(o, domain, rng)
            chars.append(fourier_sample(s, dims, rng))
        gens = dual_kernel(dims, chars)
        reference = o.query(domain.embed(zero))
        if all(o.query(domain.embed(g)) == reference for g in gens):
            return [tuple(g) for g in gens]
    raise RetriesExhausted(f"abelian recovery failed after {retries} attempts")
