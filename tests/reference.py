"""Reference simulation that only tests and demo 03 run; the package
neither ships nor imports it.

The solver samples cosets of K = embed^-1(H) read in closed form from the
hidden table (`qsim.pullback`). This module keeps the independent
references that closed form is checked against:

    points                        the register points of a coset support
    label_array                   the oracle's label rule on int64 arrays
    level_set_scan                labels every register point with it, reads
                                  K off the identity level set and validates
                                  that every level set is a coset of K
    fourier_distribution          exact outcome law of one coset state, by
                                  direct root-of-unity summation
    fourier_sample_loop           qsim.fourier_sample's general loop, which
                                  its one-register closed form must match
                                  draw for draw
    branch_mixture_distribution   exact mixture over every level set
    dense_reference_distribution  the same mixture from complex-double state
                                  vectors and QFT matrices
    total_variation               distance between an exact and a dense law

The scan evaluates `Domain.embed` on int64 index arrays covering the whole
register (C order). That is exact under its guards: u_j < 2^20 (COSET_GUARD)
and dx_j is reduced below x_mod, and label_array refuses groups above
LABEL_GUARD, so each term is below 2^44 and a sum of at most 20 terms below
2^49.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

import numpy as np

from hsp_sdp import group as gr
from hsp_sdp import subgroup as sg
from hsp_sdp.errors import PreconditionViolated, TooLarge
from hsp_sdp.qsim import CosetSupport, Domain, Register, _add, dual_kernel

from helpers import register_span

COSET_GUARD = 2**20
DENSE_GUARD = 2**14
#: group-order guard of label_array's int64 arithmetic
LABEL_GUARD = 2**24


class Scan(NamedTuple):
    labels: np.ndarray  # level-set label of every register point, C order
    k_gens: tuple[Register, ...]
    ann: tuple[Register, ...]  # dual_kernel(dims, k_gens)


def points(s: CosetSupport) -> frozenset:
    """The coset s as a set of register points: its base plus K."""
    return frozenset(_add(s.base, k, s.dims) for k in register_span(s.dims, s.gens))


def _point(flat: int, dims: Register) -> Register:
    return tuple(int(c) for c in np.unravel_index(flat, dims))


def _span_mask(dims: Register, coords, ann) -> np.ndarray:
    """Membership in span(gens) given ann = dual_kernel(dims, gens):
    <u, w> == 0 (mod L) for every w in ann (the double annihilator is the span)."""
    L = math.lcm(*dims)
    mask = np.ones(coords[0].size, dtype=bool)
    for w in ann:
        pairing = sum(c * (wj * (L // n) % L) for c, wj, n in zip(coords, w, dims))
        mask &= pairing % L == 0
    return mask


def label_array(o, a, b) -> np.ndarray:
    """Packed labels of the elements (a[i], b[i]) of o.group, by
    HidingOracle._label's one-row rule on the head that o._sim_table() reads,
    so charged as one head read. alpha^r0 * a_k stays below x_mod * d <=
    x_mod^2 < 2^48 under LABEL_GUARD, so int64 arithmetic is exact; larger
    groups raise TooLarge.
    """
    gp = o.group
    if gp.order > LABEL_GUARD:
        raise TooLarge(f"group order {gp.order} exceeds the 2^24 array guard")
    d, s, _ = head = o._sim_table()
    row = sg._rows(gp, head)
    k, r0 = np.divmod(b, s)
    a_k = np.array([row(j) for j in range(gp.y_mod // s)], dtype=np.int64)[k]
    apow = np.array(gr.alpha_powers(gp), dtype=np.int64)[r0]
    return (a - apow * a_k) % d * gp.y_mod + r0


def level_set_scan(o, domain: Domain) -> Scan:
    """Label every point of the domain and read K off the identity level set.

    Charged as one head read (y_mod / s simulation evaluations), like
    qsim.pullback; on a composite FactorOracle that is the p-part head, whose
    labels split the factor group as the parent's do. Raises
    PreconditionViolated unless the identity level set is a register subgroup
    and every level set is a coset of it, at every size COSET_GUARD admits.
    """
    dims = domain.dims
    if math.prod(dims) > COSET_GUARD:
        raise TooLarge(f"domain size {math.prod(dims)} exceeds 2^20 guard")
    coords = np.unravel_index(np.arange(math.prod(dims)), dims)
    labels = label_array(o, *domain.embed(o.group, coords))
    # K generators: repeatedly the first point of K, in sorted (= C) order,
    # outside the span of the generators so far.
    in_k = labels == labels[0]
    k_gens: list[Register] = []
    while True:
        ann = dual_kernel(dims, k_gens)
        span = _span_mask(dims, coords, ann)
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
    # rows: the points of one level set, in C order. A row less its first
    # point is |K| distinct points, so it equals K iff it lies in K.
    rows = np.argsort(labels, kind="stable").reshape(-1, k_size)
    shifted = [(c[rows] - c[rows[:, :1]]) % n for c, n in zip(coords, dims)]
    if not np.all(span[np.ravel_multi_index(shifted, dims)]):
        raise PreconditionViolated(
            f"a level set of domain {domain.name!r} is not a coset of K"
        )
    return Scan(labels=labels, k_gens=tuple(k_gens), ann=tuple(ann))


def _level_set_firsts(scan: Scan) -> np.ndarray:
    """Least flat index of every level set, ascending."""
    _, firsts = np.unique(scan.labels, return_index=True)
    return np.sort(firsts)


def _level_sets(scan: Scan, dims: Register) -> list[CosetSupport]:
    """One support per level set, ordered by least point."""
    return [
        CosetSupport(dims, _point(f, dims), scan.k_gens, scan.ann)
        for f in _level_set_firsts(scan)
    ]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact measurement distribution: outcome tuple -> Fraction, zero omitted."""

    dims: Register
    probs: dict

    def prob(self, outcome) -> Fraction:
        return self.probs.get(tuple(outcome), Fraction(0))


def fourier_distribution(s: CosetSupport) -> OutcomeDistribution:
    """Direct amplitude summation over the support, exact rationals.

    For each outcome the root-of-unity phases are either all zero relative to
    the base point (probability |S| / |domain|) or sweep a nontrivial cyclic
    phase subgroup uniformly (amplitude exactly zero); anything else means the
    support was not a coset and is reported loudly.
    """
    dims = s.dims
    L = math.lcm(*dims)
    weights = [L // n for n in dims]
    pts = sorted(points(s))
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


def fourier_sample_loop(s: CosetSupport, rng) -> Register:
    """One Fourier outcome by the per-coordinate loop on every register: one
    randrange(L) per annihilator generator, L = lcm(dims)."""
    dims = s.dims
    L = math.lcm(*dims)
    c = [0] * len(dims)
    for g in s.ann:
        k = rng.randrange(L)
        for j, gj in enumerate(g):
            c[j] += k * gj
    return tuple(cj % n for cj, n in zip(c, dims))


def dense_reference_distribution(o, domain: Domain) -> dict:
    """Floating-point cross-check: full state vector + QFT matrices.

    Returns {outcome: probability} as floats; mixes the post-measurement
    branches by their label probabilities. Each branch is the level set as
    the scan labelled it, not a coset built from K's generators.
    """
    dims = domain.dims
    n_total = math.prod(dims)
    if n_total > DENSE_GUARD:
        raise TooLarge(f"domain size {n_total} exceeds 2^14 dense guard")
    scan = level_set_scan(o, domain)
    mats = []
    for n in dims:
        idx = np.arange(n)
        mats.append(np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n))
    out = np.zeros(dims, dtype=float)
    for f in _level_set_firsts(scan):
        members = np.flatnonzero(scan.labels == scan.labels[f])
        amp = np.zeros(n_total, dtype=complex)
        amp[members] = 1.0 / math.sqrt(members.size)
        amp = amp.reshape(dims)
        for axis in range(len(dims)):
            amp = np.moveaxis(
                np.tensordot(mats[axis], amp, axes=([1], [axis])), 0, axis
            )
        out += (np.abs(amp) ** 2) * (members.size / n_total)
    return {tuple(map(int, idx)): float(out[idx]) for idx in np.ndindex(*dims)}


def branch_mixture_distribution(o, domain: Domain) -> OutcomeDistribution:
    """Exact mixture over all level sets: sum_labels P(label) P(outcome|label)."""
    dims = domain.dims
    n_total = math.prod(dims)
    acc: dict = {}
    for s in _level_sets(level_set_scan(o, domain), dims):
        dist = fourier_distribution(s)
        weight = Fraction(len(points(s)), n_total)
        for c, p in dist.probs.items():
            acc[c] = acc.get(c, Fraction(0)) + weight * p
    return OutcomeDistribution(dims=dims, probs=acc)


def total_variation(exact: OutcomeDistribution, dense: dict) -> float:
    keys = set(exact.probs) | set(dense)
    return 0.5 * sum(
        abs(float(exact.prob(k)) - dense.get(k, 0.0)) for k in keys
    )
