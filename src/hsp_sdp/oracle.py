"""Hiding-function oracles with strict query accounting.

An oracle holds a sealed hidden subgroup H and answers queries with opaque
labels satisfying f(g1) == f(g2) iff g1^-1 g2 in H (left cosets). The label
for g is the least element of g*H in b-major order (least y-value first, then
least x-value), packed as a*p^2 + b. From H's head (d, s, a_1) it is
(a - alpha^r0 * a_k mod d, r0) for g = (a, b), (k, r0) = divmod(b, s) and a_k
the x-offset of row k, so O(1); solvers must treat labels as equality-only tokens.

Accounting: every oracle owns one Meter, and every cost a report gives is a
difference of two readings of it. query() and charge_superposition_query()
count one query each. Simulator-side work, never visible to the algorithm
being costed, counts as simulation evaluations instead: _sim_table() one per
row of H for the head it hands to qsim or the reference scan, and
_sim_eval() one per label. Membership checks go through first_outside(gens):
one query for the identity, then one per element until the first one
outside H. Las Vegas loops call meter.attempt(k) once per attempt.

Labels and queries work on Python ints at any group size; the int64 array
labelling of the test reference's scan (label_array in tests/reference.py)
has its own guard.
"""

from __future__ import annotations

import itertools

from . import group as gr
from . import subgroup as sg
from .errors import TooLarge


class Label:
    """Opaque coset token: equality and hashing only."""

    __slots__ = ("_packed",)

    def __init__(self, packed: int):
        self._packed = packed

    def __eq__(self, other):
        return isinstance(other, Label) and self._packed == other._packed

    def __hash__(self):
        return hash(self._packed)

    def __repr__(self):
        return f"Label({self._packed})"


class Meter:
    """Costs charged to one oracle: queries, simulation evaluations, and the
    Las Vegas attempts and retries of the routines that ran on it."""

    __slots__ = ("queries", "sim_evals", "iterations", "retries")

    def __init__(self, queries: int = 0, sim_evals: int = 0,
                 iterations: int = 0, retries: int = 0):
        self.queries = queries
        self.sim_evals = sim_evals
        self.iterations = iterations
        self.retries = retries

    def __eq__(self, other):
        if type(other) is not Meter:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)}" for k in self.__slots__)
        return f"Meter({fields})"

    def attempt(self, k: int) -> None:
        """Count attempt number k (from 1); every attempt after the first is a retry."""
        self.iterations += 1
        if k > 1:
            self.retries += 1

    def __sub__(self, before: "Meter") -> "Meter":
        return Meter(
            self.queries - before.queries,
            self.sim_evals - before.sim_evals,
            self.iterations - before.iterations,
            self.retries - before.retries,
        )


class HidingOracle:
    """f hiding a subgroup H of gp, evaluated from H's head (d, s, a_1): the
    y-values of g*H are b + s*Z, and g*H meets the least, r0, in the coset
    g*h^-k*<x^d>, h = (a_1, s), whose x-values are a - alpha^r0 * a_k mod d."""

    def __init__(self, group: gr.SemidirectGroup, head: tuple[int, int, int]):
        self.group = group
        self.meter = Meter()
        # sealed: only _label and _sim_table read the head
        self._d, self._s, _ = self._head = head
        self._row = sg._rows(group, head)

    def _label(self, g: gr.Element) -> Label:
        a, b = g
        k, r0 = divmod(b, self._s)
        gp = self.group
        return Label((a - pow(gp.alpha, r0, gp.x_mod) * self._row(k)) % self._d * gp.y_mod + r0)

    def query(self, g: gr.Element) -> Label:
        self.meter.queries += 1
        return self._label(g)

    def first_outside(self, gens):
        """First element of gens outside H, or None: queries the identity, then
        each element in order up to the first whose label differs."""
        reference = self.query(gr.IDENTITY)
        for g in gens:
            if self.query(g) != reference:
                return g
        return None

    def charge_superposition_query(self) -> None:
        """One oracle call made in superposition counts as one query."""
        self.meter.queries += 1

    def _sim_table(self) -> tuple[int, int, int]:
        """H's head (d, s, a_1) for qsim, one simulation evaluation per row of H."""
        self.meter.sim_evals += self.group.y_mod // self._s
        return self._head

    def _sim_eval(self, g: gr.Element) -> Label:
        self.meter.sim_evals += 1
        return self._label(g)


def make_oracle(gp: gr.GroupParams, descriptor: sg.Descriptor) -> HidingOracle:
    return HidingOracle(gp, sg.descriptor_head(gp, descriptor))


def make_oracle_from_generators(group: gr.SemidirectGroup, gens) -> HidingOracle:
    return HidingOracle(group, sg._head(group, gens))


def brute_force_recover(o: HidingOracle) -> sg.SubgroupSet:
    """{g : f(g) = f(identity)} by querying every group element."""
    group = o.group
    if group.order > sg.BRUTE_FORCE_GUARD:
        raise TooLarge(f"group order {group.order} exceeds 2^20 brute force guard")
    target = None
    matched = []
    for g in itertools.product(range(group.x_mod), range(group.y_mod)):
        label = o.query(g)
        if target is None:  # first iterate is the identity
            target = label
        if label == target:
            matched.append(g)
    return frozenset(matched)
