"""Hiding-function oracles with strict query accounting.

An oracle holds a sealed hidden subgroup H and answers queries with opaque
labels satisfying f(g1) == f(g2) iff g1^-1 g2 in H (left cosets). The label
for g is the lexicographically least element of g*H in a-major order, packed
as a*p^2 + b; solvers must treat labels as equality-only tokens.

Accounting: query() and charge_superposition_query() bump query_count by one
each; _sim_eval() bumps simulation_cost instead (simulator-side work such as
domain scans, never visible to the algorithm being costed), and
_sim_eval_array() bumps it by the number of elements it labels.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import group as gr
from . import subgroup as sg
from .errors import TooLarge

ORACLE_GUARD = 2**24


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


class HidingOracle:
    """f hiding a subgroup of gp, evaluated via the transversal normal form.

    For g = (a, b) the coset g*H meets the y-slice b+rb at x-values
    a + alpha^b * (a_rb + d*u), i.e. a full residue class mod d, so the
    lex-least coset element is computed in O(|y-projection of H|).
    """

    def __init__(self, group: gr.SemidirectGroup, hidden_table: sg.SubgroupTable):
        if group.order > ORACLE_GUARD:
            raise TooLarge(f"group order {group.order} exceeds the 2^24 oracle guard")
        self.group = group
        self._hidden = hidden_table  # sealed: solvers must not read this
        self.query_count = 0
        self.simulation_cost = 0
        self._apow = gr._alpha_pows(group)
        self._apow_array = np.array(self._apow, dtype=np.int64)
        self._reps = hidden_table.reps
        self._d = hidden_table.x_step
        self._domain_views: dict = {}  # qsim.Domain -> its level-set scan

    def _label(self, g: gr.Element) -> Label:
        a, b = g
        apb = self._apow[b]
        d = self._d
        y_mod = self.group.y_mod
        best_a = best_b = None
        for rb, ra in self._reps:
            ca = (a + apb * ra) % d
            cb = (b + rb) % y_mod
            if best_a is None or ca < best_a or (ca == best_a and cb < best_b):
                best_a, best_b = ca, cb
        return Label(best_a * y_mod + best_b)

    def _label_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Packed labels of the elements (a[i], b[i]), equal to _label(g)._packed.

        Per rep (rb, ra) the candidate is ca * y_mod + cb with
        ca = (a + alpha^b * ra) % d and cb = (b + rb) % y_mod; the least
        candidate is the lex-least (ca, cb) because cb < y_mod. All but a % d
        depends on b alone, so it comes from a y_mod-entry table per rep, and
        the sum passes d * y_mod at most once. Every intermediate stays below
        x_mod^2 < 2^48 under the oracle guard, so int64 arithmetic is exact.
        """
        y_mod, d = self.group.y_mod, self._d
        wrap = d * y_mod
        a_part = a % d * y_mod
        ys = np.arange(y_mod)
        best = None
        for rb, ra in self._reps:
            table = self._apow_array * ra % d * y_mod + (ys + rb) % y_mod
            packed = a_part + table[b]
            packed -= wrap * (packed >= wrap)
            best = packed if best is None else np.minimum(best, packed, out=best)
        return best

    def query(self, g: gr.Element) -> Label:
        self.query_count += 1
        return self._label(g)

    def charge_superposition_query(self) -> None:
        """One oracle call made in superposition counts as one query."""
        self.query_count += 1

    def _sim_eval(self, g: gr.Element) -> Label:
        self.simulation_cost += 1
        return self._label(g)

    def _sim_eval_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.simulation_cost += len(a)
        return self._label_array(a, b)


def make_oracle(gp: gr.GroupParams, descriptor: sg.Descriptor) -> HidingOracle:
    return HidingOracle(gp, sg.table_for(gp, descriptor))


def make_oracle_from_generators(group: gr.SemidirectGroup, gens) -> HidingOracle:
    return HidingOracle(group, sg.SubgroupTable.from_generators(group, gens))


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
