"""Coprime-factor reduction for hidden subgroups of Z_N x| Z_(p^2).

When N = p^r * q_2 * ... * q_k with every q_i a prime power coprime to p
and untouched by the twist, the group is a direct product of the p-part
semidirect factor and cyclic abelian factors. A subgroup of a direct
product of coprime-order factors always splits along the factors, so the
hidden subgroup is recovered one factor at a time and recombined by CRT.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import group as gr
from . import numtheory as nt
from . import qsim
from . import solver
from . import subgroup as sg
from .errors import (
    InvalidPrime,
    NotInvertible,
    PreconditionViolated,
    RTooSmall,
    VerificationFailed,
)


@dataclass(frozen=True)
class CompositeParams:
    N: int
    p: int
    alpha: int
    factorization: tuple  # sorted ((prime, exponent), ...)


@dataclass(frozen=True)
class AbelianFactor:
    prime: int
    exponent: int
    modulus: int  # prime ** exponent
    crt_unit: int  # 1 mod modulus, 0 mod N / modulus


@dataclass(frozen=True)
class FactorDecomposition:
    params: CompositeParams
    parent: gr.SemidirectGroup
    semidirect: gr.GroupParams
    p_crt_unit: int
    abelian: tuple


def _crt_unit(N: int, q: int) -> int:
    rest = N // q
    return rest * nt.mod_inv(rest % q, q) % N


def make_composite(N: int, p: int, alpha: int) -> CompositeParams:
    """Validate a composite instance N = p^r * (coprime part), r > 4.

    Requires p odd prime, p not dividing q - 1 for any other prime q of N
    (so every unit of order dividing p^2 is trivial on the coprime part),
    and alpha a unit mod N of order dividing p^2.
    """
    if not nt.is_prime(p) or p == 2:
        raise InvalidPrime(f"p = {p} must be an odd prime")
    factors = nt.factorize(N)
    r1 = factors.get(p, 0)
    if r1 <= 4:
        raise RTooSmall(f"the p-part of N must be p^r with r > 4, got r = {r1}")
    for q in factors:
        if q != p and (q - 1) % p == 0:
            raise PreconditionViolated(
                f"p = {p} divides {q} - 1, so a twist could reach the {q}-part"
            )
    alpha %= N
    if math.gcd(alpha, N) != 1:
        raise NotInvertible(f"alpha = {alpha} is not a unit mod {N}")
    if nt.mod_pow(alpha, p * p, N) != 1:
        raise PreconditionViolated(
            f"alpha = {alpha} does not have order dividing p^2 mod {N}"
        )
    return CompositeParams(
        N=N, p=p, alpha=alpha, factorization=tuple(sorted(factors.items()))
    )


def decompose(cp: CompositeParams) -> FactorDecomposition:
    """Split the parent group into its p-part and abelian CRT slots."""
    r1 = dict(cp.factorization)[cp.p]
    pr = cp.p ** r1
    alpha1 = cp.alpha % pr
    step = cp.p ** (r1 - 2)
    if (alpha1 - 1) % step != 0:
        raise PreconditionViolated("twist on the p-part has an unsupported shape")
    tau = (alpha1 - 1) // step % (cp.p * cp.p)
    semidirect = gr.make_group(cp.p, r1, tau)
    if semidirect.alpha != alpha1:
        raise PreconditionViolated("twist on the p-part has an unsupported shape")
    abelian = []
    for q, e in cp.factorization:
        if q == cp.p:
            continue
        qe = q ** e
        if cp.alpha % qe != 1:
            raise PreconditionViolated(
                f"alpha is not 1 mod {qe}; the {q}-part would be twisted"
            )
        abelian.append(
            AbelianFactor(prime=q, exponent=e, modulus=qe, crt_unit=_crt_unit(cp.N, qe))
        )
    return FactorDecomposition(
        params=cp,
        parent=gr.make_semidirect(cp.N, cp.p, cp.alpha),
        semidirect=semidirect,
        p_crt_unit=_crt_unit(cp.N, pr),
        abelian=tuple(abelian),
    )


class FactorOracle:
    """View of a composite-parent oracle restricted to its p-part factor.

    Embeds factor elements into the parent through the CRT unit (a group
    homomorphism, because the unit is 0 mod every other slot) and mirrors
    every query and simulation charge to the parent's meters. Duck-types
    HidingOracle closely enough for the solver and the simulator.
    """

    def __init__(self, parent, semidirect: gr.GroupParams, crt_unit: int):
        self._parent = parent
        self.group = semidirect
        self._unit = crt_unit
        self.query_count = 0
        self.simulation_cost = 0
        self._domain_views: dict = {}

    def _embed(self, g: gr.Element) -> gr.Element:
        return (g[0] * self._unit % self._parent.group.x_mod, g[1])

    def _label(self, g: gr.Element):
        return self._parent._label(self._embed(g))

    def query(self, g: gr.Element):
        self.query_count += 1
        self._parent.query_count += 1
        return self._label(g)

    def charge_superposition_query(self) -> None:
        self.query_count += 1
        self._parent.query_count += 1

    def _sim_eval(self, g: gr.Element):
        self.simulation_cost += 1
        self._parent.simulation_cost += 1
        return self._label(g)

    def _label_array(self, a, b):
        return self._parent._label_array(a * self._unit % self._parent.group.x_mod, b)

    def _sim_eval_array(self, a, b):
        self.simulation_cost += len(a)
        self._parent.simulation_cost += len(a)
        return self._label_array(a, b)


@dataclass(frozen=True)
class CompositeSolveResult:
    params: CompositeParams
    semidirect_report: solver.SolveReport
    abelian_valuations: tuple  # ((prime, valuation), ...)
    generators: tuple
    subgroup_order: int
    oracle_queries: int
    simulation_cost: int
    iterations: int
    seed: int
    verified: bool

    def to_json(self) -> dict:
        return {
            "N": self.params.N,
            "p": self.params.p,
            "alpha": self.params.alpha,
            "factorization": [[q, e] for q, e in self.params.factorization],
            "semidirect": self.semidirect_report.to_json(),
            "abelian": [
                {"prime": q, "valuation": v} for q, v in self.abelian_valuations
            ],
            "generators": [[a, b] for a, b in self.generators],
            "subgroup_order": self.subgroup_order,
            "oracle_queries": self.oracle_queries,
            "simulation_cost": self.simulation_cost,
            "iterations": self.iterations,
            "seed": self.seed,
            "verified": self.verified,
        }


def solve_composite(cp: CompositeParams, o, seed: int = 0) -> CompositeSolveResult:
    """Recover the hidden subgroup of the composite parent group behind `o`.

    Each abelian slot is recovered by the abelian routine on its own CRT
    embedding; the p-part goes through the full semidirect solver on a
    factor view of the oracle. The combined generators are re-verified
    against the parent oracle before reporting.
    """
    dec = decompose(cp)
    rng = random.Random(seed)
    queries_before = o.query_count
    sims_before = o.simulation_cost
    stats: dict = {"iterations": 0, "retries": 0}

    lifted: list[gr.Element] = []
    vals = []
    for fac in dec.abelian:
        slot = qsim.Domain((fac.modulus,), ((fac.crt_unit, 0),), name=f"crt-{fac.prime}")
        gens = qsim.abelian_hsp(slot, o, rng, stats=stats)
        g = math.gcd(fac.modulus, *(u for (u,) in gens))
        v, _ = nt.p_valuation(g, fac.prime)
        vals.append((fac.prime, int(v)))
        if g < fac.modulus:
            lifted.append((g * fac.crt_unit % cp.N, 0))

    fo = FactorOracle(o, dec.semidirect, dec.p_crt_unit)
    rep = solver.solve(fo, seed=rng.randrange(2 ** 32))
    for a, b in sg.generators(dec.semidirect, rep.recovered):
        lifted.append((a * dec.p_crt_unit % cp.N, b))

    reference = o.query(gr.IDENTITY)
    for g in lifted:
        if o.query(g) != reference:
            raise VerificationFailed(
                f"combined generator {g} is not in the hidden subgroup"
            )
    table = sg.SubgroupTable.from_generators(dec.parent, lifted)

    return CompositeSolveResult(
        params=cp,
        semidirect_report=rep,
        abelian_valuations=tuple(vals),
        generators=tuple(lifted),
        subgroup_order=table.order,
        oracle_queries=o.query_count - queries_before,
        simulation_cost=o.simulation_cost - sims_before,
        iterations=stats["iterations"] + rep.iterations,
        seed=seed,
        verified=True,
    )
