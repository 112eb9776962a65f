"""Coprime-factor reduction for hidden subgroups of Z_N x| Z_(p^2).

When N = p^r * q_2 * ... * q_k with every q_i a prime power coprime to p
and untouched by the twist, the group is a direct product of the p-part
semidirect factor and cyclic abelian factors. A subgroup of a direct
product of coprime-order factors always splits along the factors, so the
hidden subgroup is recovered one factor at a time and recombined by CRT.
The p-part is solved on a FactorOracle, whose head is the parent's (d, s, a_1)
reduced to (d_p, s, a_1 mod d_p), d_p = gcd(d, p^r).

Valid twists: 1 + tau * p^(r-2) on the p-part, 1 on each q-part (p^2 per N).
The order guard runs before N is factorized.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass

from . import group as gr
from . import numtheory as nt
from . import oracle as orc
from . import solver
from . import subgroup as sg
from .errors import InvalidPrime, PreconditionViolated, RTooSmall, VerificationFailed, shown


@dataclass(frozen=True)
class CompositeParams:
    N: int
    p: int
    alpha: int
    factorization: tuple  # sorted ((prime, exponent), ...)


@dataclass(frozen=True)
class AbelianFactor:
    prime: int
    modulus: int  # the power of prime that exactly divides N
    crt_unit: int  # 1 mod modulus, 0 mod N / modulus


@dataclass(frozen=True)
class FactorDecomposition:
    parent: gr.SemidirectGroup
    semidirect: gr.GroupParams
    p_crt_unit: int
    abelian: tuple


def _crt_unit(N: int, q: int) -> int:
    rest = N // q
    return rest * nt.mod_inv(rest % q, q) % N


def make_composite(N: int, p: int, alpha: int) -> CompositeParams:
    """Validate a composite instance N = p^r * (coprime part), r > 4.

    Requires p odd prime and p^5 dividing N; `gr.make_semidirect` then makes
    the order guard and the twist checks, and only then is N factorized, to
    require p not dividing q - 1 for any other prime q of N (so alpha is 1
    off the p-part).
    """
    if not nt.is_prime(p) or p == 2:
        raise InvalidPrime(f"p = {shown(p)} must be an odd prime")
    if N % p**5:  # r <= 4, so the valuation below takes at most four divisions
        r1, _ = nt.p_valuation(N, p)
        raise RTooSmall(f"the p-part of N must be p^r with r > 4, got r = {r1}")
    alpha = gr.make_semidirect(N, p, alpha).alpha
    factors = nt.factorize(N)
    for q in factors:
        if q != p and (q - 1) % p == 0:
            raise PreconditionViolated(
                f"p = {p} divides {q} - 1, so a twist could reach the {q}-part"
            )
    return CompositeParams(
        N=N, p=p, alpha=alpha, factorization=tuple(sorted(factors.items()))
    )


def decompose(cp: CompositeParams) -> FactorDecomposition:
    """Split the parent group into its p-part and abelian CRT slots.

    Nothing is left to check: a unit mod p^r of order dividing p^2 is
    1 + tau * p^(r-2), the twist of make_group(p, r, tau); the units mod q^e
    have order q^(e-1) * (q - 1), prime to p, so alpha is 1 on each q-part.
    """
    r1 = dict(cp.factorization)[cp.p]
    pr = cp.p ** r1
    return FactorDecomposition(
        parent=gr.make_semidirect(cp.N, cp.p, cp.alpha),
        semidirect=gr.make_group(cp.p, r1, (cp.alpha % pr - 1) // cp.p ** (r1 - 2)),
        p_crt_unit=_crt_unit(cp.N, pr),
        abelian=tuple(
            AbelianFactor(prime=q, modulus=q**e, crt_unit=_crt_unit(cp.N, q**e))
            for q, e in cp.factorization
            if q != cp.p
        ),
    )


class FactorOracle(orc.HidingOracle):
    """View of a composite-parent oracle restricted to its p-part factor.

    Embeds factor elements into the parent through the CRT unit (a group
    homomorphism, because the unit is 0 mod every other slot) and charges
    every query and simulation evaluation to the parent's meter, which it
    shares. Its labels and its hidden head come from the parent's, so it
    skips HidingOracle.__init__, which builds them from the hidden subgroup.
    """

    def __init__(self, parent, semidirect: gr.GroupParams, crt_unit: int):
        self._parent = parent
        self.group = semidirect
        self._unit = crt_unit
        self.meter = parent.meter

    def _label(self, g: gr.Element):
        return self._parent._label((g[0] * self._unit % self._parent.group.x_mod, g[1]))

    def _sim_table(self):
        """The p-part head of the module docstring: H splits along the coprime
        factors, so (a * unit, b) lies in row (b, a_b) iff a == a_b mod d_p."""
        d, s, a_1 = self._parent._sim_table()
        d_p = math.gcd(d, self.group.x_mod)
        return d_p, s, a_1 % d_p


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
    before = copy.copy(o.meter)

    lifted: list[gr.Element] = []
    vals = []
    for fac in dec.abelian:
        v, g = solver.axis_depth(
            o, fac.modulus, (fac.crt_unit, 0), fac.prime, rng, f"crt-{fac.prime}"
        )
        vals.append((fac.prime, v))
        if g < fac.modulus:
            lifted.append((g * fac.crt_unit % cp.N, 0))

    fo = FactorOracle(o, dec.semidirect, dec.p_crt_unit)
    rep = solver.solve(fo, seed=rng.randrange(2 ** 32))
    for a, b in sg.generators(dec.semidirect, rep.recovered):
        lifted.append((a * dec.p_crt_unit % cp.N, b))

    outside = o.first_outside(lifted)
    if outside is not None:
        raise VerificationFailed(
            f"combined generator {outside} is not in the hidden subgroup"
        )
    d, s, _ = sg._head(dec.parent, lifted)
    spent = o.meter - before

    return CompositeSolveResult(
        params=cp,
        semidirect_report=rep,
        abelian_valuations=tuple(vals),
        generators=tuple(lifted),
        subgroup_order=dec.parent.order // (d * s),
        oracle_queries=spent.queries,
        simulation_cost=spent.sim_evals,
        iterations=spent.iterations,
        seed=seed,
        verified=True,
    )
