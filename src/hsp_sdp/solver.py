"""Hidden-subgroup solver for the semidirect products built by `group`.

Entry point is `solve(oracle)`: it measures the two axis intersection depths
(m, n) of the hidden subgroup, classifies it as cyclic or not, dispatches to
a branch routine, and re-verifies the recovered descriptor against the oracle
before reporting. Every routine is Las Vegas: candidate subgroups are checked
with real oracle queries, so a returned report is always correct and the only
failure mode is RetriesExhausted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import group as gr
from . import numtheory as nt
from . import qsim
from . import subgroup as sg
from .errors import PreconditionViolated, RetriesExhausted, VerificationFailed

STRATEGY_DIRECT = "Direct"
STRATEGY_ABELIANIZATION = "Abelianization"
STRATEGY_ABELIAN_ONLY = "AbelianOnly"


def _bump(stats: dict | None, attempt: int) -> None:
    if stats is not None:
        stats["iterations"] = stats.get("iterations", 0) + 1
        if attempt > 1:
            stats["retries"] = stats.get("retries", 0) + 1


def find_m_n(o, rng, stats: dict | None = None) -> tuple[int, int]:
    """Depths of the hidden subgroup's intersections with the two axes.

    Runs the abelian recovery on each axis separately; the x axis embeds as
    (a, 0) and the y axis as (0, b), both exact homomorphisms. Returns
    (m, n) with H meet <x> = <x^(p^m)> and H meet <y> = <y^(p^n)>.
    """
    gp = o.group
    x_axis = qsim.Domain((gp.x_mod,), ((1, 0),), name="x-axis")
    y_axis = qsim.Domain((gp.y_mod,), ((0, 1),), name="y-axis")
    x_gens = qsim.abelian_hsp(x_axis, o, rng, stats=stats)
    y_gens = qsim.abelian_hsp(y_axis, o, rng, stats=stats)
    gx = math.gcd(gp.x_mod, *(v[0] for v in x_gens))
    gy = math.gcd(gp.y_mod, *(v[0] for v in y_gens))
    m, _ = nt.p_valuation(gx, gp.p)
    n, _ = nt.p_valuation(gy, gp.p)
    return int(m), int(n)


def classify_cyclicity(m: int, n: int, r: int) -> str:
    """A hidden subgroup is cyclic exactly when m == r or n == 2.

    m == r means no x-axis part below the whole transversal step (the
    subgroup is generated by a single mixed element or is trivial); n == 2
    means it meets the y axis trivially, which forces a single generator.
    """
    if not (0 <= m <= r and 0 <= n <= 2):
        raise ValueError(f"(m, n) = ({m}, {n}) out of range for r = {r}")
    return "cyclic" if (m == r or n == 2) else "noncyclic"


def recover_t(a: int, b: int, modulus: int) -> int | None:
    """Solve a*t + b == 0 (mod modulus) for t, or None if a is not a unit.

    modulus is a prime power; a is a unit iff its base prime does not divide
    it. Character samples land here: a non-unit sample carries no usable
    constraint and the caller retries.
    """
    p = min(nt.factorize(modulus))
    if a % p == 0:
        return None
    return (-nt.mod_inv(a, modulus) * b) % modulus


def _constraint_routine(o, m, n, rng, stats):
    """Shared loop for the small-depth class1 branches.

    Cyclic (n == 2, m in {1, 2, 3}): register Z_(p^m) x Z_(p^2) on
    (u, v) -> (u, v); H is <g> for a candidate g, else <x^(p^m)>.
    Noncyclic (n == 1, m in {1, 2}): register Z_p x Z_p on
    (u, v) -> (p^(m-1) u, v); H is <g, x^(p^m)>, else <x^(p^m), y^p>.

    Samples one character per attempt until its first coordinate is a unit,
    which pins t mod p^min(m, n), and checks the candidates
    g_k = ((t mod p^k) p^(m-k), p^(n-k)), k = min(m, n) down to 1, with real
    oracle queries in that order. A unit sample pins t exactly, so if no
    candidate verifies the hidden subgroup must be the fallback.
    """
    gp = o.group
    p, x_mod = gp.p, gp.x_mod
    cyclic = n == 2
    name = f"{'cyclic' if cyclic else 'noncyclic'}-m{m}"
    x_dim, x_step = (p**m, 1) if cyclic else (p, p ** (m - 1))
    domain = qsim.Domain((x_dim, p**n), ((x_step, 0), (0, 1)), name=name)
    pure_x = (p**m % x_mod, 0)
    extra, fallback = ([], [pure_x]) if cyclic else ([pure_x], [pure_x, (0, p)])
    top = min(m, n)
    reference = o.query(gr.IDENTITY)
    for attempt in range(1, qsim.RETRIES + 1):
        _bump(stats, attempt)
        s = qsim.coset_sample(o, domain, rng)
        c_a, c_b = qsim.fourier_sample(s, domain.dims, rng)
        t1 = recover_t(c_a, c_b, p**top)
        if t1 is None:
            continue
        for k in range(top, 0, -1):
            g = (t1 % p**k * p ** (m - k) % x_mod, p ** (n - k))
            if o.query(g) == reference:
                return sg.canonicalize(gp, [g, *extra])
        return sg.canonicalize(gp, fallback)
    raise RetriesExhausted(
        f"{name}: no unit character sample in {qsim.RETRIES} attempts"
    )


def _abelian_route(o, m, scale_exp, rng, stats):
    """Recover H inside the abelian subgroup <x^(p^scale_exp), y>.

    The embedding (u, v) -> (p^scale_exp * u, v) is an exact homomorphism
    because p^scale_exp kills the commutator twist. The hidden subgroup's
    x-axis part can stick out of the domain, so the measured depth m is
    appended as an extra generator; it is always an element of H.
    """
    gp = o.group
    scale = gp.p ** scale_exp
    domain = qsim.Domain(
        (gp.x_mod // scale, gp.y_mod), ((scale, 0), (0, 1)), name="abelian-route"
    )
    gens = qsim.abelian_hsp(domain, o, rng, stats=stats)
    lifted = [domain.embed(gp, g) for g in gens]
    lifted.append((gp.p ** m % gp.x_mod, 0))
    return sg.canonicalize(gp, lifted)


def solve_via_abelianization(o, rng, stats: dict | None = None):
    """Recover H through the abelianization quotient.

    Only valid when H contains the commutator subgroup <x^(p^(r-c))>; the
    quotient is then Z_(p^(r-c)) x Z_(p^2), the section (u, v) -> (u, v)
    composed with the oracle hides the image of H, and lifting the image
    generators plus the commutator generator spans H exactly.
    """
    gp = o.group
    c = gr.commutator_depth(gp)
    q = gp.p ** (gp.r - c)
    section = qsim.Domain((q, gp.y_mod), ((1, 0), (0, 1)), name="abelianization")
    gens = qsim.abelian_hsp(section, o, rng, stats=stats)
    lifted = [section.embed(gp, g) for g in gens]
    lifted.append((q % gp.x_mod, 0))
    return sg.canonicalize(gp, lifted)


def solve_cyclic_class1(o, m, n, rng, stats: dict | None = None):
    """Cyclic hidden subgroup in a class1 group."""
    if m in (1, 2, 3):
        return _constraint_routine(o, m, n, rng, stats)
    # m == 0 (H contains the whole x axis) or m >= 4: the x part is deep
    # enough that H meet <x^(p^2), y> plus x^(p^m) generates H.
    return _abelian_route(o, m, 2, rng, stats)


def solve_noncyclic_class1(o, m, n, rng, stats: dict | None = None):
    """Noncyclic hidden subgroup in a class1 group (so m < r and n <= 1)."""
    gp = o.group
    p = gp.p
    if n == 0:
        return sg.canonicalize(gp, [(p ** m % gp.x_mod, 0), (0, 1)])
    if m == 0:
        return sg.canonicalize(gp, [(1, 0), (0, p)])
    if m >= 3:
        return _abelian_route(o, m, 2, rng, stats)
    return _constraint_routine(o, m, n, rng, stats)


def solve_class2(o, m, n, rng, stats: dict | None = None):
    """Hidden subgroup in a class2 group.

    Closed forms when an axis is fully contained; the shallow mixed cases go
    through the abelianization quotient (the class2 commutator is deep enough
    at depth r-1); everything else embeds in <x^p, y>.
    """
    gp = o.group
    p = gp.p
    if m == 0:
        return sg.canonicalize(gp, [(1, 0), (0, p ** n % gp.y_mod)])
    if n == 0:
        return sg.canonicalize(gp, [(p ** m % gp.x_mod, 0), (0, 1)])
    if (1 <= m <= 2 and n == 2) or (m == 1 and n == 1):
        return solve_via_abelianization(o, rng, stats)
    return _abelian_route(o, m, 1, rng, stats)


@dataclass
class SolveReport:
    group: dict
    recovered: sg.Descriptor
    strategy: str
    branch: str
    m: int
    n: int
    oracle_queries: int
    simulation_cost: int
    iterations: int
    seed: int
    verified: bool
    first_try: bool

    def to_json(self) -> dict:
        return {
            "group": dict(self.group),
            "recovered": sg.descriptor_to_json(self.recovered),
            "strategy": self.strategy,
            "branch": self.branch,
            "m": self.m,
            "n": self.n,
            "oracle_queries": self.oracle_queries,
            "simulation_cost": self.simulation_cost,
            "iterations": self.iterations,
            "seed": self.seed,
            "verified": self.verified,
            "first_try": self.first_try,
        }


_STRATEGIES = {"auto", "direct", "abelianization"}


def solve(o, strategy: str = "auto", seed: int = 0) -> SolveReport:
    """Recover the hidden subgroup behind `o` and return a verified report.

    strategy: "auto" (same as "direct"), "direct", or "abelianization".
    The abelianization strategy is only applicable when the hidden subgroup
    contains the commutator subgroup, i.e. its measured x depth m satisfies
    m <= r - commutator depth; otherwise PreconditionViolated is raised.
    All randomness flows from `seed`, so runs are reproducible.
    """
    gp = o.group
    if getattr(gp, "unclassified", False):
        raise PreconditionViolated(
            "classified solver requires r > 4; this group was built with "
            "allow_unclassified"
        )
    choice = strategy.lower()
    if choice not in _STRATEGIES:
        raise PreconditionViolated(f"unknown strategy {strategy!r}")

    rng = random.Random(seed)
    queries_before = o.query_count
    sims_before = o.simulation_cost
    stats: dict = {"iterations": 0, "retries": 0}

    if gp.class_tag == gr.CLASS_ABELIAN:
        if choice == "abelianization":
            raise PreconditionViolated(
                "abelianization strategy is undefined for an abelian group"
            )
        whole = qsim.Domain((gp.x_mod, gp.y_mod), ((1, 0), (0, 1)), name="abelian")
        gens = qsim.abelian_hsp(whole, o, rng, stats=stats)
        recovered = sg.canonicalize(gp, list(gens))
        strategy_used = STRATEGY_ABELIAN_ONLY
        branch = "abelian/direct-product"
        table = sg.table_for(gp, recovered)
        m = table.x_intersection_val(gp.p)
        n = table.y_intersection_val(gp.p)
    else:
        m, n = find_m_n(o, rng, stats)
        cyc = classify_cyclicity(m, n, gp.r)
        branch = f"{gp.class_tag}/{cyc}/m={m}"
        if choice == "abelianization":
            c = gr.commutator_depth(gp)
            if m > gp.r - c:
                raise PreconditionViolated(
                    "hidden subgroup does not contain the commutator subgroup "
                    f"(m = {m} > {gp.r - c}); abelianization not applicable"
                )
            recovered = solve_via_abelianization(o, rng, stats)
            strategy_used = STRATEGY_ABELIANIZATION
        else:
            strategy_used = STRATEGY_DIRECT
            if gp.class_tag == gr.CLASS1:
                if cyc == "cyclic":
                    recovered = solve_cyclic_class1(o, m, n, rng, stats)
                else:
                    recovered = solve_noncyclic_class1(o, m, n, rng, stats)
            else:
                recovered = solve_class2(o, m, n, rng, stats)

    # Final verification: every generator of the recovered subgroup must sit
    # in the same coset as the identity, and the recovered table must show
    # the measured axis depths.
    reference = o.query(gr.IDENTITY)
    for g in sg.generators(gp, recovered):
        if o.query(g) != reference:
            raise VerificationFailed(
                f"recovered generator {g} is not in the hidden subgroup"
            )
    table = sg.table_for(gp, recovered)
    if (table.x_intersection_val(gp.p), table.y_intersection_val(gp.p)) != (m, n):
        raise VerificationFailed(
            "recovered subgroup disagrees with the measured axis depths"
        )

    return SolveReport(
        group={"p": gp.p, "r": gp.r, "tau": gp.tau, "class": gp.class_tag},
        recovered=recovered,
        strategy=strategy_used,
        branch=branch,
        m=m,
        n=n,
        oracle_queries=o.query_count - queries_before,
        simulation_cost=o.simulation_cost - sims_before,
        iterations=stats["iterations"],
        seed=seed,
        verified=True,
        first_try=stats["retries"] == 0,
    )
