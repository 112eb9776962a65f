"""Hidden-subgroup solver for the semidirect products built by `group`.

Entry point is `solve(oracle)`: it measures the two axis intersection depths
(m, n) of the hidden subgroup, classifies it as cyclic or not, dispatches to
a branch routine, and re-verifies the recovered descriptor against the oracle
before reporting. Every routine is Las Vegas: candidate subgroups are checked
with real oracle queries, so a returned report is always correct and the only
failure mode is RetriesExhausted.

The branches share one route rule, c being the commutator depth: an axis in
H (m == 0 or n == 0) gives H in closed form; the shallow rows 0 < m < n + c,
where x^(p^m) and H's part in <x^(p^c), y> may not generate H, run the
constraint routine (class1) or the abelianization quotient (class2); every
other row takes the abelian route, which recovers exactly those two parts.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import asdict, dataclass

from . import group as gr
from . import numtheory as nt
from . import qsim
from . import subgroup as sg
from .errors import PreconditionViolated, RetriesExhausted, VerificationFailed

STRATEGY_DIRECT = "Direct"
STRATEGY_ABELIANIZATION = "Abelianization"
STRATEGY_ABELIAN_ONLY = "AbelianOnly"


def axis_depth(o, modulus, step, prime, rng, name) -> tuple[int, int]:
    """(v, g) with H meet <step> = <step^g>, g = prime^v (g == modulus when the
    meet is trivial), by abelian recovery on Z_modulus -> step^u, a homomorphism."""
    axis = qsim.Domain((modulus,), (step,), name=name)
    gens = qsim.abelian_hsp(axis, o, rng)
    g = math.gcd(modulus, *(u for (u,) in gens))
    v, _ = nt.p_valuation(g, prime)
    return int(v), g


def find_m_n(o, rng) -> tuple[int, int]:
    """(m, n) with H meet <x> = <x^(p^m)> and H meet <y> = <y^(p^n)>."""
    gp = o.group
    m, _ = axis_depth(o, gp.x_mod, (1, 0), gp.p, rng, "x-axis")
    n, _ = axis_depth(o, gp.y_mod, (0, 1), gp.p, rng, "y-axis")
    return m, n


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

    Character samples land here: a non-unit sample carries no usable
    constraint and the caller retries.
    """
    if math.gcd(a, modulus) != 1:
        return None
    return (-nt.mod_inv(a, modulus) * b) % modulus


def _constraint_routine(o, m, n, rng):
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
    support = qsim.pullback(o, domain)
    for attempt in range(1, qsim.RETRIES + 1):
        o.meter.attempt(attempt)
        s = qsim.coset_sample(o, support, rng)
        c_a, c_b = qsim.fourier_sample(s, rng)
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


def _section(o, x_dim, x_step, x_extra, rng, name):
    """H from an abelian recovery on Z_x_dim x Z_(p^2) -> (x_step u, v), whose
    lifted generators plus x^x_extra (an element known to lie in H) span H."""
    gp = o.group
    domain = qsim.Domain((x_dim, gp.y_mod), ((x_step, 0), (0, 1)), name=name)
    lifted = [domain.embed(gp, g) for g in qsim.abelian_hsp(domain, o, rng)]
    lifted.append((x_extra % gp.x_mod, 0))
    return sg.canonicalize(gp, lifted)


def _abelian_route(o, m, rng):
    """Recover H inside the abelian subgroup <x^(p^c), y>, c the commutator depth.

    The embedding (u, v) -> (p^c * u, v) is an exact homomorphism because
    p^c kills the commutator twist. The hidden subgroup's x-axis part can
    stick out of the domain, so the measured depth m is appended as an extra
    generator; it is always an element of H.
    """
    gp = o.group
    scale = gp.p ** gr.commutator_depth(gp)
    return _section(o, gp.x_mod // scale, scale, gp.p ** m, rng, "abelian-route")


def _axis_closed_form(gp, m, n):
    """<x^(p^m), y^(p^n)>, which is H when m == 0 or n == 0."""
    return sg.canonicalize(gp, [(gp.p ** m % gp.x_mod, 0), (0, gp.p ** n % gp.y_mod)])


def solve_via_abelianization(o, rng):
    """Recover H through the abelianization quotient.

    Only valid when H contains the commutator subgroup <x^(p^(r-c))>; the
    quotient is then Z_(p^(r-c)) x Z_(p^2), the section (u, v) -> (u, v)
    composed with the oracle hides the image of H, and lifting the image
    generators plus the commutator generator spans H exactly.
    """
    gp = o.group
    q = gp.p ** (gp.r - gr.commutator_depth(gp))
    return _section(o, q, 1, q, rng, "abelianization")


def solve_cyclic_class1(o, m, n, rng):
    """Cyclic hidden subgroup in a class1 group. No closed form here: m == 0
    (H = <x>) and (m, n) = (r, 0) (H = <y>) keep the abelian route, which
    the seeded reports pin."""
    if 0 < m < n + gr.commutator_depth(o.group):
        return _constraint_routine(o, m, n, rng)
    return _abelian_route(o, m, rng)


def solve_noncyclic_class1(o, m, n, rng):
    """Noncyclic hidden subgroup in a class1 group (so m < r and n <= 1)."""
    if m == 0 or n == 0:
        return _axis_closed_form(o.group, m, n)
    if 0 < m < n + gr.commutator_depth(o.group):
        return _constraint_routine(o, m, n, rng)
    return _abelian_route(o, m, rng)


def solve_class2(o, m, n, rng):
    """Hidden subgroup in a class2 group."""
    if m == 0 or n == 0:
        return _axis_closed_form(o.group, m, n)
    if 0 < m < n + gr.commutator_depth(o.group):
        return solve_via_abelianization(o, rng)
    return _abelian_route(o, m, rng)


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
        return {**asdict(self), "recovered": sg.descriptor_to_json(self.recovered)}


_STRATEGIES = {"auto", "direct", "abelianization"}


def solve(o, strategy: str = "auto", seed: int = 0) -> SolveReport:
    """Recover the hidden subgroup behind `o` and return a verified report.

    strategy: "auto" (same as "direct"), "direct", or "abelianization".
    The abelianization strategy is only applicable when the hidden subgroup
    contains the commutator subgroup, i.e. its measured x depth m satisfies
    m <= r - commutator depth; otherwise PreconditionViolated is raised.
    All randomness flows from `seed`, so runs are reproducible. The paper's
    algorithms need r > 4; below it PreconditionViolated is raised before
    any query.
    """
    gp = o.group
    if gp.r <= 4:
        raise PreconditionViolated(f"the solver needs r > 4, got r = {gp.r}")
    choice = strategy.lower()
    if choice not in _STRATEGIES:
        raise PreconditionViolated(f"unknown strategy {strategy!r}")

    rng = random.Random(seed)
    before = copy.copy(o.meter)

    if gp.class_tag == gr.CLASS_ABELIAN:
        if choice == "abelianization":
            raise PreconditionViolated(
                "abelianization strategy is undefined for an abelian group"
            )
        # x^0 is the identity: the whole group is the section, nothing to add
        recovered = _section(o, gp.x_mod, 1, 0, rng, "abelian")
        strategy_used = STRATEGY_ABELIAN_ONLY
        branch = "abelian/direct-product"
        measured = None
    else:
        m, n = measured = find_m_n(o, rng)
        cyc = classify_cyclicity(m, n, gp.r)
        branch = f"{gp.class_tag}/{cyc}/m={m}"
        if choice == "abelianization":
            c = gr.commutator_depth(gp)
            if m > gp.r - c:
                raise PreconditionViolated(
                    "hidden subgroup does not contain the commutator subgroup "
                    f"(m = {m} > {gp.r - c}); abelianization not applicable"
                )
            recovered = solve_via_abelianization(o, rng)
            strategy_used = STRATEGY_ABELIANIZATION
        else:
            strategy_used = STRATEGY_DIRECT
            if gp.class_tag == gr.CLASS1:
                if cyc == "cyclic":
                    recovered = solve_cyclic_class1(o, m, n, rng)
                else:
                    recovered = solve_noncyclic_class1(o, m, n, rng)
            else:
                recovered = solve_class2(o, m, n, rng)

    # Final verification: every generator of the recovered subgroup R must sit
    # in the same coset as the identity, and R must show the axis depths that
    # find_m_n measured (none if abelian): d = p^m, y^(p^n) its first y^(p^k).
    outside = o.first_outside(sg.generators(gp, recovered))
    if outside is not None:
        raise VerificationFailed(
            f"recovered generator {outside} is not in the hidden subgroup"
        )
    d, s, _ = head = sg.descriptor_head(gp, recovered)
    row = sg._rows(gp, head)
    m = nt.p_valuation(d, gp.p)[0]
    n = next(k for k in range(3) if gp.p**k % s == 0 and row(gp.p**k // s) == 0)
    if measured is not None and (m, n) != measured:
        raise VerificationFailed(
            "recovered subgroup disagrees with the measured axis depths"
        )
    spent = o.meter - before

    return SolveReport(
        group={"p": gp.p, "r": gp.r, "tau": gp.tau, "class": gp.class_tag},
        recovered=recovered,
        strategy=strategy_used,
        branch=branch,
        m=m,
        n=n,
        oracle_queries=spent.queries,
        simulation_cost=spent.sim_evals,
        iterations=spent.iterations,
        seed=seed,
        verified=True,
        first_try=spent.retries == 0,
    )
