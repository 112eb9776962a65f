"""Group parameters and element arithmetic.

Elements are plain (a, b) tuples with 0 <= a < x_mod and 0 <= b < y_mod,
multiplying by

    (a1, b1) * (a2, b2) = (a1 + a2 * alpha^b1 mod x_mod, b1 + b2 mod y_mod)

so x = (1, 0) and y = (0, 1) satisfy y x y^-1 = x^alpha. The twist satisfies
alpha^(y_mod) == 1 (mod x_mod) in every construction here. Hot-path ops skip
per-element range validation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import numtheory as nt
from .errors import InvalidPrime, NotInvertible, Overflow, PreconditionViolated, RTooSmall, shown

Element = tuple[int, int]

#: identity element of every group in this module
IDENTITY: Element = (0, 0)

ORDER_GUARD = 2**63

CLASS_ABELIAN = "abelian"
CLASS1 = "class1"
CLASS2 = "class2"


@dataclass(frozen=True)
class SemidirectGroup:
    """Z_{x_mod} x| Z_{p^2} with y-conjugation scaling x by alpha."""

    x_mod: int
    p: int
    alpha: int
    y_mod: int

    @property
    def order(self) -> int:
        return self.x_mod * self.y_mod


@dataclass(frozen=True)
class GroupParams(SemidirectGroup):
    """The prime-power case Z_{p^r} x| Z_{p^2} with alpha = tau*p^(r-2) + 1."""

    r: int
    tau: int
    class_tag: str


def make_semidirect(x_mod: int, p: int, alpha: int) -> SemidirectGroup:
    """Generic constructor, with the one order guard and twist check."""
    if x_mod < 1 or p < 2:
        raise PreconditionViolated(
            f"need x_mod >= 1 and p >= 2, got x_mod={shown(x_mod)}, p={shown(p)}"
        )
    if x_mod * p * p >= ORDER_GUARD:
        raise Overflow("group order must stay below 2**63")
    alpha %= x_mod
    if math.gcd(alpha, x_mod) != 1:
        raise NotInvertible(f"alpha = {alpha} is not a unit mod {x_mod}")
    if pow(alpha, p * p, x_mod) != 1:
        raise PreconditionViolated(f"alpha = {alpha} does not have order dividing p^2 mod {x_mod}")
    return SemidirectGroup(x_mod=x_mod, p=p, alpha=alpha, y_mod=p * p)


def make_group(p: int, r: int, tau: int) -> GroupParams:
    """Build Z_{p^r} x| Z_{p^2} from (p, r, tau), r >= 3.

    tau is reduced mod p^2. gcd(tau, p^2) decides the twist order: 1 -> full
    order p^2 ("class1"), p -> order p ("class2"), p^2 -> trivial
    ("abelian"). The group, its catalog and oracles hold at every r >= 3;
    the paper's bound r > 4 is checked by solver.solve and verify-catalog.
    """
    if not nt.is_prime(p) or p == 2:
        raise InvalidPrime(f"p must be an odd prime, got {shown(p)}")
    if r <= 2:
        raise RTooSmall(f"r must be at least 3, got {shown(r)}")
    # |G| = p^(r+2) >= 2^((r+2)(bits-1)): refuse before building p^r
    if (r + 2) * (p.bit_length() - 1) >= ORDER_GUARD.bit_length() - 1:
        raise Overflow("group order must stay below 2**63")
    tau %= p * p
    base = make_semidirect(p**r, p, tau * p ** (r - 2) + 1)
    g = math.gcd(tau, p * p)
    class_tag = CLASS1 if g == 1 else CLASS2 if g == p else CLASS_ABELIAN
    return GroupParams(**asdict(base), r=r, tau=tau, class_tag=class_tag)


def alpha_powers(gp: SemidirectGroup) -> list[int]:
    """alpha^b mod x_mod for every b, built per call for loops that walk the
    whole group; point operations use pow(alpha, b, x_mod)."""
    out = [1]
    for _ in range(gp.y_mod - 1):
        out.append(out[-1] * gp.alpha % gp.x_mod)
    return out


def mul(gp: SemidirectGroup, g1: Element, g2: Element) -> Element:
    a1, b1 = g1
    a2, b2 = g2
    return ((a1 + a2 * pow(gp.alpha, b1, gp.x_mod)) % gp.x_mod, (b1 + b2) % gp.y_mod)


def inv(gp: SemidirectGroup, g: Element) -> Element:
    a, b = g
    b = -b % gp.y_mod
    return (-a * pow(gp.alpha, b, gp.x_mod) % gp.x_mod, b)


def power(gp: SemidirectGroup, g: Element, k: int) -> Element:
    """g^k for any integer k, by square-and-multiply in O(log |k|) mul calls."""
    if k < 0:
        return inv(gp, power(gp, g, -k))
    out = IDENTITY
    while k:
        if k & 1:
            out = mul(gp, out, g)
        g = mul(gp, g, g)
        k >>= 1
    return out


def conjugate(gp: SemidirectGroup, g: Element, h: Element) -> Element:
    """h g h^-1."""
    return mul(gp, mul(gp, h, g), inv(gp, h))


def element_order(gp: SemidirectGroup, g: Element) -> int:
    """Exact multiplicative order of g (divisor-refinement over |G|)."""
    order = gp.order
    for q, e in nt.factorize(order).items():
        for _ in range(e):
            if power(gp, g, order // q) == IDENTITY:
                order //= q
            else:
                break
    return order


def commutator_depth(gp: GroupParams) -> int:
    """c with [G, G] = <x^(p^(r-c))>: 2 for class1, 1 for class2, 0 for the
    abelian class, whose commutator subgroup <x^(p^r)> is trivial."""
    return 2 if gp.class_tag == CLASS1 else 1 if gp.class_tag == CLASS2 else 0


def abelianization_map(gp: GroupParams, g: Element) -> tuple[int, int]:
    """Projection to G/[G,G] = Z_{p^(r-c)} x Z_{p^2}."""
    c = commutator_depth(gp)
    a, b = g
    return (a % gp.p ** (gp.r - c), b)
