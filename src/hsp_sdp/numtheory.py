"""Exact modular arithmetic helpers.

Everything here works on plain Python ints (arbitrary precision); the 2**63
group-order guard lives in the constructors that call these, not here.
"""

from __future__ import annotations

import math

from .errors import NotInvertible

#: Valuation returned for 0 (divisible by every power of p).
INFINITE = math.inf


def mod_inv(a: int, modulus: int) -> int:
    """Multiplicative inverse of a mod modulus; raises NotInvertible."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    try:
        return pow(a, -1, modulus)
    except ValueError as exc:
        raise NotInvertible(f"{a} is not a unit modulo {modulus}") from exc


def p_valuation(a: int, p: int) -> tuple[int | float, int]:
    """(v, u) with a = p**v * u and p not dividing u; (inf, 0) for a == 0."""
    if p < 2:
        raise ValueError("p must be at least 2")
    if a == 0:
        return INFINITE, 0
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def is_prime(n: int) -> bool:
    """Deterministic trial division; intended for desk-scale n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
