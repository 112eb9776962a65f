"""Exact modular arithmetic helpers.

Everything here works on plain Python ints (arbitrary precision); the 2**63
group-order guard lives in the constructors that call these, not here.
"""

from __future__ import annotations

import itertools
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


#: Miller-Rabin to these bases (the first 13 primes) is exact for every
#: n < 3.3 * 10^24 (Sorenson and Webster, 2017), far above the 2**63 guard.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to _MR_BASES: exact below 3.3 * 10^24,
    a strong probable-prime test above."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho on y^2 + c with
    Brent's cycle search and gcds batched over 128 steps, c = 1, 2, ...
    until a walk splits n."""
    for c in itertools.count(1):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g < n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent}, primes ascending: rho splits the
    composite parts until is_prime accepts every part."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = 2 if m % 2 == 0 else _rho(m)
            parts += (d, m // d)
    return dict(sorted(out.items()))
