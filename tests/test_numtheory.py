import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsp_sdp import group as gr
from hsp_sdp import numtheory as nt
from hsp_sdp.errors import NotInvertible


# ------------------------------------------------------- powers of the twist

def test_mod_pow_frozen_values():
    # 28 has multiplicative order 9 modulo 3^5
    assert pow(28, 9, 243) == 1
    assert pow(28, 3, 243) == 82
    assert pow(5, 0, 7) == 1


def test_mod_pow_order_witnesses():
    # order exactly 9: no smaller positive exponent hits 1
    assert all(pow(28, e, 243) != 1 for e in range(1, 9))
    # 82 = 28^3 has order 3: the degenerate-twist generator
    assert pow(82, 3, 243) == 1
    assert pow(82, 1, 243) != 1


# ---------------------------------------------------------------- mod_inv

def test_mod_inv_frozen_values():
    assert nt.mod_inv(2, 3) == 2
    for m in (2, 3, 9, 243, 10**6 + 3):
        assert nt.mod_inv(1, m if m > 1 else 2) == 1


def test_mod_inv_not_invertible():
    with pytest.raises(NotInvertible):
        nt.mod_inv(3, 9)
    with pytest.raises(NotInvertible):
        nt.mod_inv(0, 5)


@given(
    a=st.integers(min_value=-10**6, max_value=10**6),
    m=st.integers(min_value=2, max_value=10**4),
)
@settings(max_examples=300)
def test_mod_inv_property(a, m):
    if math.gcd(a, m) == 1:
        inv = nt.mod_inv(a, m)
        assert 0 <= inv < m
        assert (a * inv) % m == 1
    else:
        with pytest.raises(NotInvertible):
            nt.mod_inv(a, m)


# ---------------------------------------------------------------- p_valuation

def test_p_valuation_frozen_values():
    assert nt.p_valuation(54, 3) == (3, 2)
    assert nt.p_valuation(7, 3) == (0, 7)
    v, _ = nt.p_valuation(0, 3)
    assert v == math.inf


@given(
    p=st.sampled_from([2, 3, 5, 7, 11]),
    v=st.integers(min_value=0, max_value=12),
    u=st.integers(min_value=1, max_value=10**4),
)
@settings(max_examples=200)
def test_p_valuation_reconstruction(p, v, u):
    if u % p == 0:
        u += 1
        if u % p == 0:
            return
    a = p**v * u
    got_v, got_u = nt.p_valuation(a, p)
    assert got_v == v
    assert got_u == u


# ---------------------------------------------------------------- primes

def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert nt.is_prime(n) == (n in primes)
    assert nt.is_prime(7919)
    assert not nt.is_prime(7917)


def test_factorize():
    assert nt.factorize(1215) == {3: 5, 5: 1}
    assert nt.factorize(1) == {}
    assert nt.factorize(2**10) == {2: 10}
    n = 243 * 25 * 7
    f = nt.factorize(n)
    assert math.prod(p**e for p, e in f.items()) == n


def smallest_prime_factors(bound: int) -> list[int]:
    spf = list(range(bound))
    for d in range(2, math.isqrt(bound - 1) + 1):
        if spf[d] == d:
            for m in range(d * d, bound, d):
                if spf[m] == m:
                    spf[m] = d
    return spf


def test_factorize_and_is_prime_match_trial_division_below_1e5():
    spf = smallest_prime_factors(10**5)
    for n in range(1, 10**5):
        want: dict[int, int] = {}
        m = n
        while m > 1:
            want[spf[m]] = want.get(spf[m], 0) + 1
            m //= spf[m]
        got = nt.factorize(n)
        assert got == want and list(got) == sorted(got), n
        assert nt.is_prime(n) == (n > 1 and spf[n] == n), n


def proth_prime_below(m: int, bound: int) -> int:
    """The largest q = k 2^m + 1 < bound, k odd < 2^m, that Proth's theorem
    certifies prime: a^((q-1)/2) == -1 (mod q) for some a."""
    k = (bound - 2) >> m
    k -= 1 - k % 2
    while not any(pow(a, (k << m) >> 1, (k << m) + 1) == k << m for a in (3, 5, 7, 11)):
        k -= 2
    assert k < 2**m
    return (k << m) + 1


# the largest composite x modulus: N * 3^2 stays below the group order guard
N_GUARD = gr.ORDER_GUARD // 9


def test_factorize_semiprimes_and_prime_powers_near_the_order_guard():
    q = proth_prime_below(27, N_GUARD // 243)
    a = proth_prime_below(16, math.isqrt(N_GUARD))
    b = proth_prime_below(16, a)
    c = proth_prime_below(10, round(N_GUARD ** (1 / 3)))
    d = proth_prime_below(27, N_GUARD // 101)
    cases = [{3: 5, q: 1}, {a: 1, b: 1}, {a: 2}, {c: 3}, {101: 1, d: 1}, {5: 1, 7: 1, q: 1}]
    cases += [{q: 1}, {d: 1}, {proth_prime_below(31, N_GUARD): 1}]
    cases += [{p: int(math.log(N_GUARD, p))} for p in (3, 5, 7, 101, 1009)]
    for want in cases:
        n = math.prod(p**e for p, e in want.items())
        assert N_GUARD // 2**12 < n < N_GUARD, want
        got = nt.factorize(n)
        assert got == want and list(got) == sorted(got), want
        assert nt.is_prime(n) == (want == {n: 1})


def test_is_prime_rejects_strong_pseudoprimes_to_small_base_sets():
    # strong pseudoprimes to the bases 2..7 and to the first nine primes 2..23
    assert not nt.is_prime(3215031751)
    assert nt.factorize(3215031751) == {151: 1, 751: 1, 28351: 1}
    assert not nt.is_prime(3825123056546413051)
    assert nt.factorize(3825123056546413051) == {149491: 1, 747451: 1, 34233211: 1}
