"""Number-theory utilities, pinned against independent naive oracles."""

import math
import random

import pytest

from sylowpi import arith
from sylowpi.arith import (
    eps_mod4,
    is_fermat_prime,
    is_prime,
    mult_order,
    pi_free,
    pi_part,
    prime_divisors,
    prime_set,
    r_part,
)


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def naive_order(q: int, r: int) -> int:
    x = q % r
    acc, e = x, 1
    while acc != 1:
        acc = acc * x % r
        e += 1
    return e


def naive_r_part(m: int, r: int) -> int:
    out = 1
    while m % r == 0:
        m //= r
        out *= r
    return out


def test_is_prime_small_range():
    for n in range(-5, 2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)  # beyond the deterministic witness bound


def test_is_prime_on_both_sides_of_the_four_witness_bound():
    # below 3,215,031,751, the least strong pseudoprime to 2, 3, 5 and 7,
    # those four witnesses decide alone; 25,326,001 is a strong pseudoprime
    # to 2, 3 and 5, so the witness 7 is needed below the bound
    bound = 3_215_031_751
    cases = [25_326_001, *range(bound - 60, bound + 60)]
    assert sum(map(naive_is_prime, cases)) >= 4  # primes below and above the bound
    for n in cases:
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_names_the_bit_count_of_a_refused_input():
    # not the digits, which number thousands for a q near int()'s limit
    for n, bits in ((2**89 - 1, 89), (10**4299 + 7, 14281)):
        with pytest.raises(ValueError) as err:
            is_prime(n)
        assert str(err.value).endswith(f"got a number of {bits} bits")
        assert len(str(err.value)) < 200


def test_prime_set_validates():
    assert prime_set([2, 3, 5]) == frozenset({2, 3, 5})
    assert prime_set([]) == frozenset()
    with pytest.raises(ValueError):
        prime_set([2, 4])
    with pytest.raises(ValueError):
        prime_set([2, 2, 3])  # duplicates rejected, not deduped


def test_prime_divisors_matches_trial_division():
    for n in range(1, 5000):
        expected = frozenset(p for p in range(2, n + 1)
                             if n % p == 0 and naive_is_prime(p))
        assert prime_divisors(n) == expected, n


def test_prime_divisors_large_composite():
    n = 2**4 * 3**2 * 10007 * 10009
    assert prime_divisors(n) == frozenset({2, 3, 10007, 10009})
    # semiprime beyond the trial-division cutoff (exercises the rho path)
    assert prime_divisors(1000003 * 1000033) == frozenset({1000003, 1000033})


def test_mult_order_against_naive_loop():
    for q in range(2, 100):
        for r in range(3, 100):
            if not naive_is_prime(r) or q % r == 0:
                continue
            assert mult_order(q, r) == naive_order(q, r), (q, r)


def test_mult_order_rejects_bad_input():
    with pytest.raises(ValueError):
        mult_order(7, 4)  # composite modulus
    with pytest.raises(ValueError):
        mult_order(7, 7)  # not coprime
    with pytest.raises(ValueError):
        mult_order(1, 3)


def test_r_part_against_repeated_division():
    for m in range(1, 3000):
        for r in (2, 3, 5, 7, 11):
            assert r_part(m, r) == naive_r_part(m, r), (m, r)


def naive_pi_free(m: int, pi) -> int:
    for s in pi:
        while m % s == 0:
            m //= s
    return m


def gcd_doubling_pi_free(m: int, pi) -> int:
    """pi_free's gcd doubling written out: the reference for a pi holding a
    non-prime such as 1, 4 or 49, where what is divided out depends on the
    algorithm and not on the primes of pi alone."""
    h = math.gcd(m, math.prod(s for s in pi if m % s == 0))
    while h > 1:
        m //= h
        h = math.gcd(m, h * h)
    return m


def test_pi_parts_against_one_power_at_a_time():
    # m is an odd cofactor below 2^100 times powers of the first 15 primes:
    # the primes in `big` share about 3,900 bits, the others take at most 7
    # powers, so m has up to about 4,100 bits over these 300 draws
    rng = random.Random(0)
    primes = arith._SMALL_PRIMES
    for _ in range(300):
        m = rng.getrandbits(rng.randrange(1, 100)) | 1
        big = rng.sample(primes, rng.randrange(1, len(primes) + 1))
        for p in primes:
            top = int(3900 / len(big) / math.log2(p)) if p in big else 8
            m *= p ** rng.randrange(top)
        pi = rng.sample(primes, rng.randrange(len(primes) + 1))
        rest = naive_pi_free(m, pi)
        assert (pi_free(m, pi), pi_part(m, pi)) == (rest, m // rest), (m, pi)
        for r in primes:
            assert r_part(m, r) == m // naive_pi_free(m, (r,)), (m, r)
        pi.append(rng.choice((1, 4, 49)))
        assert pi_free(m, pi) == gcd_doubling_pi_free(m, pi), (m, pi)
    with pytest.raises(ValueError, match="expected a positive integer, got 0"):
        pi_free(0, {2})


def test_fermat_primes():
    fermat = {3, 5, 17, 257, 65537}
    for t in range(3, 70000):
        if naive_is_prime(t):
            assert is_fermat_prime(t) == (t in fermat), t


def test_pollard_rho_gives_up_after_its_step_budget(monkeypatch):
    n = 10007 * 10009  # both factors above the trial-division bound: 40 steps
    assert prime_divisors(n) == {10007, 10009}
    monkeypatch.setattr(arith, "_RHO_STEPS", 3)
    with pytest.raises(ArithmeticError, match=f"^failed to factor {n}$"):
        prime_divisors(n)


def test_refusals_and_non_fermat_values():
    for call in (lambda: prime_divisors(0), lambda: r_part(0, 2)):
        with pytest.raises(ValueError, match="expected a positive integer, got 0"):
            call()
    assert not is_fermat_prime(9)  # 2^3 + 1, but not prime


def test_eps_mod4():
    assert eps_mod4(5) == 1
    assert eps_mod4(9) == 1
    assert eps_mod4(7) == -1
    assert eps_mod4(11) == -1
    with pytest.raises(ValueError):
        eps_mod4(8)
