"""Number-theoretic primitives backing the arithmetic D_pi criterion.

Everything here is pure and works with arbitrary-precision integers:
orders of groups of Lie type overflow 64 bits at small parameters already.
"""

from __future__ import annotations

import math

# Deterministic Miller-Rabin witness set; correct for all n below this bound.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
# the least strong pseudoprime to the witnesses 2, 3, 5 and 7: below it they suffice
_MR_SMALL_BOUND = 3_215_031_751

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_BOUND:
        # the size, not the digits: n may have thousands of them
        raise ValueError(f"primality test only deterministic below {_MR_BOUND}: "
                         f"got a number of {n.bit_length()} bits")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:4] if n < _MR_SMALL_BOUND else _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_set(values) -> frozenset[int]:
    """Build a set of primes, rejecting non-primes and duplicates."""
    out = []
    for v in values:
        v = int(v)
        if not is_prime(v):
            raise ValueError(f"{v} is not prime")
        if v in out:
            raise ValueError(f"duplicate prime {v}")
        out.append(v)
    return frozenset(out)


# steps of _pollard_rho over all its c: below _MR_BOUND the least prime factor
# p of a composite that trial division leaves is below 1.9e12, and a step
# count k misses it with chance about exp(-k^2 / 2p), 4e-9 here.  2^23 steps
# on an 80-bit n take about 15 s on one Xeon core
_RHO_STEPS = 1 << 23


def _pollard_rho(n: int) -> int:
    """Find a nontrivial factor of odd composite n, or raise ArithmeticError
    once _RHO_STEPS steps have found none."""
    budget = _RHO_STEPS
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1 and budget:
            budget -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if 1 < d < n:
            return d
    raise ArithmeticError(f"failed to factor {n}")


def prime_divisors(n: int) -> frozenset[int]:
    """Set of primes dividing n (empty for n = 1)."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out: set[int] = set()
    for p in (2, 3, 5):
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    # trial division with the 30-wheel up to 10^4, Pollard rho beyond
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p <= 10_000 and p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.add(m)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return frozenset(out)


def mult_order(q: int, r: int) -> int:
    """Multiplicative order of q modulo the odd prime r."""
    if q < 2:
        raise ValueError(f"base must be >= 2, got {q}")
    if r == 2 or not is_prime(r):
        raise ValueError(f"{r} is not an odd prime")
    if q % r == 0:
        raise ValueError(f"{r} divides {q}; order undefined")
    e = 1
    x = q % r
    while x != 1:
        x = x * q % r
        e += 1
    return e


def pi_free(m: int, pi) -> int:
    """m with every prime of pi divided out: step k divides out up to
    s^(2^k) of each prime s of pi left in m, one gcd per step, so about
    log2 of the largest exponent steps in all."""
    if m < 1:
        raise ValueError(f"expected a positive integer, got {m}")
    h = math.gcd(m, math.prod(s for s in pi if m % s == 0))
    while h > 1:
        m //= h
        h = math.gcd(m, h * h)
    return m


def pi_part(m: int, pi) -> int:
    """Largest divisor of m whose primes all lie in pi: |G|_pi for m = |G|."""
    return m // pi_free(m, pi)


def r_part(m: int, r: int) -> int:
    """Largest power of the prime r dividing m."""
    return pi_part(m, (r,))


def is_fermat_prime(t: int) -> bool:
    """True iff t is a prime of the form 2^k + 1."""
    if not is_prime(t):
        return False
    return (t - 1) & (t - 2) == 0


def eps_mod4(q: int) -> int:
    """The sign eps in {+1, -1} with q = eps (mod 4); q must be odd."""
    if q % 2 == 0:
        raise ValueError(f"q must be odd, got {q}")
    return 1 if q % 4 == 1 else -1
