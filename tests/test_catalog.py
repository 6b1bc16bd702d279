"""Group identification, validation, order formulas and Weyl orders."""

import math
import random
import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sylowpi import catalog
from sylowpi.arith import is_prime, prime_divisors
from sylowpi.catalog import (
    LIE_TYPES,
    RANKED_TYPES,
    SPORADIC_ORDERS,
    SUZUKI_REE,
    alt,
    facts,
    lie,
    order_of,
    parse_group,
    pi_effective,
    prime_power,
    spectrum_within,
    sporadic,
    weyl_order,
)


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def trial_division_prime_power(q: int):
    """Reference: (p, f) from the smallest prime factor p of q."""
    p = 2
    while p * p <= q and q % p:
        p += 1
    if p * p > q:
        return q, 1
    f = 0
    while q % p == 0:
        q //= p
        f += 1
    return (p, f) if q == 1 else None


def test_prime_power_matches_trial_division():
    for q in range(2, 100_000):
        assert prime_power(q) == trial_division_prime_power(q), q


def test_prime_power_matches_sympy_on_large_prime_powers():
    rng = random.Random(6)
    for _ in range(300):
        p = sympy.nextprime(rng.randrange(2, 10 ** rng.randrange(2, 13)))
        f = rng.randrange(1, 9)
        # is_prime, which decides whether q itself is prime, refuses
        # q >= 3.3e24, so the non-prime-powers stay below 10^24
        others = [m for m in (p**f + 1, p**f * 2, p**f * sympy.nextprime(p)) if m < 10**24]
        for q in [p**f] + others:
            pp = sympy.perfect_power(q)
            if pp and sympy.isprime(pp[0]):
                want = (int(pp[0]), int(pp[1]))
            else:
                want = (q, 1) if sympy.isprime(q) else None
            assert prime_power(q) == want, q
    assert prime_power(10_000_000_000_000_061) == (10_000_000_000_000_061, 1)


def test_prime_power_refuses_a_prime_above_the_primality_bound():
    with pytest.raises(ValueError, match="only deterministic below"):
        prime_power(2**89 - 1)


def rejected(reason, build):
    """Building the id raises ValueError with exactly this reason."""
    with pytest.raises(ValueError, match="^" + re.escape(reason) + "$"):
        build()


def test_validate_alternating():
    alt(5)
    rejected("Alt(4): alternating groups are simple only for n >= 5", lambda: alt(4))


def test_validate_lie_exclusions():
    # non-simple small parameter pairs are rejected
    rejected("A(2,2) is not simple", lambda: lie("A", 2, n=2))       # PSL(2,2)
    rejected("A(2,3) is not simple", lambda: lie("A", 3, n=2))       # PSL(2,3)
    rejected("2A(3,2) is not simple", lambda: lie("2A", 2, n=3))     # PSU(3,2)
    rejected("B(2,2) is not simple", lambda: lie("B", 2, n=2))
    rejected("C(2,2) is not simple", lambda: lie("C", 2, n=2))
    rejected("G2(2) is not simple", lambda: lie("G2", 2))
    lie("A", 4, n=2)
    lie("G2", 3)
    # Suzuki/Ree need an odd power of the right characteristic
    lie("2B2", 8)
    rejected("2B2 requires q = 2^(2m+1) with m >= 1", lambda: lie("2B2", 2))
    rejected("2B2 requires q = 2^(2m+1) with m >= 1", lambda: lie("2B2", 4))
    lie("2G2", 27)
    rejected("2G2 requires q = 3^(2m+1) with m >= 1", lambda: lie("2G2", 3))
    lie("2F4", 8)
    rejected("D(n,q) requires n >= 4", lambda: lie("D", 7, n=3))     # rank too small


# each ranked type at its least rank n and at n - 1, and each non-simple
# exception, with the refusal it gets (None: the id is built)
TABLE_EDGES = [
    ("A", 2, 5, None), ("A", 1, 5, "A(n,q) requires n >= 2"),
    ("2A", 3, 5, None), ("2A", 2, 5, "2A(n,q) requires n >= 3"),
    ("B", 2, 5, None), ("B", 1, 5, "B(n,q) requires n >= 2"),
    ("C", 2, 5, None), ("C", 1, 5, "C(n,q) requires n >= 2"),
    ("D", 4, 5, None), ("D", 3, 5, "D(n,q) requires n >= 4"),
    ("2D", 4, 5, None), ("2D", 3, 5, "2D(n,q) requires n >= 4"),
    ("A", 2, 2, "A(2,2) is not simple"), ("A", 2, 3, "A(2,3) is not simple"),
    ("2A", 3, 2, "2A(3,2) is not simple"), ("B", 2, 2, "B(2,2) is not simple"),
    ("C", 2, 2, "C(2,2) is not simple"), ("G2", None, 2, "G2(2) is not simple"),
]


@pytest.mark.parametrize("t, n, q, reason", TABLE_EDGES)
def test_validation_tables_at_their_edges(t, n, q, reason):
    # the cases cover every entry of both tables
    built = {edge[:2] for edge in TABLE_EDGES if edge[3] is None}
    assert built == set(catalog._LEAST_RANK.items())
    assert catalog._NOT_SIMPLE == {edge[:3] for edge in TABLE_EDGES[12:]}
    if reason is None:
        assert lie(t, q, n=n).n == n
    else:
        rejected(reason, lambda: lie(t, q, n=n))


def test_validate_parameters():
    rejected("type A needs a rank parameter", lambda: lie("A", 7))
    rejected("type E8 takes no rank parameter", lambda: lie("E8", 2, n=3))
    rejected("unknown family 'X'", lambda: catalog.SimpleGroupId(family="X"))


def test_orders_classical():
    # |PSL(2,q)| = q(q^2-1)/gcd(2,q-1)
    for q in (4, 5, 7, 8, 9, 11):
        expected = q * (q * q - 1) // math.gcd(2, q - 1)
        assert facts(lie("A", q, n=2)).order == expected
    assert facts(lie("A", 2, n=3)).order == 168      # PSL(3,2)
    assert facts(lie("2A", 3, n=3)).order == 6048    # PSU(3,3)
    assert facts(lie("B", 3, n=2)).order == 25920    # PSp(4,3)
    assert facts(lie("C", 2, n=3)).order == 1451520  # PSp(6,2)
    assert facts(lie("D", 2, n=4)).order == 174182400
    assert facts(lie("2D", 2, n=4)).order == 197406720


def test_orders_exceptional():
    assert facts(lie("G2", 3)).order == 4245696
    assert facts(lie("2B2", 8)).order == 29120
    assert facts(lie("2G2", 27)).order == 10073444472
    assert facts(lie("3D4", 2)).order == 211341312
    assert facts(lie("F4", 2)).order == 3311126603366400
    assert facts(lie("E6", 2)).order == 214841575522005575270400


def test_alternating_and_sporadic_facts():
    a5 = facts(alt(5))
    assert a5.order == 60 and a5.spectrum == {2, 3, 5}
    m11 = facts(sporadic("M11"))
    assert m11.order == 7920 and m11.spectrum == {2, 3, 5, 11}
    assert facts(sporadic("Tits")).order == SPORADIC_ORDERS["2F4(2)'"]
    assert facts(sporadic("O'N")).order == SPORADIC_ORDERS["ON"]
    assert facts(sporadic("M(23)")).order == SPORADIC_ORDERS["Fi23"]


def test_alternating_spectrum_without_the_order():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.integers(5, 45), st.frozensets(st.sampled_from(primes)))
    def check(n, pi):
        gid, order = alt(n), math.factorial(n) // 2
        assert order_of(gid) == order
        assert pi_effective(gid, pi) == {p for p in pi if order % p == 0}
        assert spectrum_within(gid, pi) == (_pi_stripped(order, pi) == 1)

    check()


def test_alternating_pi_effective_reads_composite_members():
    # every s <= n divides n!/2; a larger composite may, by Legendre's
    # formula: 8 and 9 divide 7!/2 = 2520, while 16, 25 and 22 do not;
    # Alt(10^9)'s order is never built
    for n in range(5, 13):
        order = math.factorial(n) // 2
        for s in range(1, 400):
            assert pi_effective(alt(n), {s}) == ({s} if order % s == 0 else set()), (n, s)
    assert pi_effective(alt(7), {2, 8, 9, 16, 25, 22, 11}) == {2, 8, 9}
    big = 10**9 + 7  # prime
    assert pi_effective(alt(10**9), {2**40, 3**30 * 5, big, 2 * big}) == {2**40, 3**30 * 5}


def _pi_stripped(m, pi):
    """Reference: m with the primes of pi divided out one power at a time."""
    for p in pi:
        while m % p == 0:
            m //= p
    return m


def test_spectrum_within_on_orders_with_a_huge_power_of_2():
    # characteristic 2: 2^26 to 2^19,900 divides each order; pi is pi(G),
    # pi(G) less one prime (2 among them), {2, 3} or {3, 5}
    for spec in ("Lie:A:24:2", "Lie:A:10:4", "Lie:C:10:2", "Lie:2A:12:2", "Lie:D:9:2",
                 "Lie:E8:2", "Lie:2F4:8", "Lie:2B2:8192", "Lie:A:200:2"):
        gid = parse_group(spec)
        m = order_of(gid)
        spectrum = prime_divisors(m) if m.bit_length() < 1000 else set()
        for pi in [spectrum, {2, 3}, {3, 5}, *(spectrum - {p} for p in spectrum)]:
            assert spectrum_within(gid, pi) == (_pi_stripped(m, pi) == 1), (spec, pi)


def spectrum_ids():
    """Every sporadic group, Alt(5)-Alt(12), and every Lie type at two or
    three prime powers, a ranked type at its least rank and one above."""
    yield from map(sporadic, SPORADIC_ORDERS)
    yield from map(alt, range(5, 13))
    for t in LIE_TYPES:
        if t in SUZUKI_REE:
            yield from (lie(t, q) for q in {"2B2": (8, 32, 128), "2G2": (27, 243),
                                            "2F4": (8, 32)}[t])
            continue
        least = catalog._LEAST_RANK.get(t)
        for n in (None,) if least is None else (least, least + 1):
            qs = [q for q in (2, 3, 4, 5) if (t, n, q) not in catalog._NOT_SIMPLE]
            yield from (lie(t, q, n=n) for q in qs[:3])


def test_spectrum_within_matches_stripping_the_order():
    # 98 groups and 1,418 (G, pi) rows in about 0.03 s: pi(G), pi(G) less
    # each prime, pi(G) and one prime outside it, and six seeded subsets of
    # the latter
    rng = random.Random(39)
    rows = 0
    for gid in spectrum_ids():
        order = order_of(gid)
        spectrum = prime_divisors(order)
        absent = next(r for r in range(3, 1000) if is_prime(r) and order % r)
        pool = sorted(spectrum | {absent})
        pis = [spectrum, spectrum | {absent}, *(spectrum - {s} for s in spectrum)]
        pis += [{s for s in pool if rng.random() < 0.8} for _ in range(6)]
        for pi in pis:
            assert spectrum_within(gid, pi) == (_pi_stripped(order, pi) == 1), (gid, pi)
            rows += 1
        # without 2, 3 (all but 2B2) or p, no order is built: the id is fresh
        for s in {2, gid.p or 2} | (set() if gid.lie_type == "2B2" else {3}):
            fresh = catalog.SimpleGroupId(*gid)
            assert not spectrum_within(fresh, spectrum - {s}), (gid, s)
            assert "order" not in fresh.__dict__, (gid, s)
    assert rows == 1418
    # pi(Sz(8)) holds no 3
    assert spectrum_within(lie("2B2", 8), {2, 5, 7, 13})


def factor_ids():
    """Every Lie type: a ranked type from its least rank to two above it,
    q < 32, and the Suzuki-Ree families at q < 256."""
    qs = [q for q in range(2, 32) if prime_power(q)]
    for t in LIE_TYPES:
        if t in SUZUKI_REE:
            yield from (lie(t, q) for q in {"2B2": (8, 32, 128), "2G2": (27,),
                                            "2F4": (8, 32, 128)}[t])
            continue
        least = catalog._LEAST_RANK.get(t)
        for n in (None,) if least is None else range(least, least + 3):
            yield from (lie(t, q, n=n) for q in qs if (t, n, q) not in catalog._NOT_SIMPLE)


def test_order_factors_decide_like_the_exact_order():
    # 426 groups, 8,520 pi_effective rows and 8,456 spectrum_within rows
    # (816 true), in about 0.3 s.  pi_effective takes 1-4 primes below 44
    # and, in every other row, one of the composite members 1, 4, 9 and 15;
    # spectrum_within takes pi(G), pi(G) with one prime added or removed, and
    # ten seeded pi of 1-4 primes.  The spectrum reference factors |G|, so the
    # 18 groups E7(q) and E8(q) whose order it cannot factor (a cofactor past
    # the primality bound) are left out of the second half.
    rng = random.Random(46)
    primes = [s for s in range(2, 44) if is_prime(s)]
    groups = rows = within = true = 0
    for gid in factor_ids():
        order = order_of(gid)
        fresh = catalog.SimpleGroupId(*gid)
        for i in range(20):
            pi = set(rng.sample(primes, rng.randint(1, 4)))
            pi |= {rng.choice((1, 4, 9, 15))} if i % 2 else set()
            assert pi_effective(fresh, pi) == {s for s in pi if order % s == 0}, (gid, pi)
            rows += 1
        groups += 1
        try:
            spectrum = prime_divisors(order)
        except ValueError:
            continue
        absent = next(s for s in primes if order % s)
        pis = [spectrum, spectrum | {absent}, *(spectrum - {s} for s in spectrum)]
        pis += [set(rng.sample(primes, rng.randint(1, 4))) for _ in range(10)]
        for pi in pis:
            got = spectrum_within(fresh, pi)
            assert got == (spectrum <= pi), (gid, sorted(pi))
            within, true = within + 1, true + got
        assert "order" not in fresh.__dict__, gid
    assert (groups, rows, within, true) == (426, 8520, 8456, 816)


def test_sporadic_spectra_spot_checks():
    assert facts(sporadic("J1")).spectrum == {2, 3, 5, 7, 11, 19}
    assert facts(sporadic("Ly")).spectrum == {2, 3, 5, 7, 11, 31, 37, 67}
    assert facts(sporadic("M")).spectrum == {2, 3, 5, 7, 11, 13, 17, 19, 23,
                                             29, 31, 41, 47, 59, 71}


def test_weyl_orders():
    assert weyl_order("A", 5) == 120
    assert weyl_order("2A", 4) == 24
    assert weyl_order("B", 3) == 48
    assert weyl_order("C", 2) == 8
    assert weyl_order("D", 4) == 192
    assert weyl_order("2D", 4) == 192
    assert weyl_order("E8") == 696729600
    assert weyl_order("3D4") == 192
    with pytest.raises(ValueError):
        weyl_order("2B2")
    with pytest.raises(ValueError):
        weyl_order("2G2")


# Reference: the per-type order formulas and Weyl orders that the degree
# table replaced.  The catalog must agree with them wherever they are defined.

REFERENCE_EXCEPTIONAL_WEYL = {
    "G2": 12,
    "F4": 1152,
    "E6": 51840,
    "E7": 2903040,
    "E8": 696729600,
    # twisted types: order of the Weyl group of the ambient root system
    "3D4": 192,
    "2E6": 51840,
}


def reference_weyl_order(lie_type: str, n: int | None = None) -> int:
    """Order of the Weyl group; for twisted classical types this is the
    Weyl group of the ambient untwisted root system."""
    if lie_type in SUZUKI_REE:
        raise ValueError(f"Weyl order is not defined here for {lie_type}")
    if lie_type in REFERENCE_EXCEPTIONAL_WEYL:
        return REFERENCE_EXCEPTIONAL_WEYL[lie_type]
    if n is None:
        raise ValueError(f"type {lie_type} needs a rank")
    if lie_type in ("A", "2A"):
        return math.factorial(n)
    if lie_type in ("B", "C"):
        return 2**n * math.factorial(n)
    if lie_type in ("D", "2D"):
        return 2 ** (n - 1) * math.factorial(n)
    raise ValueError(f"unknown Lie type {lie_type!r}")


def reference_lie_order(t: str, n: int | None, q: int) -> int:
    if t == "A":
        o = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            o *= q**i - 1
        return o // math.gcd(n, q - 1)
    if t == "2A":
        o = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            o *= q**i - (-1) ** i
        return o // math.gcd(n, q + 1)
    if t in ("B", "C"):
        o = q ** (n * n)
        for i in range(1, n + 1):
            o *= q ** (2 * i) - 1
        return o // math.gcd(2, q - 1)
    if t == "D":
        o = q ** (n * (n - 1)) * (q**n - 1)
        for i in range(1, n):
            o *= q ** (2 * i) - 1
        return o // math.gcd(4, q**n - 1)
    if t == "2D":
        o = q ** (n * (n - 1)) * (q**n + 1)
        for i in range(1, n):
            o *= q ** (2 * i) - 1
        return o // math.gcd(4, q**n + 1)
    if t == "G2":
        return q**6 * (q**6 - 1) * (q**2 - 1)
    if t == "F4":
        return q**24 * (q**12 - 1) * (q**8 - 1) * (q**6 - 1) * (q**2 - 1)
    if t == "E6":
        o = q**36
        for d in (12, 9, 8, 6, 5, 2):
            o *= q**d - 1
        return o // math.gcd(3, q - 1)
    if t == "2E6":
        o = q**36 * (q**9 + 1) * (q**5 + 1)
        for d in (12, 8, 6, 2):
            o *= q**d - 1
        return o // math.gcd(3, q + 1)
    if t == "E7":
        o = q**63
        for d in (18, 14, 12, 10, 8, 6, 2):
            o *= q**d - 1
        return o // math.gcd(2, q - 1)
    if t == "E8":
        o = q**120
        for d in (30, 24, 20, 18, 14, 12, 8, 2):
            o *= q**d - 1
        return o
    if t == "3D4":
        return q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1)
    if t == "2B2":
        return q**2 * (q**2 + 1) * (q - 1)
    if t == "2G2":
        return q**3 * (q**3 + 1) * (q - 1)
    if t == "2F4":
        return q**12 * (q**6 + 1) * (q**4 - 1) * (q**3 + 1) * (q - 1)
    raise ValueError(f"unknown Lie type {t!r}")


def _type_ranks():
    """Every Lie type with each rank 1..13 if the type is ranked, else None;
    the ranks include invalid ones, where the formulas still agree."""
    return [(t, n) for t in LIE_TYPES
            for n in (range(1, 14) if t in RANKED_TYPES else (None,))]


def test_degree_table_matches_reference_orders():
    # 2D at even rank n has the degree n twice, and only the Pfaffian's
    # factor is q^n + 1
    assert ("2D", 4) in _type_ranks() and ("2D", 12) in _type_ranks()
    qs = [q for q in range(2, 600) if prime_power(q)]
    qs += [2**31, 2**61, 3**41, 10007**3, 2**127 - 1]
    for t, n in _type_ranks():
        for q in qs:
            assert catalog._lie_order(t, n, q) == reference_lie_order(t, n, q), (t, n, q)


def test_degree_table_matches_reference_weyl_orders():
    cases = _type_ranks() + [(t, None) for t in RANKED_TYPES] + [
        (t, 4) for t in SUZUKI_REE] + [("X", None), ("X", 3)]
    for t, n in cases:
        try:
            want = reference_weyl_order(t, n)
        except ValueError as exc:
            with pytest.raises(ValueError, match="^" + re.escape(str(exc)) + "$"):
                weyl_order(t, n)
        else:
            assert weyl_order(t, n) == want, (t, n)
    with pytest.raises(ValueError, match="^unknown Lie type 'X'$"):
        catalog._lie_order("X", None, 4)


def test_lie_ids_carry_characteristic_and_weyl():
    # the characteristic is found once, when the id is validated
    gid = lie("A", 8, n=2)
    assert gid.p == 2 and weyl_order(gid.lie_type, gid.n) == 2
    gid = lie("2G2", 27)
    assert gid.p == 3
    with pytest.raises(ValueError):
        weyl_order(gid.lie_type, gid.n)


def test_parse_group_round_trip():
    for spec in ("Alt:7", "Spor:M11", "Lie:A:2:7", "Lie:2A:4:3",
                 "Lie:G2:4", "Lie:2B2:8"):
        gid = parse_group(spec)
        assert gid.spec() == spec
        assert parse_group(gid.spec()) == gid


def test_parse_group_rejects_garbage():
    for bad in ("Alt", "Alt:x", "Lie:A:7", "Lie:G2:2:3", "Foo:1", ""):
        with pytest.raises(ValueError):
            parse_group(bad)
