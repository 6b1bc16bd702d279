"""Identification of finite simple groups: parameter validation, orders,
prime spectra and Weyl-group orders.

A group is named by a `SimpleGroupId`: an alternating degree, a sporadic
Atlas name (the Tits group counts as sporadic here), or a Lie family with
rank/field parameters.  An id is validated once, when it is built: one
naming no simple group raises ValueError with the violated constraint, so
code taking an id may assume it is valid.

Lie orders and Weyl orders come from one table, the degrees d of the basic
invariants of the Weyl group W: |W| is the product of the d (Humphreys,
Reflection Groups and Coxeter Groups, 1990, ch. 3), and the simple group has
order q^N * prod(q^d - e_d) / |Z| with N = sum(d - 1), where e_d is -1 on
the invariants a twist negates and 1 elsewhere, and Z is the centre of the
universal group (Carter, Simple Groups of Lie Type, 1972).  3D4 and the
Suzuki-Ree families list their factors, such as q^8 + q^4 + 1, by hand.

The factors are read three ways: multiplied out for the exact order
(order_of, facts), reduced modulo |Z| times the members of pi for
pi ^ pi(G) (pi_effective), and stripped of pi one at a time for
pi(G) <= pi (spectrum_within).  So a decision never builds |G|.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, partial
from typing import NamedTuple

from .arith import is_prime, pi_free, prime_divisors, r_part

LIE_TYPES = (
    "A", "2A", "B", "C", "D", "2D",
    "3D4", "E6", "2E6", "E7", "E8", "F4", "2F4", "G2", "2G2", "2B2",
)
# families whose rank is part of the identifier, with the least rank of each
_LEAST_RANK = {"A": 2, "2A": 3, "B": 2, "C": 2, "D": 4, "2D": 4}
RANKED_TYPES = tuple(_LEAST_RANK)
# (type, rank, q) that pass every other check but name a non-simple group
_NOT_SIMPLE = {("A", 2, 2), ("A", 2, 3), ("2A", 3, 2), ("B", 2, 2), ("C", 2, 2), ("G2", None, 2)}
# Suzuki/Ree families: odd power of the defining characteristic
SUZUKI_REE = {"2B2": 2, "2G2": 3, "2F4": 2}
# a Lie id is refused when its order would have more than this many bits,
# estimated from the rank before any degree is listed: listing the degrees
# grows with the rank, and building the exact order, which only order_of,
# facts and permbrute do, about as the cube of the rank (Lie:A:1000:2 has
# 999,999 bits)
ORDER_BITS_BOUND = 1 << 20

SPORADIC_ORDERS: dict[str, int] = {
    "M11": 7_920,
    "M12": 95_040,
    "M22": 443_520,
    "M23": 10_200_960,
    "M24": 244_823_040,
    "J1": 175_560,
    "J2": 604_800,
    "J3": 50_232_960,
    "J4": 86_775_571_046_077_562_880,
    "HS": 44_352_000,
    "McL": 898_128_000,
    "He": 4_030_387_200,
    "Ru": 145_926_144_000,
    "Suz": 448_345_497_600,
    "ON": 460_815_505_920,
    "Co1": 4_157_776_806_543_360_000,
    "Co2": 42_305_421_312_000,
    "Co3": 495_766_656_000,
    "Fi22": 64_561_751_654_400,
    "Fi23": 4_089_470_473_293_004_800,
    "Fi24'": 1_255_205_709_190_661_721_292_800,
    "HN": 273_030_912_000_000,
    "Ly": 51_765_179_004_000_000,
    "Th": 90_745_943_887_872_000,
    "B": 4_154_781_481_226_426_191_177_580_544_000_000,
    "M": 808_017_424_794_512_875_886_459_904_961_710_757_005_754_368_000_000_000,
    "2F4(2)'": 17_971_200,
}

SPORADIC_ALIASES = {
    "M(23)": "Fi23",
    "M(24)'": "Fi24'",
    "Fi24": "Fi24'",
    "F24'": "Fi24'",
    "O'N": "ON",
    "T": "2F4(2)'",
    "Tits": "2F4(2)'",
}

# Degrees of the basic invariants of each exceptional Weyl group; 3D4 and
# 2E6 take those of D4 and E6.
_EXCEPTIONAL_DEGREES = {
    "G2": (2, 6),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "3D4": (2, 4, 6, 4),
}
_EXCEPTIONAL_DEGREES["2E6"] = _EXCEPTIONAL_DEGREES["E6"]


class _GroupFields(NamedTuple):
    family: str
    n: int | None = None
    q: int | None = None
    lie_type: str | None = None
    name: str | None = None


class SimpleGroupId(_GroupFields):
    """Identifier of a finite simple group.

    family is "Alt", "Spor" or "Lie".  Alt carries n; Spor carries name;
    Lie carries lie_type, q, and (for classical types) the linear rank n,
    so lie("A", q, n=2) is A_1(q) = PSL(2, q).  A Lie id also carries p,
    the characteristic (q = p^f), which validation finds; it is None for
    the other families.  Ids compare and hash as the tuple of the five
    fields, which are read-only; p is not one of them.
    """

    def __init__(self, *fields, **named):
        # the tuple's __new__ has stored the fields; validation finds p
        self.p = ensure_valid(self)

    @cached_property
    def order(self) -> int:
        """Group order, computed on first use and then kept with the id.
        A decision never asks for it: pi_effective and spectrum_within read
        a Lie order's factors instead."""
        if self.family == "Alt":
            return math.factorial(self.n) // 2
        if self.family == "Spor":
            return SPORADIC_ORDERS[self.name]
        return _lie_order(self.lie_type, self.n, self.q)

    def __str__(self) -> str:
        if self.family == "Alt":
            return f"Alt({self.n})"
        if self.family == "Spor":
            return str(self.name)
        if self.lie_type in RANKED_TYPES:
            return f"{self.lie_type}({self.n},{self.q})"
        return f"{self.lie_type}({self.q})"

    def spec(self) -> str:
        """Render in the CLI group-spec grammar."""
        if self.family == "Alt":
            return f"Alt:{self.n}"
        if self.family == "Spor":
            return f"Spor:{self.name}"
        if self.lie_type in RANKED_TYPES:
            return f"Lie:{self.lie_type}:{self.n}:{self.q}"
        return f"Lie:{self.lie_type}:{self.q}"


class GroupFacts(NamedTuple):
    order: int
    spectrum: frozenset[int]


def alt(n: int) -> SimpleGroupId:
    return SimpleGroupId(family="Alt", n=n)


def sporadic(name: str) -> SimpleGroupId:
    return SimpleGroupId(family="Spor", name=SPORADIC_ALIASES.get(name, name))


def lie(lie_type: str, q: int, n: int | None = None) -> SimpleGroupId:
    return SimpleGroupId(family="Lie", lie_type=lie_type, q=q, n=n)


def _iroot(q: int, k: int) -> int:
    """Largest x with x**k <= q, by Newton's method from above, started at a
    float estimate of the root's leading bits.  One Newton step lifts any
    start to at least the root (a mean of k terms is at least their
    geometric mean, q^(1/k)); a start at 2^ceil(bits/k) would take about k
    steps to fall by half."""
    e = math.log2(q) / k
    shift = max(0, int(e) - 52)
    x = (int(2 ** (e - shift)) + 1) << shift
    x = ((k - 1) * x + q // x ** (k - 1)) // k
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q) -> tuple[int, int] | None:
    """Return (p, f) with q = p^f, or None if q is not a prime power.  A
    perfect power is a perfect l-th power for a prime l, so q is replaced by
    its l-th root while that is exact, for each prime l below its bit length,
    largest first; what is left must be prime.  Polynomial in log q."""
    if not isinstance(q, int) or q < 2:
        return None
    f = 1
    ells = [ell for ell in range(q.bit_length() - 1, 1, -1) if is_prime(ell)]
    i = 0
    while i < len(ells):
        # a root that were a perfect power for a larger prime would have made
        # q one, so the larger primes need no second try
        root = _iroot(q, ells[i])
        if root ** ells[i] == q:
            q, f = root, f * ells[i]
        else:
            i += 1
    return (q, f) if is_prime(q) else None


def ensure_valid(gid: SimpleGroupId) -> int | None:
    """Raise ValueError with the violated constraint unless gid names a
    simple group; return the characteristic of a Lie id, else None."""
    if gid.family == "Alt":
        if gid.n is None or gid.n < 5:
            raise ValueError(f"{gid}: alternating groups are simple only for n >= 5")
        return None
    if gid.family == "Spor":
        if gid.name not in SPORADIC_ORDERS:
            raise ValueError(f"unknown sporadic group name {gid.name!r}")
        return None
    if gid.family != "Lie":
        raise ValueError(f"unknown family {gid.family!r}")
    if gid.lie_type not in LIE_TYPES:
        raise ValueError(f"unknown Lie type {gid.lie_type!r}")
    pf = prime_power(gid.q)
    if pf is None:
        raise ValueError(f"q = {gid.q} is not a prime power")
    t, n = gid.lie_type, gid.n
    if t in _LEAST_RANK and n is None:
        raise ValueError(f"type {t} needs a rank parameter")
    if t not in _LEAST_RANK and n is not None:
        raise ValueError(f"type {t} takes no rank parameter")
    p, f = pf
    if t in SUZUKI_REE and (p != SUZUKI_REE[t] or f % 2 == 0 or f < 3):
        raise ValueError(f"{t} requires q = {SUZUKI_REE[t]}^(2m+1) with m >= 1")
    if t in _LEAST_RANK and n < _LEAST_RANK[t]:
        raise ValueError(f"{t}(n,q) requires n >= {_LEAST_RANK[t]}")
    if (t, n, gid.q) in _NOT_SIMPLE:
        raise ValueError(f"{gid} is not simple")
    return p


def _degrees(t: str, n: int | None) -> tuple[int, ...]:
    """Degrees of the basic invariants of the Weyl group of type t, of rank
    n for a classical type: 2, ..., n for A_{n-1}, 2, 4, ..., 2n for B_n and
    C_n, and 2, 4, ..., 2n - 2 and n for D_n, whose last degree is that of
    the Pfaffian."""
    if t in _EXCEPTIONAL_DEGREES:
        return _EXCEPTIONAL_DEGREES[t]
    if t in ("A", "2A"):
        return tuple(range(2, n + 1))
    if t in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if t in ("D", "2D"):
        return (*range(2, 2 * n - 1, 2), n)
    raise ValueError(f"unknown Lie type {t!r}")


def weyl_order(lie_type: str, n: int | None = None) -> int:
    """Order of the Weyl group, the product of its degrees; for twisted
    types this is the Weyl group of the ambient untwisted root system."""
    if lie_type in SUZUKI_REE:
        raise ValueError(f"Weyl order is not defined here for {lie_type}")
    if n is None and lie_type not in _EXCEPTIONAL_DEGREES:
        raise ValueError(f"type {lie_type} needs a rank")
    return math.prod(_degrees(lie_type, n))


# (N, factors) of 3D4, whose triality twist gives the factor q^8 + q^4 + 1,
# and of the Suzuki-Ree families; their centres are trivial
_TWISTED_FACTORS = {
    "3D4": (12, ((8, -1, (4,)), (6, 1, ()), (2, 1, ()))),
    "2B2": (2, ((2, -1, ()), (1, 1, ()))),
    "2G2": (3, ((3, -1, ()), (1, 1, ()))),
    "2F4": (12, ((6, -1, ()), (4, 1, ()), (3, -1, ()), (1, 1, ()))),
}


@cache
def _order_parameters(t: str, n: int | None):
    """(N, factors, z, k, e0) with |G| = q^N * prod(factors) / |Z| and
    |Z| = gcd(z, q^k - e0), for type t of rank n.  A factor (d, e, extra)
    is q^d - e plus q^l for each l in extra (see _at); for all but 3D4 and
    the Suzuki-Ree families it is q^d - e_d over the degrees d, with no
    extra terms.  N = sum(d - 1) counts the positive roots.  e0 is the
    twist's sign, and e_d is e0 on the invariants the twist negates: those
    of odd degree for 2A and 2E6, the Pfaffian for 2D.  |Z| is
    gcd(n, q - e0) for A_{n-1}, gcd(4, q^n - e0) for D_n, gcd(2, q - 1) for
    B_n, C_n and E7, gcd(3, q - e0) for E6, and 1 for G2, F4, E8, 3D4 and
    the Suzuki-Ree families.  Kept per (type, rank)."""
    if t in _TWISTED_FACTORS:
        return (*_TWISTED_FACTORS[t], 1, 1, 1)
    ds = _degrees(t, n)
    e0 = -1 if t in ("2A", "2D", "2E6") else 1
    if t in ("D", "2D"):
        factors = tuple((d, 1, ()) for d in ds[:-1]) + ((n, e0, ()),)
        return sum(ds) - len(ds), factors, 4, n, e0
    factors = tuple((d, e0 if d % 2 else 1, ()) for d in ds)
    z = {"A": n, "2A": n, "B": 2, "C": 2, "E6": 3, "2E6": 3, "E7": 2}.get(t, 1)
    return sum(ds) - len(ds), factors, z, 1, e0


def _lie_factors(t: str, n: int | None, q: int):
    """(N, factors, |Z|) of the Lie id (t, n, q), with |G| = q^N *
    prod(factors at q) / |Z|.  Refused above ORDER_BITS_BOUND bits, with the
    bit length (N + sum of the leading degrees) * log2 q estimated from the
    rank alone: n^2 - 1 for A and 2A with n the linear rank, 2n^2 + n for B
    and C, 2n^2 - n for D and 2D, so that no degree is listed for a rank
    whose order is refused."""
    if t in ("A", "2A"):
        span = n * n - 1
    elif t in ("B", "C"):
        span = 2 * n * n + n
    elif t in ("D", "2D"):
        span = 2 * n * n - n
    else:  # the other types' factors are fixed
        roots, factors, *_ = _order_parameters(t, n)
        span = roots + sum(f[0] for f in factors)
    bits = span * math.log2(q)
    if bits > ORDER_BITS_BOUND:
        raise ValueError(f"the order of this {t}-type group has about {bits:.0f} bits, "
                         f"above the bound of {ORDER_BITS_BOUND} bits")
    roots, factors, z, k, e0 = _order_parameters(t, n)
    return roots, factors, math.gcd(z, pow(q, k, z) - e0)


def _at(factor, q: int, m: int | None = None) -> int:
    """The factor's value at q, or with m a number congruent to it modulo
    m (the powers are reduced, the sum is not)."""
    d, e, extra = factor
    x = pow(q, d, m) - e
    for l in extra:
        x += pow(q, l, m)
    return x


def _lie_order(t: str, n: int | None, q: int) -> int:
    roots, factors, centre = _lie_factors(t, n, q)
    # multiplied pairwise, as a balanced tree: one factor at a time would
    # multiply the whole growing product once per factor
    values = [q**roots] + [_at(f, q) for f in factors]
    while len(values) > 1:
        values = [math.prod(values[i:i + 2]) for i in range(0, len(values), 2)]
    return values[0] // centre


def facts(gid: SimpleGroupId) -> GroupFacts:
    """Exact order and prime spectrum.  Factors the order, so this can fail
    for huge Lie parameters; callers that only need divisibility should use
    pi_effective / spectrum_within."""
    order = order_of(gid)
    return GroupFacts(order, prime_divisors(order))


def order_of(gid: SimpleGroupId) -> int:
    """Group order without factoring it, computed once per id."""
    return gid.order


def pi_effective(gid: SimpleGroupId, pi) -> frozenset[int]:
    """The members of pi that divide |G|, without building |G|.  For
    Alt(n), n >= 5, every s <= n divides n!/2 = 3 * 4 * ... * n, no larger
    prime does, and a larger composite does when each prime power p^k in it
    divides p^e, e the exponent of p in n!/2 (Legendre's formula).  For a Lie
    id, A = |Z| * |G| is the product of q^N and the factors: its residue a
    modulo |Z| times the members of pi takes one pow per factor, and s
    divides |G| exactly when s * |Z| divides a.  That holds for any
    positive integer s, prime or not."""
    if gid.family == "Alt":
        n = gid.n
        return frozenset(s for s in pi if s <= n or not is_prime(s) and not any(
            pow(p, sum(n // p ** k for k in range(1, n.bit_length())) - (p == 2), r_part(s, p))
            for p in prime_divisors(s)))
    if gid.family == "Spor":
        return frozenset(s for s in pi if SPORADIC_ORDERS[gid.name] % s == 0)
    q = gid.q
    roots, factors, centre = _lie_factors(gid.lie_type, gid.n, q)
    m = centre * math.prod(pi)
    a = pow(q, roots, m)
    for f in factors:
        a = a * _at(f, q, m) % m
    return frozenset(s for s in pi if a % (s * centre) == 0)


def spectrum_within(gid: SimpleGroupId, pi) -> bool:
    """Whether pi(G) is contained in pi, without building |G|.  False
    before anything is computed when pi lacks 2, which divides every order
    here, 3, which divides all but those of 2B2, or a Lie id's p, since q^N
    divides its order.  pi(Alt(n)) is the primes up to n: within pi iff n is
    below the least prime outside pi."""
    if any(s not in pi for s in (2, 2 if gid.lie_type == "2B2" else 3, gid.p or 2)):
        return False
    if gid.family == "Alt":
        s = 2
        while s in pi or not is_prime(s):
            s += 1
        return gid.n < s
    if gid.family == "Spor":
        return pi_free(SPORADIC_ORDERS[gid.name], pi) == 1
    # p is in pi, so q^N has no pi'-part, and the product of the factors'
    # pi'-parts is that of |Z| * |G|: it equals the pi'-part of |Z| exactly
    # when |G| is a pi-number, and once it passes that part it stays above
    q = gid.q
    _, factors, centre = _lie_factors(gid.lie_type, gid.n, q)
    bound, rest = pi_free(centre, pi), 1
    for f in factors:
        rest *= pi_free(_at(f, q), pi)
        if rest > bound:
            return False
    return rest == bound


def parse_group(spec: str) -> SimpleGroupId:
    """Parse the group-spec grammar: Alt:n | Spor:Name | Lie:type[:n]:q."""
    parts = spec.strip().split(":")
    kind = parts[0]
    build = None
    try:
        if kind == "Alt" and len(parts) == 2:
            build = partial(alt, int(parts[1]))
        elif kind == "Spor" and len(parts) >= 2:
            build = partial(sporadic, ":".join(parts[1:]))
        elif kind == "Lie" and parts[1] in RANKED_TYPES and len(parts) == 4:
            build = partial(lie, parts[1], int(parts[3]), n=int(parts[2]))
        elif kind == "Lie" and parts[1] not in RANKED_TYPES and len(parts) == 3:
            build = partial(lie, parts[1], int(parts[2]))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"cannot parse group spec {spec!r}: {exc}") from None
    if build is None:
        raise ValueError(f"cannot parse group spec {spec!r}")
    return build()  # outside the try: a validation error reaches the caller as is
