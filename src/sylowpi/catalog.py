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
universal group (Carter, Simple Groups of Lie Type, 1972).  Only 3D4 and the
Suzuki-Ree families keep explicit formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

from .arith import is_prime, prime_divisors

LIE_TYPES = (
    "A", "2A", "B", "C", "D", "2D",
    "3D4", "E6", "2E6", "E7", "E8", "F4", "2F4", "G2", "2G2", "2B2",
)
# families whose rank is part of the identifier
RANKED_TYPES = ("A", "2A", "B", "C", "D", "2D")
# Suzuki/Ree families: odd power of the defining characteristic
SUZUKI_REE = {"2B2": 2, "2G2": 3, "2F4": 2}
# a Lie order is refused above this many bits, estimated from the degrees
# before any product: its cost, and that of dividing it by each prime of pi,
# grow about as the cube of the rank (Lie:A:1000:2 has 999,999 bits)
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


@dataclass(frozen=True)
class SimpleGroupId:
    """Identifier of a finite simple group.

    family is "Alt", "Spor" or "Lie".  Alt carries n; Spor carries name;
    Lie carries lie_type, q, and (for classical types) the linear rank n,
    so lie("A", q, n=2) is A_1(q) = PSL(2, q).  A Lie id also carries p,
    the characteristic (q = p^f), which validation finds; it is None for
    the other families.
    """

    family: str
    n: int | None = None
    q: int | None = None
    lie_type: str | None = None
    name: str | None = None
    p: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p", ensure_valid(self))

    @cached_property
    def order(self) -> int:
        """Group order, computed on first use and then kept with the id
        (not at construction: most ids never need it)."""
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


@dataclass(frozen=True)
class GroupFacts:
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
            raise ValueError(f"Alt({gid.n}): alternating groups are simple only for n >= 5")
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
    reason = _lie_constraint(gid.lie_type, gid.n, gid.q, *pf)
    if reason is not None:
        raise ValueError(reason)
    return pf[0]


def _lie_constraint(t: str, n: int | None, q: int, p: int, f: int) -> str | None:
    """The constraint that type t with rank n over GF(q), q = p^f, violates."""
    if t in RANKED_TYPES:
        if n is None:
            return f"type {t} needs a rank parameter"
    elif n is not None:
        return f"type {t} takes no rank parameter"

    if t in SUZUKI_REE:
        char = SUZUKI_REE[t]
        if p != char or f % 2 == 0 or f < 3:
            return f"{t} requires q = {char}^(2m+1) with m >= 1"
        return None
    if t == "A":
        if n < 2:
            return "A(n-1,q) requires n >= 2"
        if (n, q) in ((2, 2), (2, 3)):
            return f"A(1,{q}) is not simple"
        return None
    if t == "2A":
        if n < 3:
            return "2A(n-1,q) requires n >= 3"
        if (n, q) == (3, 2):
            return "2A(2,2) is not simple"
        return None
    if t in ("B", "C"):
        if n < 2:
            return f"{t}(n,q) requires n >= 2"
        if n == 2 and q == 2:
            return f"{t}2(2) is not simple"
        return None
    if t in ("D", "2D"):
        if n < 4:
            return f"{t}(n,q) requires n >= 4"
        return None
    if t == "G2" and q < 3:
        return "G2(2) is not simple"
    return None


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


@cache
def _order_parameters(t: str, n: int | None):
    """(N, ((d, e_d), ...), z, k, e0) with |G| = q^N * prod(q^d - e_d) / |Z|
    and |Z| = gcd(z, q^k - e0), for type t of rank n other than 3D4 and the
    Suzuki-Ree families.  N = sum(d - 1) counts the positive roots.  e0 is
    the twist's sign, and e_d is e0 on the invariants the twist negates:
    those of odd degree for 2A and 2E6, the Pfaffian for 2D.  |Z| is
    gcd(n, q - e0) for A_{n-1}, gcd(4, q^n - e0) for D_n, gcd(2, q - 1) for
    B_n, C_n and E7, gcd(3, q - e0) for E6, and 1 for G2, F4 and E8.  Kept
    per (type, rank), so an order is one loop."""
    ds = _degrees(t, n)
    e0 = -1 if t in ("2A", "2D", "2E6") else 1
    if t in ("D", "2D"):
        pairs = tuple((d, 1) for d in ds[:-1]) + ((n, e0),)
        return sum(ds) - len(ds), pairs, 4, n, e0
    pairs = tuple((d, e0 if d % 2 else 1) for d in ds)
    z = {"A": n, "2A": n, "B": 2, "C": 2, "E6": 3, "2E6": 3, "E7": 2}.get(t, 1)
    return sum(ds) - len(ds), pairs, z, 1, e0


def _lie_order(t: str, n: int | None, q: int) -> int:
    if t == "3D4":  # the triality twist gives the factor q^8 + q^4 + 1
        return q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1)
    if t == "2B2":
        return q**2 * (q**2 + 1) * (q - 1)
    if t == "2G2":
        return q**3 * (q**3 + 1) * (q - 1)
    if t == "2F4":
        return q**12 * (q**6 + 1) * (q**4 - 1) * (q**3 + 1) * (q - 1)
    # N + sum(d) = 2 sum(d) - (number of d), from the rank alone, so that no
    # degree is listed for a rank whose order is refused
    if t in ("A", "2A"):
        span = n * n - 1
    elif t in ("B", "C"):
        span = 2 * n * n + n
    elif t in ("D", "2D"):
        span = 2 * n * n - n
    else:  # an exceptional type's degrees are fixed
        ds = _degrees(t, n)
        span = 2 * sum(ds) - len(ds)
    bits = span * math.log2(q)
    if bits > ORDER_BITS_BOUND:
        raise ValueError(f"the order of this {t}-type group has about {bits:.0f} bits, "
                         f"above the bound of {ORDER_BITS_BOUND} bits")
    roots, pairs, z, k, e0 = _order_parameters(t, n)
    # multiplied pairwise, as a balanced tree: one factor at a time would
    # multiply the whole growing product once per factor
    factors = [q**roots] + [q**d - e for d, e in pairs]
    while len(factors) > 1:
        factors = [math.prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0] // math.gcd(z, q**k - e0)


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
    """pi ^ pi(G) by direct divisibility (avoids factoring the order).
    For Alt(n), n >= 5, a prime divides n!/2 iff it is at most n, so n! is
    never computed."""
    if gid.family == "Alt":
        return frozenset(s for s in pi if s <= gid.n)
    order = order_of(gid)
    return frozenset(s for s in pi if order % s == 0)


def spectrum_within(gid: SimpleGroupId, pi) -> bool:
    """Whether pi(G) is contained in pi, again without factoring.  pi(Alt(n))
    is the primes up to n: within pi iff n is below the least prime outside
    pi."""
    if gid.family == "Alt":
        s = 2
        while s in pi or not is_prime(s):
            s += 1
        return gid.n < s
    # strip the pi-part from the order m: the power of 2 with one shift (2
    # divides |PSL(1000, 2)| 499,500 times, and gcd is quadratic in the bits),
    # then step k divides out up to p^(2^k) of each other prime p of pi left
    # in m, so about log2 of the largest exponent steps in all
    m = order_of(gid)
    if 2 in pi:
        m >>= (m & -m).bit_length() - 1
    h = math.gcd(m, math.prod(s for s in pi if m % s == 0))
    while h > 1:
        m //= h
        h = math.gcd(m, h * h)
    return m == 1


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


def spec_number(spec: str) -> int:
    """The number n in a one-parameter spec such as Cyclic:n or Sym:n."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError as exc:
        raise ValueError(f"cannot parse group spec {spec!r}: {exc}") from None
