"""Arithmetic criterion for the Sylow pi-theorem in finite simple groups.

A simple group satisfies D_pi exactly when the pair (G, pi) matches one of
Conditions I-VII.  Condition I covers the trivial cases, Condition II is a
sporadic lookup, and Conditions III-VII are arithmetic in the Lie
parameters q, p, the rank, multiplicative orders e(q, r) and the Weyl
group order.  Each evaluator returns a report with the symbol bindings it
used, so a verdict is auditable.

Subcases IV(1)-IV(6), V(1)-V(15) and VII(1)-VII(10) are table rows of
plain ints, strings and sets; each condition reads its table in one loop,
and the first row that matches and holds is the witness.

Membership questions are answered by divisibility: "tau lies in pi(q - 1)"
is "every prime of tau divides q - 1".  The only number a verdict factors
is the one torus order behind Condition VI's "set" binding; q - 1, q - eps
and the group order are never factored, however large q is.

A decision finds pi ^ pi(G) once, from the order's factors and never from
|G| itself (catalog.pi_effective), and evaluates all seven conditions on
that set; the public condition_I ... condition_VII take any pi and
intersect it first.  Condition I reads the factors again only when
pi ^ pi(G) has two primes or more, and then only when pi holds every prime
that divides each order in the catalog (see catalog.spectrum_within).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from .arith import eps_mod4, is_fermat_prime, mult_order, prime_divisors, prime_set, r_part
from .catalog import (
    SUZUKI_REE,
    SimpleGroupId,
    pi_effective,
    spectrum_within,
    weyl_order,
)


class ConditionReport(NamedTuple):
    """Whether one condition holds, the subcase that does, and the symbol
    bindings the evaluator used (read-only and empty unless passed)."""

    condition: str
    holds: bool
    subcase: int | None = None
    bindings: Mapping[str, object] = MappingProxyType({})


class Verdict(NamedTuple):
    dpi: bool
    witness: ConditionReport | None
    group: SimpleGroupId
    pi_effective: frozenset[int]

    def witness_text(self) -> str:
        w = self.witness
        if w is None:
            return "no condition holds"
        return f"Condition {w.condition}" + ("" if w.subcase is None else f"({w.subcase})")


# Condition II: sporadic groups G with D_pi for 2 not in pi, keyed by the
# possible values of pi ^ pi(G).
CONDITION_II_ITEMS: tuple[tuple[str, tuple[frozenset[int], ...]], ...] = (
    ("M11", (frozenset({5, 11}),)),
    ("M12", (frozenset({5, 11}),)),
    ("M22", (frozenset({5, 11}),)),
    ("M23", (frozenset({5, 11}), frozenset({11, 23}))),
    ("M24", (frozenset({5, 11}), frozenset({11, 23}))),
    ("J1", (frozenset({3, 5}), frozenset({3, 7}), frozenset({3, 19}), frozenset({5, 11}))),
    ("J4", (frozenset({5, 7}), frozenset({5, 11}), frozenset({5, 31}),
            frozenset({7, 29}), frozenset({7, 43}))),
    ("ON", (frozenset({5, 11}), frozenset({5, 31}))),
    ("Ly", (frozenset({11, 67}),)),
    ("Ru", (frozenset({7, 29}),)),
    ("Co1", (frozenset({11, 23}),)),
    ("Co2", (frozenset({11, 23}),)),
    ("Co3", (frozenset({11, 23}),)),
    ("Fi23", (frozenset({11, 23}),)),
    ("Fi24'", (frozenset({11, 23}),)),
    ("B", (frozenset({11, 23}), frozenset({23, 47}))),
    ("M", (frozenset({23, 47}), frozenset({29, 59}))),
)


def _condition_I(gid: SimpleGroupId, eff: frozenset[int]) -> ConditionReport:
    holds = len(eff) <= 1 or spectrum_within(gid, eff)
    return ConditionReport("I", holds, bindings={"pi_effective": sorted(eff)})


def _condition_II(gid: SimpleGroupId, eff: frozenset[int]) -> ConditionReport:
    if gid.family != "Spor":
        return ConditionReport("II", False)
    for idx, (name, sets) in enumerate(CONDITION_II_ITEMS, start=1):
        if gid.name == name and eff in sets:
            return ConditionReport("II", True, subcase=idx,
                                   bindings={"pi_effective": sorted(eff)})
    return ConditionReport("II", False)


def _condition_III(gid: SimpleGroupId, eff: frozenset[int]) -> ConditionReport:
    """Defining characteristic case: p in pi, the rest of pi inside
    pi(q - 1), and no prime of pi dividing the Weyl group order."""
    if gid.family != "Lie":
        return ConditionReport("III", False)
    q, p, n = gid.q, gid.p, gid.n
    if p not in eff:
        return ConditionReport("III", False)
    # For the Suzuki/Ree families the Weyl group of the ambient root system
    # has order divisible by the characteristic (2 or 3), so the coprimality
    # clause can never hold; short-circuit instead of querying weyl_order.
    if gid.lie_type in SUZUKI_REE:
        return ConditionReport("III", False, bindings={"p": p})
    tau = eff - {p}
    bindings = {"p": p, "tau": sorted(tau)}
    if not all((q - 1) % s == 0 for s in tau):
        return ConditionReport("III", False, bindings=bindings)
    w = weyl_order(gid.lie_type, n)
    bindings["weyl_order"] = w
    holds = all(w % s != 0 for s in eff)
    return ConditionReport("III", holds, bindings=bindings)


def _odd_gate(gid: SimpleGroupId, eff: frozenset[int]):
    """Shared gate of Conditions IV and V: Lie type other than the
    Suzuki/Ree families, 2 and p outside pi, pi ^ pi(G) nonempty.
    Returns (q, r, tau) or None."""
    if gid.family != "Lie" or gid.lie_type in SUZUKI_REE:
        return None
    q, p = gid.q, gid.p
    if not eff or 2 in eff or p in eff:
        return None
    r = min(eff)
    return q, r, eff - {r}


# IV(1)-IV(6), (subcase, type, residues of r mod 4, k, m, delta): a = e(q, r)
# is (r - 1) / k, b = e(q, t) is m * r for every t of tau, [n / (r - 1)] =
# [n / r] + delta (and n = -1 mod r when delta is 1), and the r-part of
# q^(r - 1) - 1 is r.  IV(7) and IV(8) are the two symmetric 2D lines below.
_IV_ROWS = (
    (1, "A", {1, 3}, 1, 1, 0),
    (2, "A", {1, 3}, 1, 1, 1),
    (3, "2A", {1}, 1, 2, 0),
    (4, "2A", {3}, 2, 2, 0),
    (5, "2A", {1}, 1, 2, 1),
    (6, "2A", {3}, 2, 2, 1),
)


def _condition_IV(gid: SimpleGroupId, eff: frozenset[int]) -> ConditionReport:
    """Cross-characteristic case with two distinct multiplicative orders
    a = e(q, r) and b = e(q, t) among the primes of pi."""
    gate = _odd_gate(gid, eff)
    if gate is None:
        return ConditionReport("IV", False)
    q, r, tau = gate
    a = mult_order(q, r)
    n, t_lie = gid.n, gid.lie_type
    orders = {s: mult_order(q, s) for s in tau}
    for t in sorted(tau):
        b = orders[t]
        if b == a:
            continue
        bindings = {"r": r, "a": a, "t": t, "b": b, "tau": sorted(tau)}
        for subcase, lie_type, residues, k, m, delta in _IV_ROWS:
            if (t_lie == lie_type and r % 4 in residues and k * a == r - 1 and b == m * r
                    and all(orders[s] == b for s in tau)
                    and n // (r - 1) == n // r + delta and (delta == 0 or n % r == r - 1)
                    and r_part(q ** (r - 1) - 1, r) == r):
                return ConditionReport("IV", True, subcase=subcase, bindings=bindings)
        if t_lie == "2D" and all(orders[s] in (a, b) for s in tau):
            if a % 2 == 1 and n == b == 2 * a:
                return ConditionReport("IV", True, subcase=7, bindings=bindings)
            if b % 2 == 1 and n == a == 2 * b:
                return ConditionReport("IV", True, subcase=8, bindings=bindings)
    return ConditionReport("IV", False)


# V(1)-V(15), (subcase, types, residues of c mod 4, k, m, strict,
# exclusions): k * n < m * c * s (<= unless strict) for every s of tau, with
# k, m and strict None for the types of no rank, and for each exclusion
# (r', values of c, primes) not r = r', c among the values and a prime of
# tau among the primes.
_ANY = {0, 1, 2, 3}
_V_ROWS = (
    (1, {"A"}, _ANY, 1, 1, True, ()),
    (2, {"2A"}, {0}, 1, 1, True, ()),
    (3, {"2A"}, {2}, 2, 1, True, ()),
    (4, {"2A"}, {1, 3}, 1, 2, True, ()),
    (5, {"B", "C", "2D"}, {1, 3}, 2, 1, True, ()),
    (6, {"B", "C", "D"}, {0, 2}, 1, 1, True, ()),
    (7, {"D"}, {0, 2}, 2, 1, False, ()),  # never fires: V(6) admits its inputs
    (8, {"2D"}, {1, 3}, 1, 1, False, ()),
    (9, {"3D4"}, _ANY, None, None, None, ()),
    (10, {"E6"}, _ANY, None, None, None, ((3, {1}, {5, 13}),)),
    (11, {"2E6"}, _ANY, None, None, None, ((3, {2}, {5, 13}),)),
    (12, {"E7"}, _ANY, None, None, None, ((3, {1, 2}, {5, 7, 13}), (5, {1, 2}, {7}))),
    (13, {"E8"}, _ANY, None, None, None, ((3, {1, 2}, {5, 7, 13}), (5, {1, 2}, {7, 31}))),
    (14, {"G2"}, _ANY, None, None, None, ()),
    (15, {"F4"}, _ANY, None, None, None, ((3, {1}, {13}),)),
)


def _condition_V(gid: SimpleGroupId, eff: frozenset[int]) -> ConditionReport:
    """Cross-characteristic case with a single multiplicative order
    c = e(q, t) shared by every prime t of pi."""
    gate = _odd_gate(gid, eff)
    if gate is None:
        return ConditionReport("V", False)
    q, r, tau = gate
    c = mult_order(q, r)
    if any(mult_order(q, s) != c for s in tau):
        return ConditionReport("V", False)
    n, t_lie = gid.n, gid.lie_type
    bindings = {"r": r, "c": c, "tau": sorted(tau)}
    for subcase, types, residues, k, m, strict, exclusions in _V_ROWS:
        if (t_lie in types and c % 4 in residues
                and (k is None or all(k * n < m * c * s or not strict and k * n == m * c * s
                                      for s in tau))
                and not any(r == r_ex and c in c_ex and not tau.isdisjoint(primes)
                            for r_ex, c_ex, primes in exclusions)):
            return ConditionReport("V", True, subcase=subcase, bindings=bindings)
    return ConditionReport("V", False, bindings=bindings)


def _suzuki_ree_tori(gid: SimpleGroupId) -> list[int]:
    """The torus orders of Condition VI, one per expression; each +/-
    expands to its own expression.  With q = p^(2m+1), h = p^(m+1) is the
    integer square root of pq, and 2F4's 2^(3m+2) is h^3 / 2."""
    q, h = gid.q, math.isqrt(gid.p * gid.q)
    if gid.lie_type != "2F4":
        return [q - 1, q + h + 1, q - h + 1]
    g = h**3 // 2
    return [q * q + 1, q * q - 1, q + h + 1, q - h + 1, q * q + g - h - 1,
            q * q - g + h - 1, q * q + g + q + h - 1, q * q - g + q - h - 1]


def _condition_VI(gid: SimpleGroupId, eff: frozenset[int]) -> ConditionReport:
    """Suzuki and Ree groups: pi ^ pi(G) inside the prime set of a single
    torus order (less 2 for 2G2).  Only the first torus order that every
    prime of pi ^ pi(G) divides is factored, for the "set" binding, which is
    None where that order is beyond the factoring bounds."""
    if gid.family != "Lie" or gid.lie_type not in SUZUKI_REE:
        return ConditionReport("VI", False)
    subcase = {"2B2": 1, "2G2": 2, "2F4": 3}[gid.lie_type]
    dropped = frozenset({2}) if gid.lie_type == "2G2" else frozenset()
    if not eff & dropped:
        for torus in _suzuki_ree_tori(gid):
            if all(torus % s == 0 for s in eff):
                try:
                    target = sorted(prime_divisors(torus) - dropped)
                except (ValueError, ArithmeticError):
                    target = None
                return ConditionReport("VI", True, subcase=subcase,
                                       bindings={"pi_effective": sorted(eff),
                                                 "set": target})
    return ConditionReport("VI", False, bindings={"pi_effective": sorted(eff)})


# VII(1)-VII(10), (subcase, types, k, m, Fermat k, Fermat m, excluded
# primes): every s of tau exceeds k * n + m and every Fermat prime of tau
# exceeds (Fermat k) * n + (Fermat m), with the four None for the types of
# no rank, and no prime of tau is excluded.
_VII_ROWS = (
    (1, {"A", "2A"}, 1, 0, 1, 1, ()),
    (2, {"B"}, 2, 1, 2, 1, ()),
    (3, {"C"}, 1, 0, 2, 1, ()),
    (4, {"D", "2D"}, 2, 0, 2, 0, ()),
    (5, {"G2", "2G2"}, None, None, None, None, {7}),
    (6, {"F4"}, None, None, None, None, {5, 7}),
    (7, {"E6", "2E6"}, None, None, None, None, {5, 7}),
    (8, {"E7"}, None, None, None, None, {5, 7, 11}),
    (9, {"E8"}, None, None, None, None, {5, 7, 11, 13}),
    (10, {"3D4"}, None, None, None, None, {7}),
)


def _condition_VII(gid: SimpleGroupId, eff: frozenset[int]) -> ConditionReport:
    """Even case: 2 in pi, 3 and p outside pi, the odd part of pi inside
    pi(q - eps), plus per-family thresholds (Fermat primes are held to the
    stricter bound)."""
    if gid.family != "Lie":
        return ConditionReport("VII", False)
    q, p, n, t_lie = gid.q, gid.p, gid.n, gid.lie_type
    if 2 not in eff or 3 in eff or p in eff:
        return ConditionReport("VII", False)
    tau = eff - {2}
    eps = eps_mod4(q)  # q is odd here since p != 2
    bindings = {"eps": eps, "tau": sorted(tau)}
    if not all((q - eps) % s == 0 for s in tau):
        return ConditionReport("VII", False, bindings=bindings)
    phi = frozenset(t for t in tau if is_fermat_prime(t))
    bindings["phi"] = sorted(phi)
    for subcase, types, k, m, fermat_k, fermat_m, excluded in _VII_ROWS:
        if (t_lie in types and tau.isdisjoint(excluded)
                and (k is None or all(s > k * n + m for s in tau)
                     and all(t > fermat_k * n + fermat_m for t in phi))):
            return ConditionReport("VII", True, subcase=subcase, bindings=bindings)
    return ConditionReport("VII", False, bindings=bindings)


_CONDITIONS = (
    _condition_I,
    _condition_II,
    _condition_III,
    _condition_IV,
    _condition_V,
    _condition_VI,
    _condition_VII,
)


def _on_pi(evaluate):
    """The public form of one condition: it takes any pi and intersects it
    with pi(G) once before evaluating."""
    def condition(gid: SimpleGroupId, pi: frozenset[int]) -> ConditionReport:
        return evaluate(gid, pi_effective(gid, pi))
    condition.__name__ = condition.__qualname__ = evaluate.__name__[1:]
    condition.__doc__ = evaluate.__doc__
    return condition


(condition_I, condition_II, condition_III, condition_IV, condition_V, condition_VI,
 condition_VII) = map(_on_pi, _CONDITIONS)


def decide_dpi_simple(gid: SimpleGroupId, pi: frozenset[int]) -> Verdict:
    """D_pi verdict for a simple group: true iff some condition holds.

    The witness is the first holding condition in the order I..VII; the
    order is a presentation choice only.  A member of pi that divides |G|
    and is not prime raises ValueError.
    """
    eff = prime_set(pi_effective(gid, pi))
    for cond in _CONDITIONS:
        report = cond(gid, eff)
        if report.holds:
            return Verdict(True, report, gid, eff)
    return Verdict(False, None, gid, eff)
