"""Classification tables for pi-Hall existence (E_pi) in symmetric,
alternating, sporadic and Tits groups.

The tables are embedded as source-level data: they are part of the
program's correctness surface, so a checksum test pins them bit-exactly.
The symmetric-group table keeps its "n prime" row symbolic and evaluates
pi((n-1)!) on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_prime
from .catalog import sporadic, facts


@dataclass(frozen=True)
class TableRow:
    group_key: str
    pi_intersection: frozenset[int]
    hall_descriptor: str


def primes_upto(n: int) -> frozenset[int]:
    """pi(n!) = set of primes <= n."""
    return frozenset(p for p in range(2, n + 1) if is_prime(p))


# E_pi rows for Sym_n beyond the prime-row family: (n, pi, Hall structure)
_SYM_SPECIAL = (
    (7, frozenset({2, 3}), "Sym_3 x Sym_4"),
    (8, frozenset({2, 3}), "Sym_4 wr Sym_2"),
)

# sporadic groups with a pi-Hall subgroup for 2 not in pi (|pi ^ pi(G)| > 1)
SPORADIC_ODD_ROWS: tuple[tuple[str, frozenset[int]], ...] = (
    ("M11", frozenset({5, 11})),
    ("M12", frozenset({5, 11})),
    ("M22", frozenset({5, 11})),
    ("M23", frozenset({5, 11})),
    ("M23", frozenset({11, 23})),
    ("M24", frozenset({5, 11})),
    ("M24", frozenset({11, 23})),
    ("J1", frozenset({3, 5})),
    ("J1", frozenset({3, 7})),
    ("J1", frozenset({3, 19})),
    ("J1", frozenset({5, 11})),
    ("J4", frozenset({5, 7})),
    ("J4", frozenset({5, 11})),
    ("J4", frozenset({5, 31})),
    ("J4", frozenset({7, 29})),
    ("J4", frozenset({7, 43})),
    ("ON", frozenset({3, 5})),
    ("ON", frozenset({5, 11})),
    ("ON", frozenset({5, 31})),
    ("Ly", frozenset({11, 67})),
    ("Ru", frozenset({7, 29})),
    ("Co1", frozenset({11, 23})),
    ("Co2", frozenset({11, 23})),
    ("Co3", frozenset({11, 23})),
    ("Fi23", frozenset({11, 23})),
    ("Fi24'", frozenset({11, 23})),
    ("B", frozenset({11, 23})),
    ("B", frozenset({23, 47})),
    ("M", frozenset({23, 47})),
    ("M", frozenset({29, 59})),
)

# sporadic groups with a pi-Hall subgroup for 2 in pi, pi(G) not within pi,
# |pi ^ pi(G)| > 1: (group, pi ^ pi(G), structure of H)
SPORADIC_EVEN_ROWS: tuple[tuple[str, frozenset[int], str], ...] = (
    ("M11", frozenset({2, 3}), "3^2:Q8.2"),
    ("M11", frozenset({2, 3, 5}), "A6.2"),
    ("M22", frozenset({2, 3, 5}), "2^4:A6"),
    ("M23", frozenset({2, 3}), "2^4:(3 x A4):2"),
    ("M23", frozenset({2, 3, 5}), "2^4:A6"),
    ("M23", frozenset({2, 3, 5}), "2^4:(3 x A5):2"),
    ("M23", frozenset({2, 3, 5, 7}), "L3(4):2_2"),
    ("M23", frozenset({2, 3, 5, 7}), "2^4:A7"),
    ("M23", frozenset({2, 3, 5, 7, 11}), "M22"),
    ("M24", frozenset({2, 3, 5}), "2^6:3.S6"),
    ("J1", frozenset({2, 3}), "2 x A4"),
    ("J1", frozenset({2, 7}), "2^3:7"),
    ("J1", frozenset({2, 3, 5}), "2 x A5"),
    ("J1", frozenset({2, 3, 7}), "2^3:7:3"),
    ("J4", frozenset({2, 3, 5}), "2^11:(2^6:3.S6)"),
)


def table1_rows() -> list[dict]:
    """Symmetric-group table in dump form."""
    rows = [{"group": "Sym_n, n prime", "pi": "pi((n-1)!)", "structure": "Sym_{n-1}"}]
    for n, pi, struct in _SYM_SPECIAL:
        rows.append({"group": f"Sym_{n}", "pi": sorted(pi), "structure": struct})
    return rows


def table2_rows() -> list[TableRow]:
    return [TableRow(g, pi, "") for g, pi in SPORADIC_ODD_ROWS]


def table3_rows() -> list[TableRow]:
    return [TableRow(g, pi, s) for g, pi, s in SPORADIC_EVEN_ROWS]


def _check_sym_gate(n: int, pi: frozenset[int]) -> frozenset[int]:
    if n < 5:
        raise ValueError(f"degree must be >= 5, got {n}")
    pin = primes_upto(n)
    eff = pi & pin
    if len(eff) <= 1:
        raise ValueError("gate violated: |pi ^ pi(n!)| <= 1 (existence is Sylow's theorem)")
    if pin <= pi:
        raise ValueError("gate violated: pi(n!) within pi (the whole group is a pi-group)")
    return eff


def sym_epi(n: int, pi: frozenset[int]) -> tuple[bool, list[TableRow]]:
    """Does Sym_n have a pi-Hall subgroup?  Caller must have handled the
    trivial cases (|pi ^ pi(n!)| <= 1 and pi(n!) within pi)."""
    eff = _check_sym_gate(n, pi)
    rows: list[TableRow] = []
    if is_prime(n) and eff == primes_upto(n - 1):
        rows.append(TableRow(f"Sym_{n}", eff, f"Sym_{n - 1}"))
    for m, tpi, struct in _SYM_SPECIAL:
        if n == m and eff == tpi:
            rows.append(TableRow(f"Sym_{n}", eff, struct))
    return (bool(rows), rows)


def alt_epi(n: int, pi: frozenset[int]) -> bool:
    """Does Alt_n have a pi-Hall subgroup?  Same gate as sym_epi; the Hall
    subgroups of Alt_n are exactly the intersections H ^ Alt_n with H a
    pi-Hall subgroup of Sym_n, and none exist once 2 or 3 is missing."""
    _check_sym_gate(n, pi)
    if 2 not in pi or 3 not in pi:
        return False
    exists, _ = sym_epi(n, pi)
    return exists


def sporadic_epi(name: str, pi: frozenset[int]) -> tuple[bool, list[TableRow]]:
    """Does the sporadic (or Tits) group have a pi-Hall subgroup?"""
    gid = sporadic(name)
    spectrum = facts(gid).spectrum
    eff = pi & spectrum
    if spectrum <= pi:
        return (True, [TableRow(gid.name, eff, "G")])
    if len(eff) <= 1:
        return (True, [TableRow(gid.name, eff, "Sylow")])
    if 2 not in pi:
        rows = [TableRow(g, p, "") for g, p in SPORADIC_ODD_ROWS if g == gid.name and p == eff]
    else:
        rows = [TableRow(g, p, s) for g, p, s in SPORADIC_EVEN_ROWS if g == gid.name and p == eff]
    return (bool(rows), rows)


def dump_tables() -> dict:
    """All embedded tables as JSON-ready data (for the audit subcommand)."""
    return {
        "table1_symmetric": table1_rows(),
        "table2_sporadic_odd": [
            {"group": r.group_key, "pi": sorted(r.pi_intersection), "structure": r.hall_descriptor}
            for r in table2_rows()
        ],
        "table3_sporadic_even": [
            {"group": r.group_key, "pi": sorted(r.pi_intersection), "structure": r.hall_descriptor}
            for r in table3_rows()
        ],
    }
