"""Classification tables for pi-Hall existence (E_pi) in symmetric,
alternating, sporadic and Tits groups.

The tables are embedded as source-level data: they are part of the
program's correctness surface, so a checksum test pins them bit-exactly.
Table 2 (odd pi) is not written out: its rows are Condition II's pairs
from `criterion`, which have D_pi and so E_pi, and ON at {3, 5}.
The symmetric-group table keeps its "n prime" row symbolic and evaluates
pi((n-1)!) on demand.  Each lookup answers every pi: "G" when pi(G) lies
within pi, "Sylow" when pi meets pi(G) in at most one prime, else the
structures of the rows that match pi ^ pi(G).
"""

from __future__ import annotations

from .arith import is_prime, prime_set
from .catalog import SimpleGroupId, alt, pi_effective, sporadic, spectrum_within
from .criterion import CONDITION_II_ITEMS


def primes_upto(n: int) -> frozenset[int]:
    """pi(n!) = set of primes <= n."""
    return frozenset(p for p in range(2, n + 1) if is_prime(p))


# E_pi rows for Sym_n beyond the prime-row family: (n, pi, Hall structure)
_SYM_SPECIAL = (
    (7, frozenset({2, 3}), "Sym_3 x Sym_4"),
    (8, frozenset({2, 3}), "Sym_4 wr Sym_2"),
)

# Table 2, sporadic groups with a pi-Hall subgroup for 2 not in pi
# (|pi ^ pi(G)| > 1): the Condition II pairs, since D_pi implies E_pi, and
# ON at {3, 5}, the one such pair with Hall subgroups but not D_pi, placed
# before ON's other two.
SPORADIC_ODD_ROWS: tuple[tuple[str, frozenset[int]], ...] = tuple(
    (name, pi) for name, sets in CONDITION_II_ITEMS
    for pi in ((frozenset({3, 5}),) + sets if name == "ON" else sets))

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


def _gated(gid: SimpleGroupId, pi, structures) -> tuple[str, ...]:
    """Every table's lookup on G: ("G",) when pi(G) lies within pi, ("Sylow",)
    when pi meets it in at most one prime, else structures(pi ^ pi(G)); a
    member of pi that divides |G| and is not prime raises ValueError."""
    eff = prime_set(pi_effective(gid, pi))
    if spectrum_within(gid, pi):
        return ("G",)
    return ("Sylow",) if len(eff) <= 1 else structures(eff)


def sym_epi(n: int, pi: frozenset[int]) -> tuple[str, ...]:
    """Structures of the pi-Hall subgroups of Sym_n that the table records;
    () when Sym_n has none.  Alt_n's Hall subgroups are the H ^ Alt_n with H
    one of Sym_n's, so Alt_n has E_pi exactly when this is non-empty.  Every
    row but G and Sylow holds 2 and 3."""
    if n < 5:
        raise ValueError(f"degree must be >= 5, got {n}")
    def structures(eff):
        prime_row = (f"Sym_{n - 1}",) if is_prime(n) and eff == primes_upto(n - 1) else ()
        return prime_row + tuple(s for m, p, s in _SYM_SPECIAL if m == n and p == eff)
    return _gated(alt(n), pi, structures)  # pi(Sym_n) = pi(Alt_n) for n >= 5


def sporadic_epi(name: str, pi: frozenset[int]) -> tuple[str, ...]:
    """Structures of the pi-Hall subgroups of the sporadic (or Tits) group
    that Tables 2-3 record ("" for a Table 2 row); () when it has none."""
    gid = sporadic(name)
    rows = SPORADIC_EVEN_ROWS if 2 in pi else [(g, p, "") for g, p in SPORADIC_ODD_ROWS]
    return _gated(gid, pi, lambda eff: tuple(s for g, p, s in rows if g == gid.name and p == eff))


def dump_tables() -> dict:
    """All embedded tables as JSON-ready data (for the audit subcommand)."""
    return {
        "table1_symmetric": table1_rows(),
        "table2_sporadic_odd": [
            {"group": g, "pi": sorted(pi), "structure": ""} for g, pi in SPORADIC_ODD_ROWS
        ],
        "table3_sporadic_even": [
            {"group": g, "pi": sorted(pi), "structure": s} for g, pi, s in SPORADIC_EVEN_ROWS
        ],
    }
