"""Embedded classification tables: checksum pin, gates, and cross-audits."""

import functools
import hashlib
import itertools
import json

import pytest

from sylowpi import catalog
from sylowpi.catalog import SPORADIC_ORDERS, alt, facts, order_of, sporadic
from sylowpi.criterion import CONDITION_II_ITEMS, decide_dpi_simple
from sylowpi.permbrute import (
    _two_part_partitions,
    maximal_pi_subgroups,
    pi_part,
    realize,
    split_hall,
)
from sylowpi.tables import (
    SPORADIC_EVEN_ROWS,
    SPORADIC_ODD_ROWS,
    dump_tables,
    primes_upto,
    sporadic_epi,
    sym_epi,
    table1_rows,
)


def test_primes_upto():
    assert primes_upto(10) == {2, 3, 5, 7}
    assert primes_upto(2) == {2}
    assert primes_upto(1) == frozenset()


def test_table_shapes():
    assert len(table1_rows()) == 3
    assert len(SPORADIC_ODD_ROWS) == 30
    assert len(SPORADIC_EVEN_ROWS) == 15


def test_table_checksum_pin():
    """The tables are correctness-critical data; pin them bit-exactly."""
    blob = json.dumps(dump_tables(), sort_keys=True).encode()
    digest = hashlib.sha256(blob).hexdigest()
    assert digest == TABLE_SHA256, (
        "embedded table data changed; re-derive and update the pin only "
        "after re-verifying every row")


TABLE_SHA256 = "9c6a35bebe2e4535d30a25bc561f9928c7857c4f201e1387eab4c910599c1cfa"


def test_table2_rows_all_pairs_and_subsets_of_spectrum():
    for name, pi in SPORADIC_ODD_ROWS:
        assert len(pi) == 2, (name, pi)
        assert 2 not in pi
        assert pi <= facts(sporadic(name)).spectrum, (name, pi)


def test_table3_rows_even_and_proper():
    for name, pi, _structure in SPORADIC_EVEN_ROWS:
        assert 2 in pi
        spectrum = facts(sporadic(name)).spectrum
        assert pi < spectrum, (name, pi)
        assert len(pi) > 1


def test_table3_unique_row_without_3():
    rows = [(n, p) for n, p, _ in SPORADIC_EVEN_ROWS if 3 not in p]
    assert rows == [("J1", frozenset({2, 7}))]


def _no_factoring(*_args):
    raise AssertionError("sporadic_epi factored an order")


def test_condition_ii_pairs_appear_in_table2():
    """Sporadic D_pi implies E_pi: every Condition II pair must be a
    Hall-existence row."""
    table2 = set(SPORADIC_ODD_ROWS)
    pairs = [(name, pi) for name, sets in CONDITION_II_ITEMS for pi in sets]
    assert len(pairs) == 29
    for pair in pairs:
        assert pair in table2, pair


def test_table2_rows_have_hall_subgroups_and_d_pi_but_on_at_3_5(monkeypatch):
    """Table 2 is Condition II's pairs plus ON at {3, 5}: every row but ON
    at {3, 5} has D_pi through Condition II, and every row is a Hall row,
    which sporadic_epi finds with factoring patched to raise."""
    for name, pi in SPORADIC_ODD_ROWS:
        verdict = decide_dpi_simple(sporadic(name), pi)
        through_ii = verdict.dpi and verdict.witness.condition == "II"
        assert through_ii == ((name, pi) != ("ON", frozenset({3, 5}))), (name, pi)
    assert not decide_dpi_simple(sporadic("ON"), frozenset({3, 5})).dpi
    monkeypatch.setattr(catalog, "facts", _no_factoring)
    monkeypatch.setattr(catalog, "prime_divisors", _no_factoring)
    for name, pi in SPORADIC_ODD_ROWS:
        assert sporadic_epi(name, pi) == ("",), (name, pi)


def test_sym_epi_prime_degree_row():
    assert sym_epi(7, primes_upto(6)) == ("Sym_6",)
    assert sym_epi(11, primes_upto(10)) == ("Sym_10",)
    # composite degree with a proper prime subset does not qualify
    assert sym_epi(9, frozenset({2, 3, 5})) == ()


def test_sym_epi_special_rows():
    assert sym_epi(7, frozenset({2, 3})) == ("Sym_3 x Sym_4",)
    assert sym_epi(8, frozenset({2, 3})) == ("Sym_4 wr Sym_2",)
    assert sym_epi(9, frozenset({2, 3})) == ()
    assert sym_epi(8, frozenset({2, 3, 5})) == ()


def test_sym_epi_gate_violations():
    """The trivial cases of the gate are answered, as sporadic_epi answers
    them; a degree below 5 is refused, and so is a member of pi that divides
    n! and is not prime, as sporadic_epi refuses one dividing its order."""
    assert sym_epi(7, frozenset()) == ("Sylow",)
    assert sym_epi(7, frozenset({2, 11})) == ("Sylow",)   # |pi ^ pi(n!)| <= 1
    assert sym_epi(7, primes_upto(7)) == ("G",)           # pi(n!) within pi
    assert sym_epi(5, frozenset({2, 3, 5, 7})) == ("G",)
    assert sym_epi(7, frozenset({5})) and sym_epi(7, primes_upto(7))
    with pytest.raises(ValueError):
        sym_epi(4, frozenset({2, 3}))       # degree too small
    for pi in ({2, 3, 9}, {2, 4}):
        with pytest.raises(ValueError, match="is not prime"):
            sym_epi(7, frozenset(pi))


def test_alt_epi_needs_2_and_3():
    # Alt_n has E_pi exactly when sym_epi(n, pi) is non-empty
    assert not sym_epi(7, frozenset({3, 5}))
    assert not sym_epi(7, frozenset({2, 5}))
    assert sym_epi(7, frozenset({2, 3}))
    assert not sym_epi(9, frozenset({2, 3}))


def test_sporadic_epi_lookup():
    assert sporadic_epi("M11", frozenset({5, 11})) == ("",)
    assert sporadic_epi("M12", frozenset({3, 5})) == ()
    assert sporadic_epi("J1", frozenset({2, 7})) == ("2^3:7",)
    assert sporadic_epi("M11", frozenset({2, 5})) == ()
    # M23's two-row entries give both structures
    assert sporadic_epi("M23", frozenset({2, 3, 5})) == ("2^4:A6", "2^4:(3 x A5):2")
    assert sporadic_epi("M23", frozenset({2, 3, 5, 7})) == ("L3(4):2_2", "2^4:A7")
    # trivial gates are answered, not refused
    assert sporadic_epi("M11", frozenset({11})) == ("Sylow",)
    assert sporadic_epi("M11", frozenset({2, 3, 5, 11})) == ("G",)
    with pytest.raises(ValueError):
        sporadic_epi("NotAGroup", frozenset({2, 3}))


def test_sporadic_epi_answers_every_row_without_factoring(monkeypatch):
    """Every Table 2/3 row is found through the lookup, and the lookup tests
    the order by divisibility: factoring is patched to raise."""
    spectra = {name: facts(sporadic(name)).spectrum for name in SPORADIC_ORDERS}
    monkeypatch.setattr(catalog, "facts", _no_factoring)
    monkeypatch.setattr(catalog, "prime_divisors", _no_factoring)
    for name, pi in SPORADIC_ODD_ROWS:
        assert sporadic_epi(name, pi | {4099}) == ("",), (name, pi)
    for name, pi, structure in SPORADIC_EVEN_ROWS:
        assert structure in sporadic_epi(name, pi), (name, pi)
    for name, spectrum in spectra.items():
        assert sporadic_epi(name, frozenset()) == ("Sylow",), name
        assert sporadic_epi(name, spectrum) == ("G",), name
        assert sporadic_epi(name, spectrum | {4099}) == ("G",), name


def test_dump_tables_is_json_ready():
    data = dump_tables()
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("family, n", [("Alt", 5), ("Alt", 6), ("Alt", 7),
                                       ("Sym", 5), ("Sym", 6), ("Sym", 7)])
def test_epi_tables_match_brute_force(family, n):
    g = realize(f"{family}:{n}")
    g.require_table(bound=5040)
    spectrum = sorted(primes_upto(n))
    for k in range(len(spectrum) + 1):
        for pi in map(frozenset, itertools.combinations(spectrum, k)):
            table = bool(sym_epi(n, pi))  # Alt_n's Hall subgroups are Sym_n's met with Alt_n
            assert table == maximal_pi_subgroups(g, pi, with_structure=False).epi, (n, pi)


def test_m11_table_matches_brute_force():
    # every pi within pi(M11): the table's E_pi is brute force's, and where the
    # table records one structure M11 has one class of pi-Hall subgroups
    g = realize("Spor:M11")
    for k in range(5):
        for pi in map(frozenset, itertools.combinations((2, 3, 5, 11), k)):
            structures = sporadic_epi("M11", pi)
            report = maximal_pi_subgroups(g, pi, with_structure=False)
            assert bool(structures) == report.epi, pi
            if len(structures) == 1:
                assert len(report.hall_classes) == 1, pi


# The paper's theorem: if a pi-Hall subgroup is H_sigma x H_tau and D_sigma
# and D_tau hold, then D_pi holds.  So where the tables give E_pi and the
# criterion gives D_sigma and D_tau but not D_pi, no pi-Hall subgroup splits
# as sigma-part x tau-part.  When sigma and tau are single primes such a
# split is nilpotent, and the theorem is Wielandt's ("Zum Satz von Sylow",
# 1954).  Each row: (group, pi, sigma, tau), sigma holding pi's least prime,
# to (the structure the table records, the Hall order, why it does not
# split); an Alt row's structure is the Sym_n row H, its Hall subgroup
# H ^ Alt_n.
FORCED_NON_SPLIT = {
    ("Alt(5)", (2, 3), (2,), (3,)): (
        "Sym_4", 12, "Sym_4 ^ Alt_5 = Alt_4 = 2^2:3, whose 3-cycles fix no involution"),
    ("Alt(7)", (2, 3), (2,), (3,)): (
        "Sym_3 x Sym_4", 72, "it holds Alt_4 on the last four points, not nilpotent"),
    ("Alt(8)", (2, 3), (2,), (3,)): (
        "Sym_4 wr Sym_2", 576, "it holds Alt_4 on one block, not nilpotent"),
    ("M11", (2, 3), (2,), (3,)): (
        "3^2:Q8.2", 144, "Q8 acts faithfully on the normal 3^2, so H is not nilpotent"),
    ("M23", (2, 3), (2,), (3,)): (
        "2^4:(3 x A4):2", 1152, "it holds A4, not nilpotent"),
    ("J1", (2, 3), (2,), (3,)): (
        "2 x A4", 24, "A4 is not nilpotent"),
    ("J1", (2, 7), (2,), (7,)): (
        "2^3:7", 56, "7 acts on 2^3 without fixed points, so H is not nilpotent"),
    ("J1", (2, 3, 5), (2,), (3, 5)): (
        "2 x A5", 120, "the split needs a normal Sylow 2-subgroup, and A5 is simple"),
    ("J1", (2, 3, 7), (2,), (3, 7)): (
        "2^3:7:3", 168, "the 7 of 7:3 moves every involution of 2^3, so 7:3 does "
                        "not centralize it"),
    ("ON", (3, 5), (3,), (5,)): (
        "", 405, "Table 2 records no structure; predicted: H, of order 3^4 * 5, "
                 "is not nilpotent"),
}


def test_hall_tables_force_non_split_rows():
    """Every pi with 2 <= |pi| <= 5 and pi(G) not inside pi, on Alt(5)-Alt(39)
    and the sporadic groups: exactly the FORCED_NON_SPLIT rows have E_pi,
    D_sigma and D_tau without D_pi, and each records its structure."""
    groups = [(alt(n), lambda pi, n=n: sym_epi(n, pi))
              for n in range(5, 40)]
    groups += [(sporadic(name), lambda pi, name=name: sporadic_epi(name, pi))
               for name in SPORADIC_ORDERS]
    rows, forced = 0, {}
    for gid, epi in groups:
        spectrum = facts(gid).spectrum
        dpi = functools.cache(lambda pi, gid=gid: decide_dpi_simple(gid, pi).dpi)
        for k in range(2, 6):
            for pi in map(frozenset, itertools.combinations(sorted(spectrum), k)):
                if pi >= spectrum:
                    continue
                rows += 1
                if not (structures := epi(pi)) or dpi(pi):
                    continue
                for sigma, tau in _two_part_partitions(pi):
                    if dpi(sigma) and dpi(tau):
                        key = (str(gid), *(tuple(sorted(x)) for x in (pi, sigma, tau)))
                        forced[key] = (structures, pi_part(order_of(gid), pi))
    assert rows == 24025
    assert forced == {key: ((structure,), order)
                      for key, (structure, order, _) in FORCED_NON_SPLIT.items()}, forced


@pytest.mark.parametrize("spec", ["Alt:5", "Alt:7", "Spor:M11"])
def test_forced_non_split_rows_by_brute_force(spec):
    g = realize(spec)
    report = maximal_pi_subgroups(g, {2, 3}, with_structure=False)
    assert report.epi and not report.dpi
    assert all(split_hall(g, c.rep, {2}, {3}) is None for c in report.hall_classes)
