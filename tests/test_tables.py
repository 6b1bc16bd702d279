"""Embedded classification tables: checksum pin, gates, and cross-audits."""

import hashlib
import itertools
import json

import pytest

from sylowpi.catalog import facts, sporadic
from sylowpi.criterion import CONDITION_II_ITEMS
from sylowpi.permbrute import maximal_pi_subgroups, realize
from sylowpi.tables import (
    SPORADIC_EVEN_ROWS,
    SPORADIC_ODD_ROWS,
    alt_epi,
    dump_tables,
    primes_upto,
    sporadic_epi,
    sym_epi,
    table1_rows,
    table2_rows,
    table3_rows,
)


def test_primes_upto():
    assert primes_upto(10) == {2, 3, 5, 7}
    assert primes_upto(2) == {2}
    assert primes_upto(1) == frozenset()


def test_table_shapes():
    assert len(table1_rows()) == 3
    assert len(table2_rows()) == 30
    assert len(table3_rows()) == 15


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


def test_condition_ii_pairs_appear_in_table2():
    """Sporadic D_pi implies E_pi: every Condition II pair must be a
    Hall-existence row."""
    table2 = set(SPORADIC_ODD_ROWS)
    pairs = 0
    for name, sets in CONDITION_II_ITEMS:
        for pi in sets:
            pairs += 1
            assert (name, pi) in table2, (name, pi)
    assert pairs == 29


def test_sym_epi_prime_degree_row():
    ok, rows = sym_epi(7, primes_upto(6))
    assert ok and rows[0].hall_descriptor == "Sym_6"
    ok, rows = sym_epi(11, primes_upto(10))
    assert ok
    # composite degree with a proper prime subset does not qualify
    ok, _ = sym_epi(9, frozenset({2, 3, 5}))
    assert not ok


def test_sym_epi_special_rows():
    ok, rows = sym_epi(7, frozenset({2, 3}))
    assert ok and rows[0].hall_descriptor == "Sym_3 x Sym_4"
    ok, rows = sym_epi(8, frozenset({2, 3}))
    assert ok and rows[0].hall_descriptor == "Sym_4 wr Sym_2"
    ok, _ = sym_epi(9, frozenset({2, 3}))
    assert not ok
    ok, _ = sym_epi(8, frozenset({2, 3, 5}))
    assert not ok


def test_sym_epi_gate_violations():
    with pytest.raises(ValueError):
        sym_epi(7, frozenset({2}))          # |pi ^ pi(n!)| <= 1
    with pytest.raises(ValueError):
        sym_epi(7, primes_upto(7))          # pi(n!) within pi
    with pytest.raises(ValueError):
        sym_epi(4, frozenset({2, 3}))       # degree too small


def test_alt_epi_needs_2_and_3():
    assert not alt_epi(7, frozenset({3, 5}))
    assert not alt_epi(7, frozenset({2, 5}))
    assert alt_epi(7, frozenset({2, 3}))
    assert not alt_epi(9, frozenset({2, 3}))


def test_sporadic_epi_lookup():
    assert sporadic_epi("M11", frozenset({5, 11}))[0]
    assert not sporadic_epi("M12", frozenset({3, 5}))[0]
    assert sporadic_epi("J1", frozenset({2, 7}))[0]
    assert not sporadic_epi("M11", frozenset({2, 5}))[0]
    # trivial gates are answered, not refused
    assert sporadic_epi("M11", frozenset({11}))[0]          # Sylow
    assert sporadic_epi("M11", frozenset({2, 3, 5, 11}))[0]  # whole group
    with pytest.raises(ValueError):
        sporadic_epi("NotAGroup", frozenset({2, 3}))


def test_dump_tables_is_json_ready():
    data = dump_tables()
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("family, n", [("Alt", 5), ("Alt", 6), ("Alt", 7),
                                       ("Sym", 5), ("Sym", 6), ("Sym", 7)])
def test_epi_tables_match_brute_force(family, n):
    g = realize(f"{family}:{n}")
    g.require_table(bound=5040)
    spectrum = sorted(primes_upto(n))
    for k in range(2, len(spectrum)):
        for pi in map(frozenset, itertools.combinations(spectrum, k)):
            table = alt_epi(n, pi) if family == "Alt" else sym_epi(n, pi)[0]
            assert table == maximal_pi_subgroups(g, pi, with_structure=False).epi, (n, pi)
