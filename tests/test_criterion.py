"""Conditions I-VII and the top-level simple-group D_pi decision."""

import collections
import itertools
import os
import random
import subprocess
import sys
import textwrap
import time

import pytest

from sylowpi import catalog, criterion
from sylowpi.arith import eps_mod4, is_fermat_prime, is_prime, mult_order, prime_divisors, r_part
from sylowpi.catalog import (
    LIE_TYPES,
    RANKED_TYPES,
    SUZUKI_REE,
    alt,
    facts,
    lie,
    parse_group,
    pi_effective,
    sporadic,
    spectrum_within,
    weyl_order,
)
from sylowpi.criterion import (
    CONDITION_II_ITEMS,
    ConditionReport,
    condition_I,
    condition_II,
    condition_III,
    condition_IV,
    condition_V,
    condition_VI,
    condition_VII,
    decide_dpi_simple,
)
from sylowpi.tables import sporadic_epi, sym_epi


def test_condition_I():
    assert condition_I(alt(5), frozenset({2, 3, 5, 7})).holds      # pi(G) in pi
    assert condition_I(alt(5), frozenset({5, 7})).holds            # singleton eff
    assert condition_I(alt(5), frozenset({7, 11})).holds           # empty eff
    assert not condition_I(alt(5), frozenset({2, 3})).holds


def test_condition_II_items():
    assert len(CONDITION_II_ITEMS) == 17
    assert sum(len(sets) for _, sets in CONDITION_II_ITEMS) == 29
    r = condition_II(sporadic("J1"), frozenset({3, 19}))
    assert r.holds and r.subcase == 6
    r = condition_II(sporadic("M"), frozenset({29, 59}))
    assert r.holds and r.subcase == 17
    r = condition_II(sporadic("M(23)"), frozenset({11, 23}))
    assert r.holds and r.subcase == 14
    assert not condition_II(sporadic("M11"), frozenset({2, 3})).holds
    assert not condition_II(alt(11), frozenset({5, 11})).holds
    # membership is by pi ^ pi(G), so extra primes outside pi(G) are harmless
    assert condition_II(sporadic("M11"), frozenset({5, 11, 13})).holds
    # a report built without bindings shares no mutable dict with another
    with pytest.raises(TypeError):
        condition_II(alt(11), frozenset({5, 11})).bindings["pi_effective"] = [5, 11]


def test_condition_III():
    # p = 11 in pi, tau = {5} in pi(10), Weyl order 2 coprime to {5,11}
    r = condition_III(lie("A", 11, n=2), frozenset({5, 11}))
    assert r.holds
    # 2 divides every nontrivial Weyl order, so characteristic 2 never works
    assert not condition_III(lie("A", 8, n=2), frozenset({2, 7})).holds
    assert not condition_III(lie("A", 4, n=2), frozenset({2, 3})).holds
    # tau must lie in pi(q-1)
    assert not condition_III(lie("A", 11, n=2), frozenset({3, 11})).holds
    # characteristic must belong to pi
    assert not condition_III(lie("A", 11, n=2), frozenset({3, 5})).holds
    # Suzuki/Ree characteristic divides the ambient Weyl order
    assert not condition_III(lie("2B2", 8), frozenset({2, 7})).holds
    assert not condition_III(lie("2G2", 27), frozenset({3, 13})).holds
    assert not condition_III(alt(5), frozenset({2, 3})).holds


def test_condition_IV_linear():
    # PSL(3,5): r=3, a=e(5,3)=2=r-1, t=31, b=e(5,31)=3=r, (5^2-1)_3=3,
    # [3/2]=[3/3]: item 1
    r = condition_IV(lie("A", 5, n=3), frozenset({3, 31}))
    assert r.holds and r.subcase == 1
    # PSL(5,5): same orders, [5/2]=[5/3]+1 and 5 = -1 mod 3: item 2
    r = condition_IV(lie("A", 5, n=5), frozenset({3, 31}))
    assert r.holds and r.subcase == 2
    # PSL(4,5) fails both floor clauses
    assert not condition_IV(lie("A", 5, n=4), frozenset({3, 31})).holds


def test_condition_IV_orthogonal():
    # 2D6(3): r=7 with a=e(3,7)=6=n, t=13 with b=e(3,13)=3 odd, n=a=2b: item 8
    r = condition_IV(lie("2D", 3, n=6), frozenset({7, 13}))
    assert r.holds and r.subcase == 8
    assert not condition_IV(lie("2D", 3, n=5), frozenset({7, 13})).holds


def test_condition_IV_gates():
    assert not condition_IV(lie("A", 5, n=3), frozenset({2, 3, 31})).holds  # 2 in pi
    assert not condition_IV(lie("A", 5, n=3), frozenset({3, 5, 31})).holds  # p in pi
    assert not condition_IV(lie("A", 5, n=3), frozenset({3})).holds         # tau empty
    assert not condition_IV(lie("2B2", 8), frozenset({5, 13})).holds
    assert not condition_IV(sporadic("M11"), frozenset({5, 11})).holds


def test_conditions_IV_and_V_refuse_a_pi_outside_the_order():
    # 7 does not divide |PSL(3,5)|, so pi_effective is empty.  Every Lie type
    # that the gates of condition_V and condition_VII let through has a row in
    # their tables, so each false report after a table's loop comes from a
    # row whose guard, bound or exclusion fails
    for condition in (condition_IV, condition_V):
        assert not condition(lie("A", 5, n=3), frozenset({7})).holds


def test_condition_V():
    # PSL(2,16): r=3, c=e(16,3)=1, e(16,5)=1, n=2 < 1*5: item 1
    r = condition_V(lie("A", 16, n=2), frozenset({3, 5}))
    assert r.holds and r.subcase == 1
    # PSL(6,16): inequality n < cs fails (6 >= 5)
    assert not condition_V(lie("A", 16, n=6), frozenset({3, 5})).holds
    # G2(16): no extra clause, item 14
    r = condition_V(lie("G2", 16), frozenset({3, 5}))
    assert r.holds and r.subcase == 14
    # 3D4(16): no extra clause, item 9
    r = condition_V(lie("3D4", 16), frozenset({3, 5}))
    assert r.holds and r.subcase == 9
    # orders must agree across all of tau
    assert not condition_V(lie("A", 4, n=2), frozenset({3, 5})).holds


def test_condition_V_exceptional_exclusions():
    # E6(16): r=3, c=1, 13 | 16^3-1 so e(16,13)=1 -> excluded pair
    assert not condition_V(lie("E6", 16), frozenset({3, 13})).holds
    r = condition_V(lie("E6", 16), frozenset({3, 7}))  # e(16,7)? 16=2 mod 7 -> 3
    assert not r.holds or r.subcase == 10
    # F4(16): r=3, c=1, 13 excluded
    assert not condition_V(lie("F4", 16), frozenset({3, 13})).holds
    # E8(16): r=3, c=1, 5 excluded
    assert not condition_V(lie("E8", 16), frozenset({3, 5})).holds


def test_condition_VI():
    # 2B2(8): the +/- sets are separate: {5} and {13} work, {5,13} does not
    assert condition_VI(lie("2B2", 8), frozenset({7})).holds
    assert condition_VI(lie("2B2", 8), frozenset({5})).holds
    assert condition_VI(lie("2B2", 8), frozenset({13})).holds
    assert not condition_VI(lie("2B2", 8), frozenset({5, 13})).holds
    # 2G2(27): pi(26) minus {2} = {13}
    assert condition_VI(lie("2G2", 27), frozenset({13})).holds
    assert not condition_VI(lie("2G2", 27), frozenset({2, 13})).holds
    # 2F4(8): pi(q^2+1) = {5,13}, pi(q^2-1) = {3,7},
    # pi(q^2+2^5-2^2-1) = pi(91) = {7,13}
    assert condition_VI(lie("2F4", 8), frozenset({5, 13})).holds
    assert condition_VI(lie("2F4", 8), frozenset({3, 7})).holds
    assert condition_VI(lie("2F4", 8), frozenset({7, 13})).holds
    assert not condition_VI(lie("2F4", 8), frozenset({3, 5})).holds
    assert not condition_VI(lie("A", 8, n=2), frozenset({7})).holds


def test_condition_VII():
    # PSL(2,41): eps=+1, tau={5} in pi(40), 5>n=2, Fermat 5>n+1=3: item 1
    r = condition_VII(lie("A", 41, n=2), frozenset({2, 5}))
    assert r.holds and r.subcase == 1
    # B3(43): eps=-1, tau={11} in pi(44), 11 > 2n+1 = 7: item 2
    r = condition_VII(lie("B", 43, n=3), frozenset({2, 11}))
    assert r.holds and r.subcase == 2
    # B5(43): 11 > 11 fails
    assert not condition_VII(lie("B", 43, n=5), frozenset({2, 11})).holds
    # 3D4(29): 7 divides q-eps = 28 but item 10 forbids 7 in tau
    assert not condition_VII(lie("3D4", 29), frozenset({2, 7})).holds
    # gates: 3 in pi, p in pi, 2 missing
    assert not condition_VII(lie("A", 41, n=2), frozenset({2, 3, 5})).holds
    assert not condition_VII(lie("A", 41, n=2), frozenset({2, 41})).holds
    assert not condition_VII(lie("A", 41, n=2), frozenset({5})).holds
    # tau must divide q - eps (eps chosen so that 4 | q - eps)
    assert not condition_VII(lie("A", 41, n=2), frozenset({2, 7})).holds
    # vacuous tau holds
    assert condition_VII(lie("A", 7, n=2), frozenset({2})).holds


def test_decide_dpi_simple_witnesses():
    v = decide_dpi_simple(sporadic("M11"), frozenset({5, 11}))
    assert v.dpi and v.witness.condition == "II" and v.witness.subcase == 1
    v = decide_dpi_simple(alt(5), frozenset({2, 3}))
    assert not v.dpi and v.witness is None
    v = decide_dpi_simple(alt(9), frozenset({3}))
    assert v.dpi and v.witness.condition == "I"
    v = decide_dpi_simple(lie("A", 11, n=2), frozenset({5, 11}))
    assert v.dpi and v.witness.condition == "III"
    v = decide_dpi_simple(lie("2B2", 8), frozenset({5}))
    assert v.dpi and v.witness.condition == "I"  # lowest-numbered witness wins


# One (G, pi) per subcase of Conditions IV, V and VII, found by a scan over
# the code's own conditions.  These pin what the code decides today; no
# independent oracle has checked them.  V(7) has no case: V(6) is tried
# first and accepts every input that V(7) accepts.
SUBCASE_WITNESSES = [
    ("Lie:A:3:2", {3, 7}, "IV", 1, {"a": 2, "b": 3, "r": 3, "t": 7, "tau": [7]}),
    ("Lie:A:5:2", {3, 7}, "IV", 2, {"a": 2, "b": 3, "r": 3, "t": 7, "tau": [7]}),
    ("Lie:2A:5:2", {5, 11}, "IV", 3, {"a": 4, "b": 10, "r": 5, "t": 11, "tau": [11]}),
    ("Lie:2A:3:4", {3, 13}, "IV", 4, {"a": 1, "b": 6, "r": 3, "t": 13, "tau": [13]}),
    ("Lie:2A:9:2", {5, 11}, "IV", 5, {"a": 4, "b": 10, "r": 5, "t": 11, "tau": [11]}),
    ("Lie:2A:5:4", {3, 13}, "IV", 6, {"a": 1, "b": 6, "r": 3, "t": 13, "tau": [13]}),
    ("Lie:2D:6:4", {7, 13}, "IV", 7, {"a": 3, "b": 6, "r": 7, "t": 13, "tau": [13]}),
    ("Lie:2D:6:3", {7, 13}, "IV", 8, {"a": 6, "b": 3, "r": 7, "t": 13, "tau": [13]}),
    ("Lie:A:2:16", {3, 5}, "V", 1, {"c": 1, "r": 3, "tau": [5]}),
    ("Lie:2A:4:8", {5, 13}, "V", 2, {"c": 4, "r": 5, "tau": [13]}),
    ("Lie:2A:3:17", {7, 13}, "V", 3, {"c": 6, "r": 7, "tau": [13]}),
    ("Lie:2A:3:16", {3, 5}, "V", 4, {"c": 1, "r": 3, "tau": [5]}),
    ("Lie:B:2:16", {3, 5}, "V", 5, {"c": 1, "r": 3, "tau": [5]}),
    ("Lie:B:2:8", {5, 13}, "V", 6, {"c": 4, "r": 5, "tau": [13]}),
    ("Lie:2D:4:16", {3, 5}, "V", 8, {"c": 1, "r": 3, "tau": [5]}),
    ("Lie:3D4:9", {7, 13}, "V", 9, {"c": 3, "r": 7, "tau": [13]}),
    ("Lie:E6:4", {11, 31}, "V", 10, {"c": 5, "r": 11, "tau": [31]}),
    ("Lie:2E6:3", {19, 37}, "V", 11, {"c": 18, "r": 19, "tau": [37]}),
    ("Lie:E7:3", {19, 37}, "V", 12, {"c": 18, "r": 19, "tau": [37]}),
    ("Lie:E8:3", {19, 37}, "V", 13, {"c": 18, "r": 19, "tau": [37]}),
    ("Lie:G2:9", {7, 13}, "V", 14, {"c": 3, "r": 7, "tau": [13]}),
    ("Lie:F4:8", {5, 13}, "V", 15, {"c": 4, "r": 5, "tau": [13]}),
    ("Lie:A:2:19", {2, 5}, "VII", 1, {"eps": -1, "phi": [5], "tau": [5]}),
    ("Lie:B:2:27", {2, 7}, "VII", 2, {"eps": -1, "phi": [], "tau": [7]}),
    ("Lie:C:2:27", {2, 7}, "VII", 3, {"eps": -1, "phi": [], "tau": [7]}),
    ("Lie:D:4:43", {2, 11}, "VII", 4, {"eps": -1, "phi": [], "tau": [11]}),
    ("Lie:G2:19", {2, 5}, "VII", 5, {"eps": -1, "phi": [5], "tau": [5]}),
    ("Lie:F4:43", {2, 11}, "VII", 6, {"eps": -1, "phi": [], "tau": [11]}),
    ("Lie:E6:43", {2, 11}, "VII", 7, {"eps": -1, "phi": [], "tau": [11]}),
    ("Lie:E7:53", {2, 13}, "VII", 8, {"eps": 1, "phi": [], "tau": [13]}),
    ("Lie:E8:67", {2, 17}, "VII", 9, {"eps": -1, "phi": [17], "tau": [17]}),
    ("Lie:3D4:19", {2, 5}, "VII", 10, {"eps": -1, "phi": [5], "tau": [5]}),
]


@pytest.mark.parametrize("spec, pi, condition, subcase, bindings", SUBCASE_WITNESSES)
def test_each_subcase_of_IV_and_V_is_a_witness(spec, pi, condition, subcase, bindings):
    v = decide_dpi_simple(parse_group(spec), frozenset(pi))
    assert v.dpi
    assert (v.witness.condition, v.witness.subcase) == (condition, subcase)
    assert v.witness.bindings == bindings


def test_table_cells_are_the_pinned_cells_and_V7():
    # IV(7) and IV(8) are the two 2D lines of _condition_IV, not rows
    cells = {("IV", 7), ("IV", 8)}
    for condition, rows in (("IV", criterion._IV_ROWS), ("V", criterion._V_ROWS),
                            ("VII", criterion._VII_ROWS)):
        cells |= {(condition, row[0]) for row in rows}
    assert cells == {(c, sub) for _, _, c, sub, _ in SUBCASE_WITNESSES} | {("V", 7)}
    # V(7) is unreachable: V(6) comes first, on a superset of its types, with
    # the same guard, and every (n, c * s) that V(7)'s bound admits V(6)'s
    # admits too
    subcases = [row[0] for row in criterion._V_ROWS]
    six, seven = (criterion._V_ROWS[subcases.index(sub)] for sub in (6, 7))
    assert subcases.index(6) < subcases.index(7)
    assert seven[1] <= six[1] and seven[2] == six[2]

    def admits(row, n, cs):
        k, m, strict = row[3:6]
        return k * n < m * cs or not strict and k * n == m * cs

    assert all(admits(six, n, cs) for n in range(1, 100) for cs in range(1, 400)
               if admits(seven, n, cs))


# Rows at the thresholds of criterion.py that no other test pins: moving one
# threshold by one (< to <=, == to !=, and to or, or one entry of a table
# row) changes the row's verdict or witness.  Each id names the subcase and
# the boundary; each row is the (G, pi) of least order with that effect, and
# pins what the code decides today.  The first 22 ids also carry the line
# number that the subcase's branch had before the subcases became rows of
# _IV_ROWS, _V_ROWS and _VII_ROWS; they keep it so that their names stay.
# These mutants change no verdict, so no row can pin them:
# - V(5)'s strict `2 * n < c * s`: c and s are odd, so c * s is odd and
#   2n <= cs holds just when 2n < cs does;
# - V(7)'s bound, and its k, m or strict moved so that the bound still
#   implies n < c * s: V(7) never fires, since V(6) is tried first and
#   accepts every input that V(7) accepts;
# - V(14) without residue 0: every prime r of |G2(q)| divides q^6 - 1 or
#   q^2 - 1, so c = e(q, r) divides 6 and is never 0 mod 4;
# - a bound on s moved by one where no odd number lies between: s is an odd
#   prime, so s > 2n + 1 holds just when s > 2n + 2 does (VII(2)'s m and
#   Fermat m, VII(3)'s Fermat m) and s > 2n just when s > 2n - 1 does
#   (VII(4)'s m and Fermat m);
# - a Fermat bound of VII(2) or VII(4) moved below the bound on every s of
#   tau (Fermat k down by one, or Fermat m down by one), which then implies
#   it.
@pytest.mark.parametrize("spec, pi, witness", [
    pytest.param("Lie:C:7:29", {2, 7}, None, id="line303-VII(3)-s=n"),
    # r = 3 with a = e(q, 3) = r - 1 = 2: neither IV(3) (r % 4 == 1) nor
    # IV(4) (a = (r - 1) / 2) applies
    pytest.param("Lie:2A:3:5", {3, 7}, None, id="line168+173-IV(3)+IV(4)-r%4=3,a=r-1"),
    pytest.param("Lie:2A:8:2", {5, 11}, None, id="line171-IV(5)-floors+1,n%r<r-1"),
    pytest.param("Lie:A:5:16", {3, 5}, None, id="line204-V(1)-n=cs"),
    pytest.param("Lie:2A:52:8", {5, 13}, None, id="line207-V(2)-n=cs"),
    pytest.param("Lie:2A:5:29", {3, 5}, None, id="line209-V(3)-2n=cs"),
    pytest.param("Lie:2A:10:16", {3, 5}, None, id="line210-V(4)-n=2cs"),
    pytest.param("Lie:D:10:29", {3, 5}, None, id="line214-V(6)-n=cs"),
    pytest.param("Lie:2D:5:16", {3, 5}, ("V", 8), id="line218-V(8)-n=cs"),
    # the exceptional exclusions: the excluded (r, c, prime) itself, and one
    # row that meets only part of it
    pytest.param("Lie:E6:16", {3, 5}, None, id="line224-V(10)-r=3,c=1,5"),
    pytest.param("Lie:E6:8", {5, 13}, ("V", 10), id="line224-V(10)-r=5,c=4,13"),
    pytest.param("Lie:2E6:29", {3, 5}, None, id="line226-V(11)-r=3,c=2,5"),
    pytest.param("Lie:2E6:16", {3, 5}, ("V", 11), id="line226-V(11)-r=3,c=1,5"),
    pytest.param("Lie:2E6:8", {5, 13}, ("V", 11), id="line226-V(11)-r=5,c=4,13"),
    pytest.param("Lie:E7:16", {3, 5}, None, id="line228+229-V(12)-r=3,c=1,5"),
    pytest.param("Lie:E7:8", {5, 13}, ("V", 12), id="line228+229-V(12)-r=5,c=4,13"),
    pytest.param("Lie:E7:71", {5, 7}, None, id="line229-V(12)-r=5,c=1,7"),
    pytest.param("Lie:E8:16", {3, 5}, None, id="line233-V(13)-r=3,c=1,5"),
    pytest.param("Lie:E8:8", {5, 13}, ("V", 13), id="line232-V(13)-r=5,c=4,13"),
    pytest.param("Lie:E8:4", {11, 31}, ("V", 13), id="line233-V(13)-r=11,c=5,31"),
    pytest.param("Lie:E8:71", {5, 7}, None, id="line233-V(13)-r=5,c=1,7"),
    pytest.param("Lie:F4:79", {3, 13}, None, id="line238-V(15)-r=3,c=1,13"),
    # the table entries: each row holds just past one entry's boundary
    pytest.param("Lie:A:9:2", {5, 31}, ("IV", 2), id="IV(2)-r%4=1"),
    pytest.param("Lie:2A:26:8", {5, 13}, ("V", 2), id="V(2)-2n=cs"),
    pytest.param("Lie:2D:20:9", {7, 13}, ("V", 8), id="V(8)-c%4=3,2n>cs"),
    pytest.param("Lie:E6:79", {3, 13}, None, id="V(10)-r=3,c=1,13"),
    pytest.param("Lie:2E6:233", {3, 13}, None, id="V(11)-r=3,c=2,13"),
    pytest.param("Lie:E7:139", {5, 7}, None, id="V(12)-r=5,c=2,7"),
    pytest.param("Lie:E8:29", {3, 5}, None, id="V(13)-r=3,c=2,5"),
    pytest.param("Lie:E8:139", {5, 7}, None, id="V(13)-r=5,c=2,7"),
    pytest.param("Lie:B:6:67", {2, 17}, ("VII", 2), id="VII(2)-Fermat-t=17<=3n+1"),
    pytest.param("Lie:C:6:27", {2, 7}, ("VII", 3), id="VII(3)-s=n+1"),
    pytest.param("Lie:C:6:67", {2, 17}, ("VII", 3), id="VII(3)-Fermat-t=17<=3n+1"),
    pytest.param("Lie:D:6:67", {2, 17}, ("VII", 4), id="VII(4)-Fermat-t=17<=3n"),
    pytest.param("Lie:D:8:67", {2, 17}, ("VII", 4), id="VII(4)-Fermat-t=2n+1"),
])
def test_threshold_boundaries(spec, pi, witness):
    v = decide_dpi_simple(parse_group(spec), frozenset(pi))
    assert v.dpi == (witness is not None)
    assert (v.witness and (v.witness.condition, v.witness.subcase)) == witness


def isomorphic_classes():
    """Groups that the catalog names more than once, one tuple per group."""
    yield alt(5), lie("A", 4, n=2), lie("A", 5, n=2)
    yield alt(6), lie("A", 9, n=2)
    yield lie("A", 7, n=2), lie("A", 2, n=3)
    yield alt(8), lie("A", 2, n=4)
    yield lie("B", 3, n=2), lie("2A", 2, n=4)  # PSp(4,3) = PSU(4,2)
    for q in range(3, 130):
        if catalog.prime_power(q):
            yield lie("B", q, n=2), lie("C", q, n=2)
    for n in (3, 4, 5):
        for k in range(1, 6):
            yield lie("B", 2**k, n=n), lie("C", 2**k, n=n)


def test_isomorphic_groups_get_one_verdict():
    # 65 pairs and 9,030 (pair, pi) rows with 1 <= |pi| <= 4, in about 1 s;
    # 11 rows agree through different witnesses: III against IV(1), and
    # VII(2) against VII(3)
    reached = set()
    for group in isomorphic_classes():
        orders = {catalog.order_of(g) for g in group}
        assert len(orders) == 1, group
        spectrum = sorted(prime_divisors(orders.pop()))
        for k in range(1, 5):
            for pi in itertools.combinations(spectrum, k):
                verdicts = [decide_dpi_simple(g, frozenset(pi)) for g in group]
                assert len({v.dpi for v in verdicts}) == 1, (group, pi)
                reached |= {(v.witness.condition, v.witness.subcase)
                            for v in verdicts if v.dpi}
    assert reached == {("I", None), ("III", None), ("IV", 1), ("V", 5), ("V", 6),
                       ("VII", 2), ("VII", 3)}


def small_pis(gid):
    """Every pi within pi(G) with 1 <= |pi| <= 4."""
    spectrum = sorted(prime_divisors(catalog.order_of(gid)))
    for k in range(1, 5):
        yield from map(frozenset, itertools.combinations(spectrum, k))


def test_psl2_gets_one_verdict_under_its_low_rank_names(monkeypatch):
    # A1(q) = C1(q), and B1(q) for odd q, below the catalog's least ranks of B
    # and C: 1,391 (q, pi) rows and 2,693 pairs
    monkeypatch.setitem(catalog._LEAST_RANK, "B", 1)
    monkeypatch.setitem(catalog._LEAST_RANK, "C", 1)
    rows = pairs = 0
    for q in filter(catalog.prime_power, range(4, 200)):
        group = [lie("A", q, n=2), lie("C", q, n=1)] + ([lie("B", q, n=1)] if q % 2 else [])
        assert len({catalog.order_of(g) for g in group}) == 1, group
        for pi in small_pis(group[0]):
            assert len({decide_dpi_simple(g, pi).dpi for g in group}) == 1, (group, pi)
            rows, pairs = rows + 1, pairs + len(group) - 1
    assert (rows, pairs) == (1391, 2693)


def test_low_rank_d_types_differ_only_where_condition_v_has_no_case(monkeypatch):
    # A3(q) = D3(q) and 2A3(q) = 2D3(q), for prime powers q < 130: 12,366
    # rows.  No V subcase covers D_n with c odd or 2D_n with c even, so 117
    # rows that V(1), V(2) or V(3) decides for the A side get no witness on
    # the D side.  Revin's D_n and 2D_n start at n = 4, so these rows are
    # reported and criterion.py is left as it is.
    monkeypatch.setitem(catalog._LEAST_RANK, "D", 3)
    monkeypatch.setitem(catalog._LEAST_RANK, "2D", 3)
    rows, gaps = 0, collections.Counter()
    for q in filter(catalog.prime_power, range(2, 130)):
        for t_a, t_d in (("A", "D"), ("2A", "2D")):
            a_side, d_side = lie(t_a, q, n=4), lie(t_d, q, n=3)
            assert catalog.order_of(a_side) == catalog.order_of(d_side), q
            for pi in small_pis(a_side):
                a, d = decide_dpi_simple(a_side, pi), decide_dpi_simple(d_side, pi)
                rows += 1
                if a.dpi != d.dpi:
                    assert a.dpi and not d.dpi and d.witness is None, (a_side, pi)
                    gaps[t_a, a.witness.condition, a.witness.subcase] += 1
    assert rows == 12366
    assert gaps == {("A", "V", 1): 43, ("2A", "V", 2): 37, ("2A", "V", 3): 37}


def one_pass_groups():
    """Alternating and sporadic groups, every Lie type at three q (a ranked
    type at its least rank), Suzuki-Ree groups, and four ids where IV fires."""
    yield from (alt(n) for n in (5, 7, 13))
    yield from (sporadic(name) for name in ("M11", "J1", "ON", "Co1"))
    for t in LIE_TYPES:
        if t in SUZUKI_REE:
            yield from (lie(t, q) for q in {"2B2": (8, 32), "2G2": (27,), "2F4": (8,)}[t])
        else:
            n = catalog._LEAST_RANK.get(t)
            yield from (lie(t, q, n=n) for q in (16, 29, 211))
    yield from map(parse_group, ("Lie:A:3:2", "Lie:2A:5:2", "Lie:2A:3:4", "Lie:2D:6:3"))


def test_one_pass_decision_equals_the_first_public_condition(monkeypatch):
    # 54 groups and 10,240 (G, pi) rows, pi any subset of {2, 3, 5, 7, 11, 13,
    # p} and one prime outside pi(G), in about 0.4 s.  A decision intersects
    # pi with pi(G) once; the public conditions take the raw pi.
    calls = []
    intersect = criterion.pi_effective
    monkeypatch.setattr(criterion, "pi_effective",
                        lambda gid, pi: calls.append(gid) or intersect(gid, pi))
    public = (condition_I, condition_II, condition_III, condition_IV, condition_V,
              condition_VI, condition_VII)
    rows, reached = 0, set()
    for gid in one_pass_groups():
        order = catalog.order_of(gid)
        absent = next(r for r in range(17, 1000) if is_prime(r) and order % r)
        pool = sorted({2, 3, 5, 7, 11, 13, absent} | ({gid.p} if gid.p else set()))
        for k in range(len(pool) + 1):
            for pi in map(frozenset, itertools.combinations(pool, k)):
                calls.clear()
                got = decide_dpi_simple(gid, pi)
                assert len(calls) == 1, (gid, sorted(pi))
                want = next((r for r in (cond(gid, pi) for cond in public) if r.holds), None)
                assert got.dpi == (want is not None), (gid, sorted(pi))
                if want is not None:
                    assert got.witness == want, (gid, sorted(pi))
                    reached.add(want.condition)
                assert got.pi_effective == intersect(gid, pi), (gid, sorted(pi))
                rows += 1
    assert rows == 10240
    assert reached == {"I", "II", "III", "IV", "V", "VI", "VII"}


def test_d_pi_implies_e_pi_on_the_hall_tables():
    # ROADMAP 13(b): Alt(n) for 5 <= n < 30 and every sporadic group, on every
    # pi within pi(G) with 1 <= |pi| <= 4: 7,590 rows in about 0.2 s.  No row
    # has D_pi without E_pi; these 18 have E_pi without D_pi.
    e_without_d = {
        (5, (2, 3)), (7, (2, 3)), (7, (2, 3, 5)), (8, (2, 3)), (11, (2, 3, 5, 7)),
        ("M11", (2, 3)), ("M11", (2, 3, 5)), ("M22", (2, 3, 5)), ("M23", (2, 3)),
        ("M23", (2, 3, 5)), ("M23", (2, 3, 5, 7)), ("M24", (2, 3, 5)), ("J1", (2, 3)),
        ("J1", (2, 7)), ("J1", (2, 3, 5)), ("J1", (2, 3, 7)), ("J4", (2, 3, 5)),
        ("ON", (3, 5)),
    }
    groups = [(n, alt(n), lambda pi, n=n: bool(sym_epi(n, pi))) for n in range(5, 30)]
    groups += [(name, sporadic(name), lambda pi, name=name: sporadic_epi(name, pi))
               for name in catalog.SPORADIC_ORDERS]
    rows, found = 0, set()
    for key, gid, epi in groups:
        for pi in small_pis(gid):
            dpi, hall = decide_dpi_simple(gid, pi).dpi, bool(epi(pi))
            assert hall or not dpi, (key, sorted(pi))
            if hall and not dpi:
                found.add((key, tuple(sorted(pi))))
            rows += 1
    assert rows == 7590
    assert found == e_without_d


def test_a_pi_that_holds_1_is_refused():
    # in a process of its own, so that a hang fails this test at its timeout
    # and not the whole suite
    script = textwrap.dedent("""
        from sylowpi.catalog import sporadic
        from sylowpi.criterion import decide_dpi_simple
        from sylowpi.tables import sporadic_epi
        for call in (lambda: decide_dpi_simple(sporadic("M11"), frozenset({1, 5})),
                     lambda: sporadic_epi("M11", frozenset({1, 5}))):
            try:
                call()
            except ValueError as e:
                print(e)
    """)
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.splitlines() == ["1 is not prime"] * 2


def test_a_large_power_of_2_is_stripped_at_once():
    # |PSL(300, 2)| holds 2^44850: 44,850 divisions of a 90,000-bit order
    # when 2 is stripped one power at a time
    gid = parse_group("Lie:A:300:2")
    start = time.perf_counter()
    verdict = decide_dpi_simple(gid, frozenset({2, 3}))
    assert time.perf_counter() - start < 0.5
    assert not verdict.dpi and verdict.witness is None


def dpi23_shortcut(gid, pi):
    """Oracle: when 2 and 3 both lie in pi ^ pi(G), D_pi reduces to the
    containment pi(G) within pi.  Returns None when the shortcut does not
    apply."""
    if not {2, 3} <= pi_effective(gid, pi):
        return None
    return spectrum_within(gid, pi)


def test_dpi23_shortcut():
    assert dpi23_shortcut(alt(7), frozenset({2, 3, 5, 7})) is True
    assert dpi23_shortcut(alt(7), frozenset({2, 3, 5})) is False
    assert dpi23_shortcut(alt(7), frozenset({2, 5})) is None


def test_shortcut_coherence_on_corpus():
    ids = [alt(5), alt(6), lie("A", 7, n=2), lie("A", 8, n=2),
           lie("A", 9, n=2), lie("A", 11, n=2), sporadic("M11"), sporadic("J1")]
    for gid in ids:
        spectrum = sorted(facts(gid).spectrum)
        for k in range(len(spectrum) + 1):
            for combo in itertools.combinations(spectrum, k):
                pi = frozenset(combo)
                short = dpi23_shortcut(gid, pi)
                if short is not None:
                    assert short == decide_dpi_simple(gid, pi).dpi, (gid, pi)


def test_gate_disjointness_with_2_and_3():
    """With 2 and 3 both in pi, only Condition I can fire."""
    ids = [alt(6), lie("A", 7, n=2), lie("A", 9, n=2), sporadic("M11"),
           lie("2B2", 8), lie("G2", 4)]
    for gid in ids:
        spectrum = sorted(facts(gid).spectrum)
        for k in range(len(spectrum) + 1):
            for combo in itertools.combinations(spectrum, k):
                pi = frozenset(combo) | {2, 3}
                for cond in (condition_II, condition_III, condition_IV,
                             condition_V, condition_VI, condition_VII):
                    assert not cond(gid, pi).holds, (gid, pi, cond.__name__)


def test_decide_on_a_built_id_validates_nothing(monkeypatch):
    gid = lie("A", 7, n=3)
    calls = []
    check = catalog.ensure_valid

    def counting_check(g):
        calls.append(g)
        return check(g)

    monkeypatch.setattr(catalog, "ensure_valid", counting_check)
    for pi in ({2}, {2, 3}, {3, 19}, {2, 19}, {7, 19}):
        decide_dpi_simple(gid, frozenset(pi))
    assert calls == []


def test_invalid_group_rejected():
    with pytest.raises(ValueError):
        decide_dpi_simple(alt(4), frozenset({2}))
    with pytest.raises(ValueError):
        decide_dpi_simple(lie("A", 3, n=2), frozenset({2}))


@pytest.mark.parametrize("lie_type, q, n, pi", [
    ("A", 7, 3, {2, 3}),
    ("2F4", 8, None, {3, 5}),
    ("2G2", 27, None, {2, 13}),
    ("E8", 4, None, {7, 11}),
    ("A", 2, 1000, {3, 5}),  # |PSL(1000, 2)| has 999,999 bits
    ("A", 2, 1000, {2, 3}),
])
def test_a_decision_builds_no_group_order(monkeypatch, lie_type, q, n, pi):
    def built(*args):
        raise AssertionError(f"the order of {args} was built")

    monkeypatch.setattr(catalog, "_lie_order", built)
    gid = lie(lie_type, q, n=n)
    start = time.perf_counter()
    decide_dpi_simple(gid, frozenset(pi))
    assert time.perf_counter() - start < 1
    assert "order" not in gid.__dict__


# Reference definitions of Conditions III, VI and VII, which decide prime-set
# membership by factoring q - 1, q - eps and every torus order, and of
# Conditions IV and V, with one branch per subcase.  The criterion answers
# the same questions by divisibility and from tables of subcases, and must
# agree on holds, subcase and bindings.

def reference_condition_III(gid, pi):
    if gid.family != "Lie":
        return ConditionReport("III", False)
    q, p, n = gid.q, gid.p, gid.n
    if p not in pi:
        return ConditionReport("III", False)
    if gid.lie_type in SUZUKI_REE:
        return ConditionReport("III", False, bindings={"p": p})
    eff = pi_effective(gid, pi)
    tau = eff - {p}
    bindings = {"p": p, "tau": sorted(tau)}
    if not tau <= prime_divisors(q - 1):
        return ConditionReport("III", False, bindings=bindings)
    w = weyl_order(gid.lie_type, n)
    bindings["weyl_order"] = w
    holds = all(w % s != 0 for s in eff)
    return ConditionReport("III", holds, bindings=bindings)


def reference_odd_gate(gid, eff):
    if gid.family != "Lie" or gid.lie_type in SUZUKI_REE:
        return None
    q, p = gid.q, gid.p
    if not eff or 2 in eff or p in eff:
        return None
    r = min(eff)
    return q, r, eff - {r}


def reference_condition_IV(gid, pi):
    gate = reference_odd_gate(gid, pi_effective(gid, pi))
    if gate is None:
        return ConditionReport("IV", False)
    q, r, tau = gate
    a = mult_order(q, r)
    n, t_lie = gid.n, gid.lie_type

    def floors_eq(delta):
        return n // (r - 1) == n // r + delta

    orders = {s: mult_order(q, s) for s in tau}
    for t in sorted(tau):
        b = orders[t]
        if b == a:
            continue
        bindings = {"r": r, "a": a, "t": t, "b": b, "tau": sorted(tau)}
        all_b = all(orders[s] == b for s in tau)
        a_or_b = all(orders[s] in (a, b) for s in tau)
        if t_lie == "A" and a == r - 1 and b == r and r_part(q ** (r - 1) - 1, r) == r and all_b:
            if floors_eq(0):
                return ConditionReport("IV", True, subcase=1, bindings=bindings)
            if floors_eq(1) and n % r == r - 1:
                return ConditionReport("IV", True, subcase=2, bindings=bindings)
        if t_lie == "2A" and b == 2 * r and r_part(q ** (r - 1) - 1, r) == r and all_b:
            if r % 4 == 1 and a == r - 1:
                if floors_eq(0):
                    return ConditionReport("IV", True, subcase=3, bindings=bindings)
                if floors_eq(1) and n % r == r - 1:
                    return ConditionReport("IV", True, subcase=5, bindings=bindings)
            if r % 4 == 3 and a == (r - 1) // 2:
                if floors_eq(0):
                    return ConditionReport("IV", True, subcase=4, bindings=bindings)
                if floors_eq(1) and n % r == r - 1:
                    return ConditionReport("IV", True, subcase=6, bindings=bindings)
        if t_lie == "2D" and a_or_b:
            if a % 2 == 1 and n == b == 2 * a:
                return ConditionReport("IV", True, subcase=7, bindings=bindings)
            if b % 2 == 1 and n == a == 2 * b:
                return ConditionReport("IV", True, subcase=8, bindings=bindings)
    return ConditionReport("IV", False)


def reference_condition_V(gid, pi):
    gate = reference_odd_gate(gid, pi_effective(gid, pi))
    if gate is None:
        return ConditionReport("V", False)
    q, r, tau = gate
    c = mult_order(q, r)
    if any(mult_order(q, s) != c for s in tau):
        return ConditionReport("V", False)
    n, t_lie = gid.n, gid.lie_type
    bindings = {"r": r, "c": c, "tau": sorted(tau)}

    def report(subcase, holds=True):
        return ConditionReport("V", holds, subcase=subcase if holds else None,
                               bindings=bindings)

    if t_lie == "A":
        return report(1, all(n < c * s for s in tau))
    if t_lie == "2A":
        if c % 4 == 0:
            return report(2, all(n < c * s for s in tau))
        if c % 4 == 2:
            return report(3, all(2 * n < c * s for s in tau))
        return report(4, all(n < 2 * c * s for s in tau))
    if t_lie in ("B", "C", "D", "2D"):
        if c % 2 == 1 and t_lie in ("B", "C", "2D") and all(2 * n < c * s for s in tau):
            return report(5)
        if c % 2 == 0 and t_lie in ("B", "C", "D") and all(n < c * s for s in tau):
            return report(6)
        if c % 2 == 0 and t_lie == "D" and all(2 * n <= c * s for s in tau):
            return report(7)
        if c % 2 == 1 and t_lie == "2D" and all(n <= c * s for s in tau):
            return report(8)
        return ConditionReport("V", False, bindings=bindings)
    if t_lie == "3D4":
        return report(9)
    if t_lie == "E6":
        return report(10, not (r == 3 and c == 1 and ({5, 13} & tau)))
    if t_lie == "2E6":
        return report(11, not (r == 3 and c == 2 and ({5, 13} & tau)))
    if t_lie == "E7":
        ok = not (r == 3 and c in (1, 2) and ({5, 7, 13} & tau))
        ok = ok and not (r == 5 and c in (1, 2) and 7 in tau)
        return report(12, ok)
    if t_lie == "E8":
        ok = not (r == 3 and c in (1, 2) and ({5, 7, 13} & tau))
        ok = ok and not (r == 5 and c in (1, 2) and ({7, 31} & tau))
        return report(13, ok)
    if t_lie == "G2":
        return report(14)
    if t_lie == "F4":
        return report(15, not (r == 3 and c == 1 and 13 in tau))
    return ConditionReport("V", False, bindings=bindings)


def reference_suzuki_ree_sets(t_lie, q):
    if t_lie == "2B2":
        m = (q.bit_length() - 2) // 2
        h = 2 ** (m + 1)
        return [prime_divisors(q - 1), prime_divisors(q + h + 1), prime_divisors(q - h + 1)]
    if t_lie == "2G2":
        f = 1
        qq = q
        while qq % 3 == 0 and qq > 3:
            qq //= 3
            f += 1
        m = (f - 1) // 2
        h = 3 ** (m + 1)
        return [prime_divisors(q - 1) - {2},
                prime_divisors(q + h + 1) - {2},
                prime_divisors(q - h + 1) - {2}]
    m = (q.bit_length() - 2) // 2
    h = 2 ** (m + 1)
    g = 2 ** (3 * m + 2)
    return [
        prime_divisors(q * q + 1),
        prime_divisors(q * q - 1),
        prime_divisors(q + h + 1),
        prime_divisors(q - h + 1),
        prime_divisors(q * q + g - h - 1),
        prime_divisors(q * q - g + h - 1),
        prime_divisors(q * q + g + q + h - 1),
        prime_divisors(q * q - g + q - h - 1),
    ]


def reference_condition_VI(gid, pi):
    if gid.family != "Lie" or gid.lie_type not in SUZUKI_REE:
        return ConditionReport("VI", False)
    eff = pi_effective(gid, pi)
    subcase = {"2B2": 1, "2G2": 2, "2F4": 3}[gid.lie_type]
    for target in reference_suzuki_ree_sets(gid.lie_type, gid.q):
        if eff <= target:
            return ConditionReport("VI", True, subcase=subcase,
                                   bindings={"pi_effective": sorted(eff),
                                             "set": sorted(target)})
    return ConditionReport("VI", False, bindings={"pi_effective": sorted(eff)})


def reference_condition_VII(gid, pi):
    if gid.family != "Lie":
        return ConditionReport("VII", False)
    q, p, n = gid.q, gid.p, gid.n
    if 2 not in pi or 3 in pi or p in pi:
        return ConditionReport("VII", False)
    tau = pi_effective(gid, pi) - {2}
    eps = eps_mod4(q)
    bindings = {"eps": eps, "tau": sorted(tau)}
    if not tau <= prime_divisors(q - eps):
        return ConditionReport("VII", False, bindings=bindings)
    phi = frozenset(t for t in tau if is_fermat_prime(t))
    bindings["phi"] = sorted(phi)
    t_lie = gid.lie_type

    def report(subcase, holds):
        return ConditionReport("VII", holds, subcase=subcase if holds else None,
                               bindings=bindings)

    if t_lie in ("A", "2A"):
        return report(1, all(s > n for s in tau) and all(t > n + 1 for t in phi))
    if t_lie == "B":
        return report(2, all(s > 2 * n + 1 for s in tau))
    if t_lie == "C":
        return report(3, all(s > n for s in tau) and all(t > 2 * n + 1 for t in phi))
    if t_lie in ("D", "2D"):
        return report(4, all(s > 2 * n for s in tau))
    if t_lie in ("G2", "2G2"):
        return report(5, 7 not in tau)
    if t_lie == "F4":
        return report(6, not ({5, 7} & tau))
    if t_lie in ("E6", "2E6"):
        return report(7, not ({5, 7} & tau))
    if t_lie == "E7":
        return report(8, not ({5, 7, 11} & tau))
    if t_lie == "E8":
        return report(9, not ({5, 7, 11, 13} & tau))
    if t_lie == "3D4":
        return report(10, 7 not in tau)
    return ConditionReport("VII", False, bindings=bindings)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
REFERENCE_PAIRS = ((condition_III, reference_condition_III),
                   (condition_IV, reference_condition_IV),
                   (condition_V, reference_condition_V),
                   (condition_VI, reference_condition_VI),
                   (condition_VII, reference_condition_VII))


def assert_matches_reference(gid, pi):
    """Compare every pair and return the conditions that hold."""
    held = set()
    for cond, ref in REFERENCE_PAIRS:
        got, want = cond(gid, pi), ref(gid, pi)
        assert got == want, (gid, sorted(pi))
        if got.holds:
            held.add(got.condition)
    return held


def random_pis(rng, gid, pools):
    """pi drawn from small primes, the characteristic, and the primes of
    q^k - 1 for k <= 6 (while q^k < 10^12), q - eps and the given prime
    sets, so that III-VII fire."""
    q = gid.q
    powers = [q ** k for k in range(1, 7) if k == 1 or q ** k < 10 ** 12]
    pools = [*(prime_divisors(x - 1) for x in powers), *pools]
    if q % 2:
        pools.append(prime_divisors(q - eps_mod4(q)))
    for pool in pools:
        pool = sorted(pool)
        for extra in ({gid.p}, {2}, set(), {rng.choice(SMALL_PRIMES)}):
            yield frozenset(rng.sample(pool, rng.randint(0, len(pool)))) | extra
    for _ in range(4):
        yield frozenset(rng.sample(SMALL_PRIMES, rng.randint(1, 4)))


def random_prime_power(rng, bound):
    while True:
        p = rng.randrange(2, 10 ** rng.randint(1, 5))
        if is_prime(p):
            f = rng.randint(1, max(1, int(round(9 / len(str(p))))))
            if p ** f < bound:
                return p ** f


def test_divisibility_conditions_match_the_factoring_reference_on_lie_ids():
    rng = random.Random(10)
    types = [t for t in LIE_TYPES if t not in SUZUKI_REE]
    checked, fired = 0, set()
    while checked < 1000:
        t = rng.choice(types)
        n = rng.randint(2, 8) if t in RANKED_TYPES else None
        try:
            gid = lie(t, random_prime_power(rng, 10 ** 9), n=n)
        except ValueError:
            continue
        for pi in random_pis(rng, gid, ()):
            fired |= assert_matches_reference(gid, pi)
        checked += 1
    assert fired == {"III", "IV", "V", "VII"}


def test_condition_VI_matches_the_factoring_reference_on_every_small_suzuki_ree():
    rng = random.Random(11)
    ids = [lie(t, 2 ** f) for t in ("2B2", "2F4") for f in range(3, 28, 2)]
    ids += [lie("2G2", 3 ** f) for f in range(3, 20, 2)]
    fired = 0
    for gid in ids:
        for pi in random_pis(rng, gid, reference_suzuki_ree_sets(gid.lie_type, gid.q)):
            assert_matches_reference(gid, pi)
            fired += condition_VI(gid, pi).holds
    assert fired > len(ids)
