"""Brute-force oracle: realizations, subgroup lattice, Hall reports,
structure tests, quotients and the constructive table rows."""

import itertools
import math

import numpy as np
import pytest

from sylowpi.arith import prime_divisors
from sylowpi.catalog import facts, parse_group
from sylowpi.cli import CORPUS_SIMPLE
from sylowpi.permbrute import (
    ORDER_BOUND,
    BruteForceBoundError,
    ElementListError,
    PermGroup,
    _sym,
    check_final_corollary,
    direct_product,
    identity_perm,
    is_dpi_brute,
    maximal_pi_subgroups,
    perm_order,
    pi_part,
    pinv,
    pmul,
    realize,
    reproduce_table1,
    split_hall,
    tuple_closure,
    verify_hall_inheritance,
)


def test_permutation_primitives():
    a = (1, 2, 0, 3)   # 3-cycle
    b = (0, 1, 3, 2)   # transposition
    assert pmul(a, pinv(a)) == identity_perm(4)
    assert perm_order(a) == 3 and perm_order(b) == 2
    assert len(tuple_closure([a, b], 4)) == 24  # a 3-cycle and a transposition
    # closure of a 3-cycle alone
    assert len(tuple_closure([a], 4)) == 3


def test_realize_orders_match_catalog():
    for spec in ("Alt:5", "Alt:6", "Alt:7", "Lie:A:2:4", "Lie:A:2:5",
                 "Lie:A:2:7", "Lie:A:2:8", "Lie:A:2:9", "Lie:A:2:11"):
        g = realize(spec)
        assert g.order == facts(parse_group(spec)).order, spec


def test_realize_psl27_degree_and_transitivity():
    g = realize("Lie:A:2:7")
    assert g.degree == 8 and g.order == 168
    # 2-transitivity of PSL(2,7) on the projective line: orbit of 0 is all
    points = {e[0] for e in g.elements}
    assert points == set(range(8))


def test_realize_products_and_cyclic():
    g = realize("Alt:5,Cyclic:7")
    assert g.order == 420 and g.degree == 12
    c = realize("Cyclic:31")
    assert c.order == 31
    with pytest.raises(BruteForceBoundError):
        realize("Cyclic:33")
    with pytest.raises(BruteForceBoundError):
        realize("Alt:9")
    # Alt(8) and Sym(8) exceed ORDER_BOUND, so they are outside the range
    for spec in ("Alt:8", "Sym:8"):
        with pytest.raises(BruteForceBoundError, match="not a built-in realization"):
            realize(spec)
    with pytest.raises(BruteForceBoundError):
        realize("Spor:M11")


def test_realize_is_cached():
    assert realize("Alt:5") is realize("Alt:5")


def test_subgroup_class_counts():
    assert len(realize("Cyclic:7").subgroup_classes()) == 2
    assert len(realize("Alt:5").subgroup_classes()) == 9
    assert len(_sym(5).subgroup_classes()) == 19
    assert len(realize("Lie:A:2:7").subgroup_classes()) == 15


def test_alt5_class_orders():
    orders = sorted(c.order for c in realize("Alt:5").subgroup_classes())
    assert orders == [1, 2, 3, 4, 5, 6, 10, 12, 60]


def test_lagrange_and_conjugacy_audit():
    for spec in ("Alt:5", "Lie:A:2:7"):
        g = realize(spec)
        classes = g.subgroup_classes()
        seen = set()
        for c in classes:
            assert g.order % c.order == 0
            assert c.class_size == len(c.all_sets)
            for s in c.all_sets:
                assert s not in seen  # distinct classes never share a set
                seen.add(s)


def test_hall_report_alt5():
    g = realize("Alt:5")
    r = maximal_pi_subgroups(g, {2, 3})
    assert r.hall_order == 12
    assert r.epi and not r.dpi
    assert sorted(c.order for c in r.maximal_classes) == [6, 12]  # S3 and A4
    r = maximal_pi_subgroups(g, {2, 5})
    assert r.hall_order == 20 and not r.epi and not r.dpi
    r = maximal_pi_subgroups(g, {5})
    assert r.dpi and r.epi  # Sylow


def test_dpi_implies_epi_on_sweeps():
    import itertools
    for spec in ("Alt:5", "Alt:6", "Lie:A:2:8"):
        g = realize(spec)
        spectrum = sorted(prime_divisors(g.order))
        for k in range(len(spectrum) + 1):
            for combo in itertools.combinations(spectrum, k):
                r = maximal_pi_subgroups(g, frozenset(combo), with_structure=False)
                if r.dpi:
                    assert r.epi, (spec, combo)


def test_is_dpi_brute_examples():
    assert not is_dpi_brute(realize("Alt:6"), {2, 3})
    assert is_dpi_brute(realize("Cyclic:7,Cyclic:3"), {3, 7})
    assert is_dpi_brute(realize("Lie:A:2:11"), {5, 11})
    assert not is_dpi_brute(realize("Lie:A:2:11"), {2, 3, 5})


def test_structure_tests():
    g = realize("Alt:5")
    whole = frozenset(range(g.order))
    assert not g.is_solvable_set(whole)
    assert not g.is_nilpotent_set(whole)
    a4 = next(c.rep for c in g.subgroup_classes() if c.order == 12)
    assert g.is_solvable_set(a4)
    assert not g.is_nilpotent_set(a4)
    v4 = next(c.rep for c in g.subgroup_classes() if c.order == 4)
    assert g.is_nilpotent_set(v4)
    syl2 = g.sylow_in(whole, 2)
    assert len(syl2) == 4
    syl2_in_a4 = g.sylow_in(a4, 2)
    assert len(syl2_in_a4) == 4 and syl2_in_a4 <= a4


def test_derived_series_of_s4_inside_s5():
    s5 = _sym(5)
    s4 = next(c.rep for c in s5.subgroup_classes() if c.order == 24)
    der = s5.derived_subgroup(s4)
    assert len(der) == 12           # A4
    assert len(s5.derived_subgroup(der)) == 4  # V4
    assert s5.is_solvable_set(s4)


def test_quotient_by_normal_subgroup():
    g = realize("Alt:5,Cyclic:7")
    a = frozenset(i for i, e in enumerate(g.elements) if e[:5] == (0, 1, 2, 3, 4))
    q, coset_of = g.quotient(a)
    assert q.order == 60
    assert len(set(coset_of.tolist())) == 60
    # a non-normal subgroup is rejected
    some_c2 = next(c.rep for c in g.subgroup_classes() if c.order == 2)
    with pytest.raises(ValueError):
        g.quotient(some_c2)


def test_verify_hall_inheritance():
    g = realize("Alt:5,Cyclic:7")
    a = frozenset(i for i, e in enumerate(g.elements) if e[:5] == (0, 1, 2, 3, 4))
    assert verify_hall_inheritance(g, a, {2, 3, 7})
    assert verify_hall_inheritance(g, a, {5, 7})
    # degenerate cases: A = G and A = 1
    whole = frozenset(range(g.order))
    trivial = frozenset({g.identity})
    assert verify_hall_inheritance(g, whole, {5, 7})
    assert verify_hall_inheritance(g, trivial, {5, 7})
    with pytest.raises(ValueError):
        verify_hall_inheritance(g, a, {2, 5})  # no {2,5}-Hall in Alt(5) x C7


def test_split_hall():
    g = realize("Cyclic:3,Cyclic:5")
    whole = frozenset(range(g.order))
    parts = split_hall(g, whole, {3}, {5})
    assert parts is not None
    s, t = parts
    assert len(s) == 3 and len(t) == 5
    # F21-style non-split Hall: the {3,7}-Hall of PSL(2,7) is Frobenius
    h = realize("Lie:A:2:7")
    r = maximal_pi_subgroups(h, {3, 7}, with_structure=False)
    hall = next(c.rep for c in r.maximal_classes if c.order == 21)
    assert split_hall(h, hall, {3}, {7}) is None


def test_check_final_corollary():
    # no pi-Hall subgroup at all -> not applicable
    assert check_final_corollary(realize("Alt:5"), {2, 5}, {2}, {5}) is None
    # Frobenius Hall subgroup does not split -> not applicable
    assert check_final_corollary(realize("Lie:A:2:7"), {3, 7}, {3}, {7}) is None
    # abelian direct product: applicable and true
    g = realize("Cyclic:3,Cyclic:5")
    assert check_final_corollary(g, {3, 5}, {3}, {5}) is True
    with pytest.raises(ValueError):
        check_final_corollary(g, {3, 5}, {3, 5}, {5})


def test_check_final_corollary_is_symmetric():
    for spec in ("Alt:5,Cyclic:7", "Lie:A:2:7,Cyclic:5", "Cyclic:3,Cyclic:5"):
        g = realize(spec)
        spectrum = sorted(prime_divisors(g.order))
        for k in range(2, len(spectrum) + 1):
            for pi in map(frozenset, itertools.combinations(spectrum, k)):
                for j in range(1, k):
                    for sigma in map(frozenset, itertools.combinations(sorted(pi), j)):
                        tau = pi - sigma
                        assert (check_final_corollary(g, pi, sigma, tau)
                                == check_final_corollary(g, pi, tau, sigma)), (spec, pi, sigma)


def test_reproduce_table1():
    assert reproduce_table1(7)
    assert reproduce_table1(8)
    with pytest.raises(ValueError):
        reproduce_table1(6)


def test_sym6_negative_control():
    s6 = _sym(6)
    assert all(c.order != 144 for c in s6.subgroup_classes())


def test_direct_product_structure():
    g = direct_product(realize("Cyclic:2"), realize("Cyclic:3"))
    assert g.order == 6 and g.degree == 5
    assert g.is_nilpotent_set(frozenset(range(6)))


@pytest.mark.parametrize("spec", CORPUS_SIMPLE + ("Alt:5,Cyclic:7",))
def test_table_matches_definition(spec):
    g = realize(spec)
    t = g.require_table()
    e = g.elements
    assert t.dtype == np.int16 and g.inv.dtype == np.int16
    for i in range(g.order):
        assert t[i].tolist() == [g.index[pmul(e[i], e[j])] for j in range(g.order)]
        assert t[i, g.inv[i]] == g.identity


def test_table_reaches_sym7():
    g = realize("Sym:7")
    t = g.require_table(bound=ORDER_BOUND)
    ident = np.arange(g.order)
    assert g.order == 5040
    for i in range(0, g.order, 256):  # chunked: no second n^2 array
        assert (np.sort(t[i:i + 256], axis=1) == ident).all()


def test_element_list_errors():
    ident, s, u = (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2)
    # s * u = (1, 0, 3, 2) is missing
    g = PermGroup(4, [s], elements={ident, s, u})
    with pytest.raises(ElementListError, match="not closed under"):
        g.require_table()
    # the Klein four-group is closed, but (0 1) alone reaches only half of it
    g = PermGroup(4, [s], elements={ident, s, u, pmul(s, u)})
    with pytest.raises(ElementListError, match="reach only 2 of the 4"):
        g.require_table()
    # a generator outside the list
    g = PermGroup(4, [s, u], elements={ident, s})
    with pytest.raises(ElementListError, match="not closed under"):
        g.require_table()


@pytest.mark.parametrize("k, l", [("Alt:5", "Cyclic:7"), ("Cyclic:3", "Cyclic:5"),
                                  ("Lie:A:2:4", "Cyclic:2")])
def test_product_element_lists(k, l):
    gk, gl = realize(k), realize(l)
    d1, d2 = gk.degree, gl.degree
    gens = [a + tuple(range(d1, d1 + d2)) for a in gk.generators]
    gens += [tuple(range(d1)) + tuple(x + d1 for x in b) for b in gl.generators]
    assert realize(f"{k},{l}").elements == sorted(tuple_closure(gens, d1 + d2))


def test_pi_part():
    assert pi_part(720, {2, 3}) == 144
    assert pi_part(720, {7}) == 1
    assert pi_part(math.factorial(8), {2, 3}) == 1152


def test_order_bound_enforced():
    with pytest.raises(BruteForceBoundError):
        PermGroup(11, [tuple(range(1, 11)) + (0,), (1, 0) + tuple(range(2, 11))])


def test_lattice_bound_explicit():
    g = realize("Lie:A:2:9")  # order 360, fine at the default bound
    fresh = PermGroup(g.degree, g.generators, elements=set(g.elements))
    with pytest.raises(BruteForceBoundError):
        fresh.require_table(bound=100)
