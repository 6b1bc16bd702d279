"""Brute-force oracle: realizations, subgroup lattice, Hall reports,
structure tests, quotients and the constructive table rows."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from sylowpi.arith import prime_divisors
from sylowpi.catalog import facts, parse_group
from sylowpi.cli import CORPUS_SIMPLE
from sylowpi.permbrute import (
    ORDER_BOUND,
    PSL2_FIELDS,
    BruteForceBoundError,
    ElementListError,
    PermGroup,
    _GF,
    _psl2,
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


def _tuples(g):
    """The elements of g as permutation tuples in index order, and the index
    of each tuple: the reference view of g.perms."""
    elements = [tuple(row) for row in g.perms.tolist()]
    return elements, {e: i for i, e in enumerate(elements)}


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
    points = {e[0] for e in _tuples(g)[0]}
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


@pytest.mark.parametrize("spec, classes, subgroups", [
    ("Alt:5", 9, 59), ("Sym:5", 19, 156), ("Lie:A:2:7", 15, 179), ("Alt:6", 22, 501),
    ("Lie:A:2:8", 12, 386), ("Lie:A:2:11", 16, 620), ("Sym:6", 56, 1455),
    ("Alt:7", 40, 3786), ("Lie:A:2:9,Cyclic:5", 46, 1146)])
def test_subgroup_totals(spec, classes, subgroups):
    g = realize(spec)
    g.require_table(bound=ORDER_BOUND)
    lattice = g.subgroup_classes()
    assert len(lattice) == classes
    assert sum(c.class_size for c in lattice) == subgroups


@pytest.mark.parametrize("q", (4, 5, 8, 9, 11, 16, 25, 27))
def test_gf_is_a_field(q):
    F = _GF(q)
    nonzero = range(1, q)
    assert all(F.mul[a][b] for a in nonzero for b in nonzero)
    assert all(F.mul[a][F.add[b][c]] == F.add[F.mul[a][b]][F.mul[a][c]]
               for a in range(q) for b in range(q) for c in range(q))
    assert all(F.mul[a][F.inv[a]] == 1 and F.add[a][F.neg[a]] == 0 for a in nonzero)


@pytest.mark.parametrize("q", PSL2_FIELDS)
def test_psl2_is_every_determinant_one_mobius_map(q):
    F = _GF(q)
    inf = q

    def mobius(a, b, c, d):  # x -> (a x + b) / (c x + d), infinity last
        img = []
        for x in range(q):
            num = F.add[F.mul[a][x]][b]
            den = F.add[F.mul[c][x]][d]
            img.append(F.mul[num][F.inv[den]] if den else inf)
        img.append(F.mul[a][F.inv[c]] if c else inf)
        return tuple(img)

    maps = {mobius(a, b, c, d)
            for a in range(q) for b in range(q) for c in range(q) for d in range(q)
            if F.add[F.mul[a][d]][F.neg[F.mul[b][c]]] == 1}
    assert _tuples(_psl2(q))[0] == sorted(maps)


def test_gf_takes_the_first_irreducible_polynomial():
    # x is element p; x^2 + x + 1, x^3 + x + 1 and x^2 + 1 are the first
    # irreducible moduli for q = 4, 8, 9 in the digit order
    assert _GF(4).mul[2][2] == 3   # x^2 = x + 1
    assert _GF(8).mul[2][4] == 3   # x^3 = x + 1
    assert _GF(9).mul[3][3] == 2   # x^2 = -1


@pytest.mark.parametrize("spec", CORPUS_SIMPLE + ("Alt:5,Cyclic:7",))
def test_closure_matches_tuple_closure(spec):
    g = realize(spec)
    rng = random.Random(spec)
    assert g.closure_indices(()) == g.closure_indices((g.identity,)) == {g.identity}
    for trial in range(12):
        gens = [rng.randrange(g.order) for _ in range(rng.randint(1, 3))]
        if trial % 3 == 1:
            gens.append(gens[0])
        elif trial % 3 == 2:
            gens.insert(0, g.identity)
        elements, index = _tuples(g)
        expected = {index[e] for e in tuple_closure([elements[i] for i in gens], g.degree)}
        assert g.closure_indices(gens) == expected, (spec, gens)


@pytest.mark.parametrize("spec", ("Alt:5", "Sym:5", "Lie:A:2:7", "Alt:5,Cyclic:2"))
def test_lattice_is_closed_under_joins(spec):
    g = realize(spec)
    lattice = g.subgroup_classes()
    owners: dict[frozenset, list[int]] = {}
    for i, c in enumerate(lattice):
        for s in c.all_sets:
            owners.setdefault(s, []).append(i)
    for c in lattice:
        rep = tuple(sorted(c.rep))
        for x in range(g.order):
            join = g.closure_indices(rep + (x,))
            assert len(owners.get(join, ())) == 1, (spec, c.order, x)


@pytest.mark.parametrize("spec", CORPUS_SIMPLE + ("Sym:5", "Alt:5,Cyclic:7"))
def test_class_gens_generate_rep(spec):
    g = realize(spec)
    for c in g.subgroup_classes():
        assert g.closure_indices(c.gens) == c.rep, (spec, c.order)


def test_gens_of_generates_each_class():
    g = realize("Lie:A:2:7")
    for c in g.subgroup_classes():
        gens = g.gens_of(c.rep)
        assert g.closure_indices(gens) == c.rep
        assert len(set(gens)) == len(gens) and g.identity not in gens


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


def test_sylow_in_keeps_no_per_element_arrays():
    a7 = realize("Alt:7")
    g = PermGroup(a7.degree, a7.generators, elements=_tuples(a7)[0])
    table = g.require_table(bound=ORDER_BOUND)
    g.element_orders()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        syl2 = g.sylow_in(range(g.order), 2)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(syl2) == 8
    assert retained < table.nbytes / 10


STRUCTURE_GROUPS = CORPUS_SIMPLE + ("Sym:5", "Alt:5,Cyclic:7")


@pytest.mark.parametrize("spec", STRUCTURE_GROUPS)
def test_is_normal_set_matches_class_size(spec):
    g = realize(spec)
    for c in g.subgroup_classes():
        assert g.is_normal_set(c.rep) == (c.class_size == 1), (spec, c.order)


@pytest.mark.parametrize("spec", STRUCTURE_GROUPS)
def test_is_nilpotent_set_matches_definition(spec):
    # nilpotent iff every Sylow subgroup is normal, with conjugation
    # computed on the permutations themselves
    g = realize(spec)
    elements, index = _tuples(g)
    for c in g.subgroup_classes():
        kgens = [elements[k] for k in g.gens_of(c.rep)]
        normal_sylows = True
        for p in prime_divisors(c.order):
            P = g.sylow_in(c.rep, p)
            conjugates = {frozenset(index[pmul(pmul(pinv(k), elements[x]), k)] for x in P)
                          for k in kgens}
            normal_sylows = normal_sylows and conjugates <= {P}
        assert g.is_nilpotent_set(c.rep) == normal_sylows, (spec, c.order)


def test_derived_series_of_s4_inside_s5():
    s5 = _sym(5)
    s4 = next(c.rep for c in s5.subgroup_classes() if c.order == 24)
    der = s5.derived_subgroup(s4)
    assert len(der) == 12           # A4
    assert len(s5.derived_subgroup(der)) == 4  # V4
    assert s5.is_solvable_set(s4)


def test_quotient_by_normal_subgroup():
    g = realize("Alt:5,Cyclic:7")
    a = frozenset(i for i, e in enumerate(_tuples(g)[0]) if e[:5] == (0, 1, 2, 3, 4))
    q, coset_of = g.quotient(a)
    assert q.order == 60
    assert len(set(coset_of.tolist())) == 60
    # a non-normal subgroup is rejected
    some_c2 = next(c.rep for c in g.subgroup_classes() if c.order == 2)
    with pytest.raises(ValueError):
        g.quotient(some_c2)


def test_verify_hall_inheritance():
    g = realize("Alt:5,Cyclic:7")
    a = frozenset(i for i, e in enumerate(_tuples(g)[0]) if e[:5] == (0, 1, 2, 3, 4))
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


# Alt(5) x C7 has split Hall subgroups (Alt(5) x C7 itself); no Hall
# subgroup of PSL(2,7) x C3 splits
@pytest.mark.parametrize("spec, some_split", [("Alt:5,Cyclic:7", True),
                                              ("Lie:A:2:7,Cyclic:3", False)])
def test_split_hall_parts_are_the_sigma_and_tau_elements(spec, some_split):
    g = realize(spec)
    elements, index = _tuples(g)
    spectrum = sorted(prime_divisors(g.order))
    splits = []
    for k in range(2, len(spectrum) + 1):
        for pi in map(frozenset, itertools.combinations(spectrum, k)):
            report = maximal_pi_subgroups(g, pi, with_structure=False)
            for c in report.maximal_classes:
                if c.order != report.hall_order:
                    continue
                for j in range(1, k):
                    for sigma in map(frozenset, itertools.combinations(sorted(pi), j)):
                        tau = pi - sigma
                        # the sigma- and tau-elements of H, from the permutations
                        s, t = ({x for x in c.rep
                                 if prime_divisors(perm_order(elements[x])) <= primes}
                                for primes in (sigma, tau))
                        subgroups = all(index[pmul(elements[a], elements[b])] in part
                                        for part in (s, t) for a in part for b in part)
                        sizes = len(s) == pi_part(c.order, sigma) and len(t) == pi_part(c.order, tau)
                        expected = (s, t) if subgroups and sizes else None
                        assert split_hall(g, c.rep, sigma, tau) == expected, (spec, sigma, tau)
                        splits.append(expected is not None)
    assert splits and any(splits) == some_split


def test_split_hall_refuses_unclosed_parts():
    g = realize("Alt:5")
    klein = next(c.rep for c in g.subgroup_classes() if c.order == 4)
    assert split_hall(g, klein, {2}, {3}) == (klein, frozenset({g.identity}))
    # each involution lies in one Klein four-group, so {1, a, b, c} is not
    # closed although its 2-part and 3-part have the right sizes
    a = next(x for x in klein if x != g.identity)
    elements = _tuples(g)[0]
    b, c = [i for i in range(g.order) if perm_order(elements[i]) == 2 and i not in klein][:2]
    assert split_hall(g, {g.identity, a, b, c}, {2}, {3}) is None


def _hall_reports(g):
    """HallReport of every pi within pi(G), as cli.sweep keeps them."""
    spectrum = sorted(prime_divisors(g.order))
    return {frozenset(c): maximal_pi_subgroups(g, c, with_structure=False)
            for k in range(len(spectrum) + 1) for c in itertools.combinations(spectrum, k)}


def test_check_final_corollary():
    # no pi-Hall subgroup at all -> not applicable
    g = realize("Alt:5")
    assert check_final_corollary(g, _hall_reports(g), {2}, {5}) is None
    # Frobenius Hall subgroup does not split -> not applicable
    g = realize("Lie:A:2:7")
    assert check_final_corollary(g, _hall_reports(g), {3}, {7}) is None
    # abelian direct product: applicable and true
    g = realize("Cyclic:3,Cyclic:5")
    reports = _hall_reports(g)
    assert check_final_corollary(g, reports, {3}, {5}) is True
    with pytest.raises(ValueError):
        check_final_corollary(g, reports, {3, 5}, {5})


def test_check_final_corollary_is_symmetric():
    for spec in ("Alt:5,Cyclic:7", "Lie:A:2:7,Cyclic:5", "Cyclic:3,Cyclic:5"):
        g = realize(spec)
        reports = _hall_reports(g)
        spectrum = sorted(prime_divisors(g.order))
        for k in range(2, len(spectrum) + 1):
            for pi in map(frozenset, itertools.combinations(spectrum, k)):
                for j in range(1, k):
                    for sigma in map(frozenset, itertools.combinations(sorted(pi), j)):
                        tau = pi - sigma
                        assert (check_final_corollary(g, reports, sigma, tau)
                                == check_final_corollary(g, reports, tau, sigma)), (spec, pi, sigma)


def test_split_hall_needs_sigma_and_tau_to_cover_the_hall_order():
    # {2} u {3} misses the prime 5 of |H| = 30: the parts of orders 2 and 3
    # do not decompose H
    g = realize("Cyclic:2,Cyclic:3,Cyclic:5")
    assert split_hall(g, range(30), {2}, {3}) is None
    assert split_hall(g, range(30), {2}, {3, 5}) is not None


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
    e, index = _tuples(g)
    assert t.dtype == np.int16 and g.inv.dtype == np.int16
    for i in range(g.order):
        assert t[i].tolist() == [index[pmul(e[i], e[j])] for j in range(g.order)]
        assert t[i, g.inv[i]] == g.identity


def test_table_reaches_sym7():
    g = realize("Sym:7")
    t = g.require_table(bound=ORDER_BOUND)
    ident = np.arange(g.order)
    assert g.order == 5040
    for i in range(0, g.order, 256):  # chunked: no second n^2 array
        assert (np.sort(t[i:i + 256], axis=1) == ident).all()


def _regular_quotient():
    """Alt(5) x C7 acting on the cosets of its trivial subgroup: degree 420."""
    g = realize("Alt:5,Cyclic:7")
    return g.quotient(frozenset({g.identity}))[0]


def test_wide_rows():
    # rows wider than uint8 must be keyed in a byte order that sorts as the
    # rows do, or no lookup finds its row
    c300 = PermGroup(300, [tuple(range(1, 300)) + (0,)])
    for h, order in ((c300, 300), (_regular_quotient(), 420)):
        elements, index = _tuples(h)
        assert h.order == order and elements == sorted(elements)
        assert elements[h.identity] == identity_perm(h.degree)
        assert h.lookup(np.array(h.generators)).tolist() == [index[s] for s in h.generators]
        assert h.element_orders().tolist() == [perm_order(e) for e in elements]
    with pytest.raises(ElementListError):
        c300.lookup(np.array([(1, 0) + tuple(range(2, 300))]))


@pytest.mark.parametrize("spec", CORPUS_SIMPLE + ("Sym:5", "Alt:5,Cyclic:7", "quotient"))
def test_element_orders_match_perm_order(spec):
    g = _regular_quotient() if spec == "quotient" else realize(spec)
    assert g.element_orders().tolist() == [perm_order(e) for e in _tuples(g)[0]]


def test_group_without_generators():
    g = PermGroup(3, [])
    assert g.order == 1 and g.gen_indices() == ()
    assert g.require_table().tolist() == [[0]] and g.inv.tolist() == [0]
    assert [c.rep for c in g.subgroup_classes()] == [frozenset({0})]


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
    # a repeated permutation is counted, and the generators miss the copy
    g = PermGroup(4, [s], elements=[ident, s, s])
    with pytest.raises(ElementListError, match="reach only 2 of the 3"):
        g.require_table()


@pytest.mark.parametrize("k, l", [("Alt:5", "Cyclic:7"), ("Cyclic:3", "Cyclic:5"),
                                  ("Lie:A:2:4", "Cyclic:2")])
def test_product_element_lists(k, l):
    gk, gl = realize(k), realize(l)
    d1, d2 = gk.degree, gl.degree
    gens = [a + tuple(range(d1, d1 + d2)) for a in gk.generators]
    gens += [tuple(range(d1)) + tuple(x + d1 for x in b) for b in gl.generators]
    assert _tuples(realize(f"{k},{l}"))[0] == sorted(tuple_closure(gens, d1 + d2))


def test_pi_part():
    assert pi_part(720, {2, 3}) == 144
    assert pi_part(720, {7}) == 1
    assert pi_part(math.factorial(8), {2, 3}) == 1152


def test_order_bound_enforced():
    with pytest.raises(BruteForceBoundError):
        PermGroup(11, [tuple(range(1, 11)) + (0,), (1, 0) + tuple(range(2, 11))])


def test_lattice_bound_explicit():
    g = realize("Lie:A:2:9")  # order 360, fine at the default bound
    fresh = PermGroup(g.degree, g.generators, elements=set(_tuples(g)[0]))
    with pytest.raises(BruteForceBoundError):
        fresh.require_table(bound=100)
