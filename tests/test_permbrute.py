"""Brute-force oracle: realizations, subgroup lattice, Hall reports and
structure tests."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from sylowpi import cli, permbrute
from sylowpi.arith import is_prime, prime_divisors
from sylowpi.catalog import facts, parse_group
from sylowpi.cli import CORPUS_SIMPLE, _hall_report_dict, sweep
from sylowpi.permbrute import (
    DEFAULT_LATTICE_BOUND,
    ORDER_BOUND,
    BruteForceBoundError,
    ElementListError,
    PermGroup,
    _GF,
    _psl,
    _sym,
    check_final_corollary,
    direct_product,
    is_dpi_brute,
    maximal_pi_subgroups,
    pi_part,
    realize,
    split_hall,
)


# ---------------------------------------------------------------------------
# permutations as tuples: the reference the array engine is checked against

def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a followed by b."""
    return tuple(b[x] for x in a)


def pinv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_order(a: tuple[int, ...]) -> int:
    seen = [False] * len(a)
    out = 1
    for i in range(len(a)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        out = math.lcm(out, length)
    return out


def tuple_closure(gens, degree: int, bound: int = ORDER_BOUND) -> set[tuple[int, ...]]:
    """Subgroup generated by gens, as a set of permutation tuples."""
    ident = identity_perm(degree)
    gens = [tuple(g) for g in gens if tuple(g) != ident]
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                z = pmul(x, g)
                if z not in elems:
                    elems.add(z)
                    nxt.append(z)
        if len(elems) > bound:
            raise BruteForceBoundError(
                f"group order exceeds the bound {bound}; refusing to materialize")
        frontier = nxt
    return elems


def _tuples(g):
    """The elements of g as permutation tuples in index order, and the index
    of each tuple: the reference view of g.perms."""
    elements = [tuple(row) for row in g.perms.tolist()]
    return elements, {e: i for i, e in enumerate(elements)}


def _random_young_groups(seed: int, count: int, cap: int) -> dict[str, tuple]:
    """`count` permutation groups of degree 5 to 9, as (degree, generators),
    drawn once from `seed`: the points shuffled and cut into blocks whose
    factorials multiply to at most `cap`, and one to three random
    permutations of every block at once as generators, so each group lies in
    that Young subgroup and its order is at most cap.  A failure is a
    finding: the seed is not changed to draw groups that pass."""
    rng = random.Random(seed)
    out = {}
    for i in range(count):
        degree = rng.randint(5, 9)
        points, blocks, bound = rng.sample(range(degree), degree), [], 1
        while points:
            b = rng.choice([b for b in range(1, len(points) + 1)
                            if bound * math.factorial(b) <= cap])
            blocks.append(points[:b])
            points, bound = points[b:], bound * math.factorial(b)
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = list(range(degree))
            for block in blocks:
                for x, y in zip(block, rng.sample(block, len(block))):
                    g[x] = y
            gens.append(tuple(g))
        out[f"random{i}-degree{degree}"] = (degree, gens)
    return out


# groups built from generators rather than realized: seeded random ones, at
# most 720 elements each (within ORDER_BOUND; test_table_matches_definition
# checks n^2 products in Python), a one-generator group of order 20 whose
# table walk has 19 layers of one element, and the trivial group with no
# generators, whose table is [[0]]
BUILT = {**_random_young_groups(seed=0, count=8, cap=720),
         "one-generator": (9, [(1, 2, 3, 4, 0, 6, 7, 8, 5)]),
         "trivial": (3, [])}


def _group(spec):
    """The group that a test id names: a BUILT one, closed from its
    generators, or realize(spec)."""
    return PermGroup(*BUILT[spec]) if spec in BUILT else realize(spec)


def test_permutation_primitives():
    a = (1, 2, 0, 3)   # 3-cycle
    b = (0, 1, 3, 2)   # transposition
    assert pmul(a, pinv(a)) == identity_perm(4)
    assert perm_order(a) == 3 and perm_order(b) == 2
    assert len(tuple_closure([a, b], 4)) == 24  # a 3-cycle and a transposition
    # closure of a 3-cycle alone
    assert len(tuple_closure([a], 4)) == 3


def test_realize_orders_match_catalog():
    # PSL(n, q) for every n, q whose order is at most ORDER_BOUND
    psl = tuple(f"Lie:A:2:{q}" for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27))
    for spec in ("Alt:5", "Alt:6", "Alt:7", "Lie:A:3:2", "Lie:A:3:3") + psl:
        g = realize(spec)
        assert g.order == facts(parse_group(spec)).order, spec


@pytest.mark.parametrize("spec, order", [("Alt:8", 20160), ("Sym:8", 40320),
                                         ("Lie:A:2:29", 12180), ("Lie:A:3:4", 20160),
                                         ("Lie:A:4:2", 20160), ("Lie:A:3:5", 372000)])
def test_realize_refuses_by_order_before_building(spec, order, monkeypatch):
    def no_elements(*args, **kwargs):
        raise AssertionError(f"{spec}: elements built before the order check")

    monkeypatch.setattr(permbrute, "PermGroup", no_elements)
    with pytest.raises(BruteForceBoundError, match="not a built-in realization") as err:
        realize(spec)
    assert f"order {order} exceeds the bound {ORDER_BOUND}" in str(err.value)


def test_realize_refuses_a_huge_degree_without_its_order():
    # (10^6)! takes seconds; the degree alone refuses it
    with pytest.raises(BruteForceBoundError, match="order at least 999999000000"):
        realize("Alt:1000000")


def test_safety_branches_raise():
    with pytest.raises(ValueError, match="not a permutation of degree 3"):
        PermGroup(3, [(0, 0, 1)])
    # {e, (0 1), (0 1 2), (0 2 1)} is not a subgroup: no Sylow 2-subgroup grows
    g = realize("Sym:5")
    subset = g.lookup(np.array([(0, 1, 2, 3, 4), (1, 0, 2, 3, 4), (1, 2, 0, 3, 4),
                                (2, 0, 1, 3, 4)]))
    with pytest.raises(RuntimeError, match="Sylow ascent stalled"):
        g.sylow_in(set(subset.tolist()), 2)


def test_realize_checks_the_built_order(monkeypatch):
    monkeypatch.setattr(permbrute, "_alt", _sym)
    monkeypatch.setattr(permbrute, "_REALIZE_CACHE", {})
    with pytest.raises(RuntimeError, match="realization of Alt\\(5\\) has order 120, expected 60"):
        realize("Alt:5")


@pytest.mark.parametrize("spec", CORPUS_SIMPLE + ("Sym:5", "Alt:5,Cyclic:7", None))
def test_element_0_is_the_identity(spec):
    g = PermGroup(3, []) if spec is None else realize(spec)
    assert tuple(g.perms[0].tolist()) == identity_perm(g.degree), spec


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
    # a composite order is the grammar's refusal; a prime above 31 is a bound
    with pytest.raises(ValueError, match=r"^Cyclic\(33\): a Cyclic:p term needs a prime p") as exc:
        realize("Cyclic:33")
    assert not isinstance(exc.value, BruteForceBoundError)
    with pytest.raises(BruteForceBoundError, match=r"^Cyclic\(37\) needs a prime p <= 31"):
        realize("Cyclic:37")
    with pytest.raises(BruteForceBoundError):
        realize("Alt:9")
    with pytest.raises(BruteForceBoundError, match="not a built-in realization"):
        realize("Spor:M12")


def test_realize_is_cached():
    # each call returns the caller's own group over the cached factor's rows
    a, b = realize("Alt:5"), realize("Alt:5")
    assert a is not b and a.perms is b.perms


def test_cache_hit_reads_no_term(monkeypatch):
    # a term is read only on a cache miss: reading two terms costs more than
    # refusing a product of cached factors that passes ORDER_BOUND
    monkeypatch.setattr(permbrute, "_REALIZE_CACHE", {})
    for term in ("Alt:5", "Cyclic:7"):
        realize(term)

    def refuse(term):
        raise AssertionError(f"term {term!r} read")

    monkeypatch.setattr(permbrute, "read_term", refuse)
    assert realize("Alt:5,Cyclic:7").order == 420
    assert realize(" Cyclic:7 ").order == 7
    with pytest.raises(AssertionError, match="'Cyclic:3' read"):
        realize("Alt:5,Cyclic:3")


def test_products_are_assembled_afresh_from_cached_factors():
    a, b = realize("Alt:5,Cyclic:7"), realize("Alt:5,Cyclic:7")
    assert a is not b and np.array_equal(a.perms, b.perms)


def test_product_sweeps_cache_only_factors(monkeypatch):
    # the pairs of acceptance criterion 4, over a few small factors
    monkeypatch.setattr(permbrute, "_REALIZE_CACHE", {})
    parts = ["Alt:5", "Cyclic:2", "Cyclic:3", "Cyclic:7"]
    for i, a in enumerate(parts):
        for b in parts[i:]:
            try:
                sweep(f"{a},{b}")
            except BruteForceBoundError:  # Alt(5) x Alt(5)
                continue
    assert sorted(permbrute._REALIZE_CACHE) == sorted(parts)
    assert all(g._table is None for g in permbrute._REALIZE_CACHE.values())


def test_cached_factors_hold_no_table_lattice_or_orders(monkeypatch):
    # a product's table, inverses and element orders come from its factors,
    # which keep none of them; a group's inverses need no table
    assert cli.run(["crosscheck", "--group", "Alt:5,Cyclic:7"]) == cli.EXIT_TRUE
    assert cli.run(["brute", "--group", "Alt:5", "--pi", "2,3"]) == cli.EXIT_FALSE
    assert cli.run(["crosscheck", "--group", "Lie:A:2:7"]) == cli.EXIT_TRUE
    monkeypatch.setattr(cli, "decide_dpi_composite", _raise)
    with pytest.raises(RuntimeError):
        sweep("Lie:A:2:7")
    assert {"Alt:5", "Cyclic:7", "Lie:A:2:7"} <= set(permbrute._REALIZE_CACHE)
    for spec, g in permbrute._REALIZE_CACHE.items():
        assert g._table is None and g._classes is None and g._orders is None, spec
        assert "inv" not in vars(g), spec
    g = realize("Alt:5")
    assert g.inv.tolist() == g.lookup(np.argsort(g.perms, axis=1)).tolist()
    assert g._table is None and "inv" not in vars(permbrute._REALIZE_CACHE["Alt:5"])


def _raise(*args):
    raise RuntimeError("refused")


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


@pytest.mark.parametrize("q", (4, 5, 7, 8, 9, 11))  # the q^4 reference is too slow above
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
    assert _tuples(_psl(2, q))[0] == sorted(maps)


@pytest.mark.parametrize("q", (2, 3))
def test_psl3_is_every_determinant_one_matrix(q):
    # the points of PG(2, q), numbered as _psl's docstring says: a point is
    # its vector whose last nonzero coordinate is 1, those whose 1 comes later
    # first, each block in base-q order with coordinate 0 lowest
    points = [tuple(x // q ** j % q for j in range(k)) + (1,) + (0,) * (2 - k)
              for k in (2, 1, 0) for x in range(q ** k)]
    index = {v: i for i, v in enumerate(points)}

    def point(v):  # v scaled so that its last nonzero coordinate is 1
        c = pow([x for x in v if x][-1], -1, q)
        return index[tuple(x * c % q for x in v)]

    maps = set()
    for m in itertools.product(range(q), repeat=9):
        rows = (m[0:3], m[3:6], m[6:9])
        det = (m[0] * (m[4] * m[8] - m[5] * m[7]) - m[1] * (m[3] * m[8] - m[5] * m[6])
               + m[2] * (m[3] * m[7] - m[4] * m[6]))
        if det % q == 1:
            maps.add(tuple(point([sum(a * x for a, x in zip(r, v)) % q for r in rows])
                           for v in points))
    assert len(maps) == facts(parse_group(f"Lie:A:3:{q}")).order
    assert _tuples(_psl(3, q))[0] == sorted(maps)


def test_psl32_and_psl27_have_the_same_lattice_and_hall_reports():
    # PSL(3, 2) on 7 points and PSL(2, 7) on 8 are one group
    a, b = realize("Lie:A:3:2"), realize("Lie:A:2:7")
    assert (a.degree, b.degree) == (7, 8)

    def shapes(classes):
        return sorted((c.order, c.class_size) for c in classes)

    assert shapes(a.subgroup_classes()) == shapes(b.subgroup_classes())
    assert len(a.subgroup_classes()) == 15
    assert sum(c.class_size for c in a.subgroup_classes()) == 179
    for r in range(4):
        for pi in itertools.combinations((2, 3, 7), r):
            ra, rb = (maximal_pi_subgroups(g, pi, with_structure=False) for g in (a, b))
            assert ((ra.epi, ra.dpi, shapes(ra.maximal_classes))
                    == (rb.epi, rb.dpi, shapes(rb.maximal_classes))), pi


def test_gf_takes_the_first_irreducible_polynomial():
    # x is element p; x^2 + x + 1, x^3 + x + 1, x^2 + 1, x^4 + x + 1, x^2 + 2
    # and x^3 + 2x + 1 are the first irreducible moduli for q = 4, 8, 9, 16,
    # 25 and 27, every non-prime q that is realized, in the digit order
    assert _GF(4).mul[2][2] == 3   # x^2 = x + 1
    assert _GF(8).mul[2][4] == 3   # x^3 = x + 1
    assert _GF(9).mul[3][3] == 2   # x^2 = -1
    assert _GF(16).mul[2][8] == 3   # x^4 = x + 1
    assert _GF(25).mul[5][5] == 3   # x^2 = 3
    assert _GF(27).mul[3][9] == 5   # x^3 = x + 2


def test_builtin_elements_are_pinned():
    # one sha256 over the element arrays of 30 built-in realizations, among
    # them PSL(2, q) for every q <= 27 that is realized
    specs = ([f"Alt:{n}" for n in (5, 6, 7)] + [f"Sym:{n}" for n in (5, 6, 7)]
             + [f"Lie:A:2:{q}" for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)]
             + [f"Cyclic:{p}" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)])
    h = hashlib.sha256()
    for spec in specs:
        h.update(realize(spec).perms.tobytes())
    assert h.hexdigest()[:16] == "66b6eee5794d02af"


@pytest.mark.parametrize("spec", CORPUS_SIMPLE + ("Alt:5,Cyclic:7",) + tuple(BUILT))
def test_closure_matches_tuple_closure(spec):
    g = _group(spec)
    rng = random.Random(spec)
    # the rows are the closure of the generators, in lexicographic order
    assert _tuples(g)[0] == sorted(tuple_closure(g.generators, g.degree))
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
        for s in map(frozenset, c.conjugates.tolist()):
            owners.setdefault(s, []).append(i)
    for c in lattice:
        rep = tuple(sorted(c.rep))
        for x in range(g.order):
            join = g.closure_indices(rep + (x,))
            assert len(owners.get(join, ())) == 1, (spec, c.order, x)


@pytest.mark.parametrize("spec", CORPUS_SIMPLE + ("Sym:5", "Alt:5,Cyclic:7"))
def test_class_gens_generate_rep(spec):
    """gens_of gives each class a generating set of its representative."""
    g = realize(spec)
    for c in g.subgroup_classes():
        gens = g.gens_of(c.rep)
        assert g.closure_indices(gens) == c.rep, (spec, c.order)
        assert len(set(gens)) == len(gens) and g.identity not in gens


def test_gens_of_generates_each_class():
    g = realize("Lie:A:2:7")
    for c in g.subgroup_classes():
        gens = g.gens_of(c.rep)
        assert g.closure_indices(gens) == c.rep
        assert len(set(gens)) == len(gens) and g.identity not in gens


def _gens_of_by_sorted_loop(g, subset):
    """gens_of as a Python loop over the subset sorted by decreasing order."""
    orders = g.element_orders()
    member = np.zeros(g.order, dtype=bool)
    member[g.identity] = True
    harr, gens = np.array([g.identity]), []
    for x in sorted(subset, key=lambda i: -int(orders[i])):
        if not member[x]:
            gens.append(x)
            harr = g._close(harr, gens)
            member[harr] = True
    return tuple(gens)


@pytest.mark.parametrize("spec", ("Alt:5", "Alt:6", "Lie:A:2:7", "Lie:A:2:8", "Alt:5,Cyclic:7", "Sym:5"))
def test_gens_of_matches_the_sorted_loop(spec):
    # the same generators, in the same order, whatever container holds the
    # subset: iteration order decides ties between elements of one order
    g = realize(spec)
    subsets = [c.rep for c in g.subgroup_classes()]
    subsets += [frozenset(g.closure_indices(row.tolist()))
                for row in np.random.default_rng(len(spec)).integers(g.order, size=(12, 2))]
    for s in subsets:
        for container in (frozenset(s), set(s), sorted(s), sorted(s, reverse=True)):
            assert g.gens_of(container) == _gens_of_by_sorted_loop(g, container), (spec, len(s))
    everything = range(g.order)
    assert g.gens_of(everything) == _gens_of_by_sorted_loop(g, everything)
    assert g.gens_of(()) == () == g.gens_of([g.identity])


def test_lattice_is_pinned():
    # one sha256 over every class (order, class size, sorted rep, sorted
    # conjugate sets) and every maximal_pi_subgroups report with |pi| >= 2
    h = hashlib.sha256()
    for spec in CORPUS_SIMPLE + ("Sym:5", "Alt:5,Cyclic:7", _elementary_abelian(5)):
        g = realize(spec)
        for c in g.subgroup_classes():
            conjugates = sorted(row.tolist() for row in c.conjugates)
            h.update(repr((c.order, c.class_size, sorted(c.rep), conjugates)).encode())
        spectrum = sorted(prime_divisors(g.order))
        for k in range(2, len(spectrum) + 1):
            for pi in map(frozenset, itertools.combinations(spectrum, k)):
                r = maximal_pi_subgroups(g, pi)
                h.update(repr((r.epi, r.dpi, [sorted(c.rep) for c in r.maximal_classes],
                               r.structural)).encode())
    assert h.hexdigest()[:16] == "3a0b0283dc9c8833"


@pytest.mark.parametrize("spec", ("Sym:5", "Lie:A:2:7", "Alt:5,Cyclic:7", "Cyclic:2,Cyclic:2,Cyclic:2,Cyclic:2,Cyclic:2"))
def test_batched_joins_match_closures(spec):
    # the joins of every class representative, grown as a block of one each
    # and together as one block, against <H, x> closed directly;
    # <H, hx> = <H, x>, so one x per right coset Hx;
    # and each H's join orders against the divisibility-least lengths of
    # those closures, also when `known` holds some of them, and against the
    # lattice's join_orders
    def divisibility_least(rows):
        lengths = {len(row) // 2 for row in rows}
        return tuple(sorted(a for a in lengths if not any(a % b == 0 for b in lengths - {a})))

    g = realize(spec)
    t = g.require_table()
    cyclic = g._cyclic_subgroups()
    classes = g.subgroup_classes()
    reps = [c.conjugates[0] for c in classes if c.order < g.order]
    least = np.array(list(map(g._coset_least, reps)))
    union, each = set(), []
    for i, rep in enumerate(reps):
        h = rep.astype(np.intp)
        gens = g.gens_of(h.tolist())
        xs = np.flatnonzero(t[h].min(axis=0) == np.arange(g.order))
        expected = {g._close(h, gens + (x,)).astype(np.int16).tobytes()
                    for x in np.setdiff1d(xs, h).tolist()}
        joins, orders = g._joins([rep], least[i:i + 1], cyclic, set())
        assert set(joins) == expected and len(joins) == len(expected), (spec, len(h))
        assert orders == [divisibility_least(expected)], (spec, len(h))
        union |= expected
        each.append(divisibility_least(expected))
    joins, orders = g._joins(reps, least, cyclic, set())
    assert set(joins) == union and orders == each
    known = set(sorted(union)[::2])
    joins, orders = g._joins(reps, least, cyclic, known)
    assert set(joins) == union - known and orders == each
    # {e}'s joins are the cyclic subgroups, the least of them of prime order
    assert each[0] == tuple(sorted(prime_divisors(g.order)))
    assert [c.join_orders for c in classes] == each + [()]


def test_lattice_is_the_same_in_small_blocks(monkeypatch):
    # the lattice does not depend on the order in which its classes are
    # found: the block size decides which subgroups are registered first,
    # and with _FRONTIER at 64 the lattice registers one subgroup per block,
    # where by default it registers up to 2^16 // n.  Blocks of 64
    # (candidate, right coset) pairs also split every search, 64 table
    # entries fill the table, and _coset_least gathers the rows of each
    # subgroup one row (two for C2^5) at a time
    def lattices():
        c2 = permbrute._cyclic(2)
        groups = (_sym(5), _sym(6), _psl(2, 11),
                  direct_product(permbrute._alt(5), permbrute._cyclic(7)),
                  direct_product(direct_product(c2, c2), direct_product(c2, direct_product(c2, c2))))
        out = []
        for g in groups:  # built afresh, so that no table or lattice is shared
            classes = g.subgroup_classes()
            reps = [c.conjugates[0] for c in classes if c.order < g.order]
            least = np.array(list(map(g._coset_least, reps)))
            out.append(([c.conjugates for c in classes],
                         g._joins(reps, least, g._cyclic_subgroups(), set())))
        return out

    default = lattices()
    monkeypatch.setattr(permbrute, "_FRONTIER", 1 << 6)
    for (classes, joins), (default_classes, default_joins) in zip(lattices(), default):
        assert joins == default_joins
        assert len(classes) == len(default_classes)
        for a, b in zip(classes, default_classes):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", ("Cyclic:2,Cyclic:2,Cyclic:2,Cyclic:2,Cyclic:2", "Alt:5,Cyclic:7"))
@pytest.mark.parametrize("frontier", (None, 1 << 6))
def test_coset_least_matches_definition(monkeypatch, spec, frontier):
    # every class representative: C2^5 has many subgroups of one order; 64
    # table entries gather one row (two for C2^5) at a time
    g = realize(spec)
    t = g.require_table()
    hs = [c.conjugates[0] for c in g.subgroup_classes()]
    if frontier is not None:
        monkeypatch.setattr(permbrute, "_FRONTIER", frontier)
    for h in hs:
        least = g._coset_least(h)
        assert least.shape == (g.order,) and (least == t[h].min(axis=0)).all()


def test_lattice_of_a_large_cyclic_group_holds_no_table_of_powers():
    # C31 x C29 = C899 has 4 subgroups; a table of every element's powers,
    # n x exp(G) int16 entries, would take 1.5 MB
    g = realize("Cyclic:31,Cyclic:29")
    g.require_table(bound=ORDER_BOUND)
    tracemalloc.start()
    try:
        classes = g.subgroup_classes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.order for c in classes] == [1, 29, 31, 899]
    assert peak < 2**19


@pytest.mark.parametrize("spec", ("Sym:5", "Lie:A:2:7", "Alt:5,Cyclic:7",
                                  "Cyclic:2,Cyclic:2,Cyclic:2,Cyclic:2", "Cyclic:31,Cyclic:29"))
def test_cyclic_subgroups_match_closures(spec):
    # each cyclic subgroup against the closure of its least generator; an
    # element x of <y> with |x| = |<y>| generates it, so this gives <x> for
    # every x without |x| closure layers per x
    g = realize(spec)
    g.require_table(bound=ORDER_BOUND)
    gens, gens_from, number, members, members_from = g._cyclic_subgroups()
    orders = g.element_orders()
    least = gens[gens_from]
    assert least[0] == g.identity and (np.diff(least) > 0).all()
    gens_to = np.append(gens_from[1:], len(gens))
    for c, (lo, hi) in enumerate(zip(members_from[:-1], members_from[1:])):
        elems = members[lo:hi]
        assert elems.tolist() == g._close([g.identity], [least[c]]).tolist()
        assert gens[gens_from[c]:gens_to[c]].tolist() == elems[orders[elems] == len(elems)].tolist()
    # every x is a generator of number[x] and of no other cyclic subgroup
    assert sorted(gens.tolist()) == list(range(g.order))
    assert (number[gens] == np.repeat(np.arange(len(gens_from)), gens_to - gens_from)).all()


def test_conjugates_are_sorted_int16_rows():
    for c in realize("Sym:5").subgroup_classes():
        assert c.conjugates.dtype == np.int16 and c.conjugates.shape == (c.class_size, c.order)
        assert (np.diff(c.conjugates, axis=1) > 0).all()


def test_conjugate_inside_alt5():
    # in Sym(5), the Klein four-groups of double transpositions lie in Alt(5);
    # those that contain transpositions do not
    g = _sym(5)
    classes = g.subgroup_classes()
    elements, _ = _tuples(g)
    # a permutation is odd when it has an odd number of inversions
    is_odd = [sum(a[i] > a[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 1
              for a in elements]
    alt5 = next(c for c in classes if c.order == 60)
    assert not any(is_odd[x] for x in alt5.rep)
    host = g._mask(alt5.conjugates[0])
    fours = [c for c in classes if c.order == 4
             and all(perm_order(elements[x]) <= 2 for x in c.rep)]
    even = [c for c in fours if not any(is_odd[x] for x in c.rep)]
    odd = [c for c in fours if any(is_odd[x] for x in c.rep)]
    assert len(even) == len(odd) == 1
    assert permbrute._conjugate_inside(even[0], host) is not None
    assert permbrute._conjugate_inside(odd[0], host) is None
    # every pair of classes against a scan of the conjugates as sets
    for d in classes:
        host = g._mask(d.conjugates[0])
        for c in classes:
            sets = set(map(frozenset, c.conjugates.tolist()))
            inside = permbrute._conjugate_inside(c, host)
            if inside is None:
                assert not any(s <= d.rep for s in sets), (c.order, d.order)
            else:
                assert frozenset(inside.tolist()) in sets and set(inside.tolist()) <= d.rep


def test_alt5_class_orders():
    orders = sorted(c.order for c in realize("Alt:5").subgroup_classes())
    assert orders == [1, 2, 3, 4, 5, 6, 10, 12, 60]


def test_lagrange_and_conjugacy_audit():
    # each class's rows against {H^g : g in G}, conjugated on the permutation
    # tuples: x followed by y is y[x], so g^-1 h g maps i to g[h[g^-1[i]]]
    for spec in ("Alt:5", "Lie:A:2:7", "Sym:5", "Alt:5,Cyclic:7", ",".join(["Cyclic:2"] * 4)):
        g = realize(spec)
        perms = [tuple(p) for p in g.perms.tolist()]
        index = {p: i for i, p in enumerate(perms)}
        points = range(g.degree)
        conj = [(x, sorted(points, key=x.__getitem__)) for x in perms]  # (g, g^-1)
        seen = set()
        for c in g.subgroup_classes():
            assert g.order % c.order == 0
            assert c.class_size == len(c.conjugates)
            rows = c.conjugates.tolist()
            assert frozenset(rows[0]) == c.rep and all(r == sorted(r) for r in rows)
            # the representative is the conjugate with the least key
            keys = [row.tobytes() for row in c.conjugates]
            assert keys[0] == min(keys), (spec, c.order)
            hs = [perms[i] for i in rows[0]]
            orbit = {frozenset(index[tuple(x[h[xi[i]]] for i in points)] for h in hs)
                     for x, xi in conj}
            assert set(map(frozenset, rows)) == orbit and len(orbit) == len(rows), (spec, c.order)
            for s in orbit:
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
    r = maximal_pi_subgroups(g, {5, 7})  # 7 does not divide |G|
    assert r.pi == {5, 7} and r.pi_effective == {5} and r.hall_order == 5
    assert r.dpi and r.epi


def pairwise_maximal_pi_subgroups(g, pi, with_structure=True):
    """Reference for maximal_pi_subgroups: each pi-class is tested against
    every larger pi-class for a conjugate inside it."""
    pi = frozenset(pi)
    pi_classes = [c for c in g.subgroup_classes() if pi_part(c.order, pi) == c.order]
    maximal = [c for c in pi_classes
               if not any(d.order > c.order and d.order % c.order == 0
                          and any(d.rep.issuperset(s) for s in c.conjugates.tolist())
                          for d in pi_classes)]
    hall_order = pi_part(g.order, pi)
    epi = any(c.order == hall_order for c in maximal)
    report = permbrute.HallReport(pi, pi & prime_divisors(g.order), hall_order, epi,
                                  len(maximal) == 1, maximal)
    if epi and with_structure:
        report = report._replace(structural=permbrute._structural_flags(g, report, pi_classes))
    return report


def _acceptance_products():
    """The direct products of acceptance criterion 4: every pair of corpus
    groups and small cyclic groups of order at most DEFAULT_LATTICE_BOUND."""
    parts = list(CORPUS_SIMPLE) + [f"Cyclic:{p}" for p in (2, 3, 5, 7, 11)]
    return [f"{a},{b}" for i, a in enumerate(parts) for b in parts[i:]
            if realize(a).order * realize(b).order <= DEFAULT_LATTICE_BOUND]


def _elementary_abelian(k):
    return ",".join(["Cyclic:2"] * k)


@pytest.mark.parametrize("groups", ["simple and small", "products"])
def test_maximal_walk_matches_pairwise_scan(groups):
    specs = (_acceptance_products() if groups == "products" else
             CORPUS_SIMPLE + ("Sym:5",) + tuple(_elementary_abelian(k) for k in range(1, 6)))
    for spec in specs:
        g = realize(spec)
        spectrum = sorted(prime_divisors(g.order))
        for k in range(len(spectrum) + 1):
            for pi in map(frozenset, itertools.combinations(spectrum, k)):
                walk, ref = maximal_pi_subgroups(g, pi), pairwise_maximal_pi_subgroups(g, pi)
                assert ([(c.order, c.rep) for c in walk.maximal_classes]
                        == [(c.order, c.rep) for c in ref.maximal_classes]), (spec, pi)
                assert _hall_report_dict(walk) == _hall_report_dict(ref), (spec, pi)


def gather_scan_maximal_classes(g, pi):
    """Reference for maximal_pi_subgroups, the gather scan that join orders
    replaced: each pi-class, largest first, is tested against the maximal
    ones found so far by one gather of each one's membership mask over the
    class's rows; a non-maximal class lies in a larger maximal one."""
    hall_order = pi_part(g.order, pi)
    pi_classes = [c for c in g.subgroup_classes() if hall_order % c.order == 0]
    maximal, masks = [], []
    for c in reversed(pi_classes):
        if not any(d.order > c.order and d.order % c.order == 0
                   and permbrute._conjugate_inside(c, mask) is not None
                   for d, mask in zip(maximal, masks)):
            maximal.append(c)
            masks.append(g._mask(c.conjugates[0]))
    return maximal[::-1]


@pytest.mark.parametrize("spec", CORPUS_SIMPLE + ("Sym:5", "Alt:5,Cyclic:7", "Lie:A:2:7,Cyclic:3",
                                                  _elementary_abelian(5)))
def test_join_orders_match_the_gather_scan(spec):
    # every pi within pi(G), the empty one included, and pi(G) with one
    # prime outside it
    g = realize(spec)
    spectrum = sorted(prime_divisors(g.order))
    pis = [frozenset(combo) for k in range(len(spectrum) + 1)
           for combo in itertools.combinations(spectrum, k)]
    pis.append(frozenset(spectrum) | {next(p for p in (2, 3, 5, 7, 11) if p not in spectrum)})
    for pi in pis:
        r = maximal_pi_subgroups(g, pi, with_structure=False)
        ref = gather_scan_maximal_classes(g, pi)
        assert ([(c.conjugates.shape, c.conjugates.tobytes()) for c in r.maximal_classes]
                == [(c.conjugates.shape, c.conjugates.tobytes()) for c in ref]), (spec, pi)
        hall_order = pi_part(g.order, pi)
        assert (r.epi, r.dpi) == (any(c.order == hall_order for c in ref), len(ref) == 1), (spec, pi)


def test_maximal_pi_subgroups_gathers_no_conjugates(monkeypatch):
    # C2^6 has 2825 subgroups, all 2-subgroups; the whole group is the one
    # maximal class, found from the classes' join orders alone: no
    # containment gather, no membership mask and no product is read
    g = realize(_elementary_abelian(6))
    assert len(g.subgroup_classes()) == 2825
    calls = []
    monkeypatch.setattr(permbrute, "_conjugate_inside", lambda *args: calls.append(args))
    for name in ("_mask", "_products"):
        monkeypatch.setattr(g, name, lambda *args: calls.append(args))
    r = maximal_pi_subgroups(g, {2}, with_structure=False)
    assert [c.order for c in r.maximal_classes] == [64] and r.epi and r.dpi
    assert calls == []


def test_two_part_partitions():
    # with fewer than two primes there is no partition; otherwise the least
    # prime stays in sigma and the masks run over the rest
    assert list(permbrute._two_part_partitions(frozenset())) == []
    assert list(permbrute._two_part_partitions(frozenset({2}))) == []
    assert list(permbrute._two_part_partitions(frozenset({2, 3, 5}))) == [
        ({2}, {3, 5}), ({2, 3}, {5}), ({2, 5}, {3})]


def test_lemma_flags_stop_at_their_answer(monkeypatch):
    # Alt(5) x C7 has flags for pi = {2,7}, {3,7} and {5,7}, one Hall class
    # each; every sigma-Hall subgroup, a Sylow subgroup, is nilpotent, so
    # no tau-Hall subgroup is searched: 3 searches where both were 6
    find, found = permbrute._find_hall_inside, []
    monkeypatch.setattr(permbrute, "_find_hall_inside", lambda classes, host, sub_pi:
                        found.append(sorted(sub_pi)) or find(classes, host, sub_pi))
    rows = sweep("Alt:5,Cyclic:7")
    assert found == [[2], [3], [5]]
    assert [p["holds"] for row in rows if row.report.structural
            for p in row.report.structural["nilpotent_factor_per_partition"]] == [True] * 3


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
    g = PermGroup(a7.degree, a7.generators)
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
    # the normal subgroups are the lattice classes of size 1: a subgroup is
    # normal iff conjugation by every generator, computed on the
    # permutations themselves, keeps it
    g = realize(spec)
    elements, index = _tuples(g)
    for c in g.subgroup_classes():
        normal = all(index[pmul(pmul(pinv(s), elements[x]), s)] in c.rep
                     for s in g.generators for x in c.rep)
        assert normal == (c.class_size == 1), (spec, c.order)


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


@pytest.mark.parametrize("spec", STRUCTURE_GROUPS)
def test_derived_subgroup_matches_definition(spec):
    # the subgroup generated by every commutator a^-1 b^-1 a b of K, computed
    # on the permutations themselves; classes of order at most 60 keep the
    # pairs few.  The commutators of gens_of(K) alone can generate less than
    # K': 2 of the 4 elements of A4' = V4
    g = realize(spec)
    elements, index = _tuples(g)
    for c in g.subgroup_classes():
        if c.order > 60:
            continue
        ks = [elements[k] for k in c.rep]
        comms = {pmul(pmul(pinv(a), pinv(b)), pmul(a, b)) for a in ks for b in ks}
        expected = {index[e] for e in tuple_closure(comms, g.degree)}
        assert g.derived_subgroup(c.rep) == expected, (spec, c.order)


def test_structure_ops_do_not_import_numpy_ma():
    """Plain np.unique imports numpy.ma on its first call, tens of
    milliseconds that a fresh process would pay inside its first structure
    op.  The realize, table, Sylow, solvability, closure and generating-set
    paths and the corpus sweep stay clear of it."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        from sylowpi import cli
        from sylowpi.arith import prime_divisors
        from sylowpi.permbrute import ORDER_BOUND, realize
        g = realize("Alt:7")
        g.require_table(bound=ORDER_BOUND)
        whole = range(g.order)
        for p in prime_divisors(g.order):
            g.sylow_in(whole, p)
        g.is_solvable_set(whole)
        g.closure_indices(g.lookup(g.generators))
        g.gens_of(whole)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["corpus", "--json"])
        print(code, "numpy.ma" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(permbrute.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.split() == ["0", "False"]


def verify_hall_inheritance(g, pi) -> bool:
    """Reference for Hall inheritance: every pi-Hall subgroup H meets every
    normal subgroup A, a lattice class of size 1, in a pi-Hall subgroup of
    A, and maps onto a pi-Hall subgroup of G/A: H meets |G/A|_pi right
    cosets of A."""
    pi = frozenset(pi)
    report = maximal_pi_subgroups(g, pi, with_structure=False)
    if not report.epi:
        raise ValueError("group has no pi-Hall subgroup; precondition violated")
    hs = [c.conjugates[0] for c in report.hall_classes]
    for a in g.subgroup_classes():
        if a.class_size != 1:
            continue
        member, coset = g._mask(a.conjugates[0]), g._coset_least(a.conjugates[0])
        for h in hs:
            if (np.count_nonzero(member[h]) != pi_part(a.order, pi)
                    or np.unique(coset[h]).size != pi_part(g.order // a.order, pi)):
                return False
    return True


def test_verify_hall_inheritance(monkeypatch):
    g = realize("Alt:5,Cyclic:7")
    # the normal subgroups it checks against: 1, C7, Alt(5) and G
    assert [c.order for c in g.subgroup_classes() if c.class_size == 1] == [1, 7, 60, 420]
    assert verify_hall_inheritance(g, {2, 3, 7})
    assert verify_hall_inheritance(g, {5, 7})
    with pytest.raises(ValueError):
        verify_hall_inheritance(g, {2, 5})  # no {2,5}-Hall in Alt(5) x C7
    # with every element its own coset, H meets |H| cosets of C7, not 12
    monkeypatch.setattr(PermGroup, "_coset_least", lambda self, h: np.arange(self.order))
    assert not verify_hall_inheritance(g, {2, 3, 7})


@pytest.mark.parametrize("spec", STRUCTURE_GROUPS)
def test_hall_inheritance_holds_for_every_pi(spec):
    # every pi with E_pi over the primes of |G|: 58 of them against 23
    # normal subgroups on these ten groups, 0.04 s in all once their
    # lattices are built
    g = realize(spec)
    primes = sorted(prime_divisors(g.order))
    checked = 0
    for k in range(1, len(primes) + 1):
        for pi in itertools.combinations(primes, k):
            if maximal_pi_subgroups(g, pi, with_structure=False).epi:
                assert verify_hall_inheritance(g, pi), (spec, pi)
                checked += 1
    assert checked >= len(primes) + 1  # every Sylow subgroup, and G itself


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


def test_check_final_corollary():
    # a simple corpus group has no split Hall subgroup, so the corollary is
    # vacuous; the unsplit Frobenius 7:3 is covered by test_split_hall
    assert not any(row.splits for row in sweep("Alt:5"))
    # abelian direct product: applicable and true
    g = realize("Cyclic:3,Cyclic:5")
    assert check_final_corollary(g, [split_hall(g, range(g.order), {3}, {5})]) is True
    splits = [split for row in sweep("Cyclic:3,Cyclic:5") for split in row.splits]
    assert splits == [((3,), (5,), True)]  # one split, where the corollary holds


# the theorem's named instances, a split pi-Hall subgroup H = H_sigma x H_tau
# with D_pi: PSL(2,16)'s is the only split one among the simple and symmetric
# groups that brute force reaches, and H is nilpotent (Wielandt's case); the
# three products are the only ones among the products of two corpus or cyclic
# parts up to order 10,080 whose H has D_pi and is not nilpotent, each split
# along the factors
NAMED_INSTANCES = [
    ("Lie:A:2:16", (3, 5), ((3,), (5,)), 15, True),
    ("Lie:A:2:7,Cyclic:5", (3, 5, 7), ((3, 7), (5,)), 105, False),
    ("Lie:A:2:7,Cyclic:11", (3, 7, 11), ((3, 7), (11,)), 231, False),
    ("Lie:A:2:11,Cyclic:7", (5, 7, 11), ((5, 11), (7,)), 385, False),
]


@pytest.mark.parametrize("spec, pi, split, hall_order, nilpotent", NAMED_INSTANCES,
                         ids=[row[0] for row in NAMED_INSTANCES])
def test_the_theorems_named_instances(spec, pi, split, hall_order, nilpotent):
    row = next(row for row in sweep(spec) if row.report.pi == frozenset(pi))
    assert (*split, True) in row.splits and row.report.dpi
    assert [c.order for c in row.report.hall_classes] == [hall_order]
    # a fresh realization numbers its elements as the sweep's did
    assert realize(spec).is_nilpotent_set(row.report.hall_classes[0].rep) is nilpotent


def test_split_hall_needs_sigma_and_tau_to_cover_the_hall_order():
    # {2} u {3} misses the prime 5 of |H| = 30: the parts of orders 2 and 3
    # do not decompose H
    g = realize("Cyclic:2,Cyclic:3,Cyclic:5")
    assert split_hall(g, range(30), {2}, {3}) is None
    assert split_hall(g, range(30), {2}, {3, 5}) is not None


def test_sym6_negative_control():
    s6 = _sym(6)
    assert all(c.order != 144 for c in s6.subgroup_classes())


def test_direct_product_structure():
    g = direct_product(realize("Cyclic:2"), realize("Cyclic:3"))
    assert g.order == 6 and g.degree == 5
    assert g.is_nilpotent_set(frozenset(range(6)))


@pytest.mark.parametrize("spec", CORPUS_SIMPLE + ("Alt:5,Cyclic:7",) + tuple(BUILT))
def test_table_matches_definition(spec):
    g = _group(spec)
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
    # sampled rows against the definition: element i followed by element j
    # is the permutation perms[j][perms[i]]
    sample = np.random.default_rng(7).choice(g.order, 48, replace=False)
    for i in [g.identity, g.order - 1, *sample.tolist()]:
        assert (t[i] == g.lookup(g.perms[:, g.perms[i]])).all()
        assert t[i, g.inv[i]] == g.identity


class _UnreadableTable:
    """Stands in for a built table: any direct read fails."""

    def __getitem__(self, key):
        raise AssertionError(f"direct table read {key!r}")

    def item(self, *args):
        raise AssertionError(f"direct table read {args!r}")


def _products_from_rows(g, a, b):
    """The reference for PermGroup._products, with no table: a followed by b
    is the permutation perms[b][perms[a]], looked up among the elements."""
    if isinstance(b, slice):  # every element, one row per entry of a
        a, b = np.asarray(a)[..., None], np.arange(g.order)[b]
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp))
    rows = np.take_along_axis(g.perms[b.ravel()], g.perms[a.ravel()].astype(np.intp), axis=1)
    return g.lookup(rows).astype(np.int16).reshape(a.shape)


def _engine_results(g):
    """What the engine reports on g: the lattice's conjugate rows, every
    maximal_pi_subgroups report with its structural flags, and the Hall
    inheritance, splits, Sylow subgroups and solvability behind them."""
    classes = g.subgroup_classes()
    out = [[(c.conjugates.dtype, c.conjugates.shape, c.conjugates.tobytes()) for c in classes]]
    whole = frozenset(range(g.order))
    primes = sorted(prime_divisors(g.order))
    out.append([g.sylow_in(whole, p) for p in primes])
    out.append([g.is_solvable_set(c.rep) for c in classes])
    for k in range(1, len(primes) + 1):
        for pi in map(frozenset, itertools.combinations(primes, k)):
            r = maximal_pi_subgroups(g, pi)
            out.append((r.epi, r.dpi, [c.conjugates.tobytes() for c in r.maximal_classes],
                        r.structural))
            if not r.epi:
                continue
            out.append(verify_hall_inheritance(g, pi))
            for c in r.hall_classes:
                out.append([g.sylow_in(c.rep, p) for p in sorted(pi)])
                out.append([split_hall(g, c.rep, sigma, pi - sigma)
                            for j in range(1, k)
                            for sigma in map(frozenset, itertools.combinations(sorted(pi), j))])
    return out


@pytest.mark.parametrize("spec", ("Alt:5", "Sym:5", "Lie:A:2:7", "Alt:5,Cyclic:2",
                                  "Cyclic:3,Cyclic:5"))
def test_engine_reads_products_only_through_one_method(monkeypatch, spec):
    # the engine's results with the table against those with the table
    # unreadable and every product composed from the permutation rows: a read
    # of the table outside PermGroup._products raises
    expected = _engine_results(realize(spec))
    g = realize(spec)
    g.require_table()
    g._table = _UnreadableTable()
    monkeypatch.setattr(PermGroup, "_products", _products_from_rows)
    assert _engine_results(g) == expected


def _regular_quotient():
    """Alt(5) x C2 acting on the cosets of its trivial subgroup, that is on
    itself by right multiplication: degree 120, three generators."""
    g = realize("Alt:5,Cyclic:2")
    t = g.require_table()
    return PermGroup(g.order, [t[:, s].tolist() for s in g.lookup(g.generators)])


@pytest.mark.parametrize("spec", ["Sym:5", "Alt:5,Cyclic:7", "quotient"])
def test_table_is_the_same_in_small_blocks(monkeypatch, spec):
    # the table is filled a block of rows at a time: blocks of one row, and of
    # three rows, which end inside a breadth-first layer somewhere because 3
    # does not divide the n - 1 rows filled after the identity's.  Alt(5) x C7,
    # built from its generators so that it is not filled from its factors'
    # tables, and the degree-120 quotient have three generators each.
    def build():  # afresh, so that no table is shared
        if spec == "Alt:5,Cyclic:7":
            g = realize(spec)
            return PermGroup(g.degree, g.generators)
        return _sym(5) if spec == "Sym:5" else _regular_quotient()

    g = build()
    n = g.order
    assert (n - 1) % 3
    default = g.require_table().tobytes(), g.inv.tobytes()
    for frontier in (1, 3 * n):
        monkeypatch.setattr(permbrute, "_FRONTIER", frontier)
        h = build()
        assert (h.require_table().tobytes(), h.inv.tobytes()) == default


PRODUCTS = ("Alt:5,Cyclic:7", "Lie:A:2:9,Cyclic:5", "Lie:A:2:8,Cyclic:3", "Sym:6,Cyclic:2",
            "Lie:A:2:11,Cyclic:2", "Cyclic:2,Cyclic:2,Cyclic:2,Cyclic:2,Cyclic:2",
            "Alt:5,Cyclic:2,Cyclic:3", "Lie:A:2:7,Cyclic:5", "Alt:6,Cyclic:7",
            "Cyclic:31,Cyclic:29,Cyclic:11", "Alt:5,Alt:5", "nested")


def _product(spec):
    """A realized product, or C2 x (C3 x (C5 x C7)), whose second factor is
    a product itself; realize nests to the left."""
    if spec == "nested":
        c = [permbrute._cyclic(p) for p in (2, 3, 5, 7)]
        return direct_product(c[0], direct_product(c[1], direct_product(c[2], c[3])))
    return realize(spec)


def _table_digest(g):
    # a digest, so that the test holds one table at a time: C31 x C29 x C11
    # has one of 196 MB
    t = g.require_table(bound=ORDER_BOUND)
    return hashlib.sha256(t).hexdigest(), g.inv.tobytes()


@pytest.mark.parametrize("spec", PRODUCTS)
def test_product_table_is_the_breadth_first_one(spec):
    # a product's table, inverses and element orders come from its factors';
    # the same group built from its generators alone fills its table along its
    # Cayley graph, looks its inverses up and walks its elements' cycles
    g = _product(spec)
    assert g._factors is not None
    product = _table_digest(g)
    g._table = None
    orders = g.element_orders()
    h = PermGroup(g.degree, g.generators)
    assert type(h) is PermGroup and np.array_equal(h.perms, g.perms)
    assert _table_digest(h) == product
    assert orders.dtype == h.element_orders().dtype
    assert np.array_equal(orders, h.element_orders())
    assert all(f._table is None and f._orders is None for f in g._factors)


@pytest.mark.parametrize("spec", ("Alt:5,Cyclic:7", "Cyclic:2,Cyclic:2,Cyclic:2,Cyclic:2,Cyclic:2",
                                  "Lie:A:2:7,Cyclic:5", "nested"))
def test_product_table_is_the_same_in_small_blocks(monkeypatch, spec):
    # 64 entries make a block of one element a of the first factor, rows
    # (a, b) for every b, and columns one block a' wide where |L|^2 > 32;
    # 5 |L|^2 entries make columns five blocks a' wide, and 3 |G| |L| blocks
    # of three elements a.  5 does not divide |K| for C2^5 = C2^4 x C2 or
    # PSL(2,7) x C5, nor 3 for C2^5 or C2 x (C3 x (C5 x C7)), so a block ends
    # short of the table's edge
    default = _table_digest(_product(spec))
    g = _product(spec)
    m = g._factors[1].order
    for frontier in (64, 5 * m * m, 3 * g.order * m):
        monkeypatch.setattr(permbrute, "_FRONTIER", frontier)
        assert _table_digest(_product(spec)) == default


def test_product_table_frees_a_large_second_factors_table(monkeypatch):
    # PSL(2,8) has 504 elements and 504^2 >= _FRONTIER, so each block a' of
    # columns is one t_L wide; once the rows (0, b) are written, t_L is read
    # from them and the t_L built for them is freed
    g = realize("Cyclic:2,Lie:A:2:8")
    k, m = g._factors[0].order, g._factors[1].order
    assert m * m >= permbrute._FRONTIER
    held = []

    class TracedAdd:  # numpy, noting the traced memory at each np.add
        def __getattr__(self, name):
            return getattr(np, name)

        def add(self, *args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return np.add(*args, **kwargs)

    monkeypatch.setattr(permbrute, "np", TracedAdd())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = g.require_table(bound=ORDER_BOUND)
    finally:
        tracemalloc.stop()
    # one np.add per block a' of columns: k for a = 0, then k per later a
    assert len(held) == k * k
    assert max(held[:k]) - before >= table.nbytes + m * m * 2
    assert max(held[k:]) - before < table.nbytes + m * m * 2 // 8


@pytest.mark.parametrize("spec", PRODUCTS)
def test_product_rows_are_the_pairs_in_order(spec):
    # row a |L| + b is K's row a followed by L's row b shifted by deg K, and
    # those rows are already sorted; a permutation that moves a point of K
    # into L is no element
    g = _product(spec)
    k, l = g._factors
    rows = g.perms.reshape(k.order, l.order, g.degree).astype(np.intp)
    assert (rows[:, :, :k.degree] == k.perms[:, None]).all()
    assert (rows[:, :, k.degree:] == l.perms.astype(np.intp) + k.degree).all()
    keys = g._keys.tolist()
    assert all(a < b for a, b in zip(keys, keys[1:]))
    swap = list(range(g.degree))
    swap[0], swap[-1] = swap[-1], swap[0]
    with pytest.raises(ElementListError):
        g.lookup(np.array([swap]))


def test_a_product_builds_no_rows_until_read():
    # a product's order, table, inverses, element orders and lattice come
    # from its factors, so neither the engine nor a refusal at a caller's
    # bound lays out its element rows; they are laid out on first read
    g = realize("Alt:5,Cyclic:7")
    g.require_table()
    g.subgroup_classes()
    primes = sorted(prime_divisors(g.order))
    for r in range(1, len(primes) + 1):
        for pi in itertools.combinations(primes, r):
            report = maximal_pi_subgroups(g, pi)
            for sigma, tau in permbrute._two_part_partitions(report.pi_effective):
                for c in report.hall_classes:
                    split_hall(g, c.rep, sigma, tau)
    refused = realize("Lie:A:2:7,Cyclic:7")
    with pytest.raises(BruteForceBoundError):
        refused.require_table(bound=DEFAULT_LATTICE_BOUND)
    inner = realize("Cyclic:2,Cyclic:3,Cyclic:5")._factors[0]
    assert inner.order == 6
    for h in (g, refused, inner):
        assert "perms" not in vars(h)
        assert not h.perms.flags.writeable
        assert h.lookup(h.perms).tolist() == list(range(h.order))


def test_degree_above_256_is_refused():
    # rows hold one byte per point
    with pytest.raises(ValueError, match="degree 257"):
        PermGroup(257, [tuple(range(1, 257)) + (0,)])


@pytest.mark.parametrize("spec", CORPUS_SIMPLE + ("Sym:5", "Alt:5,Cyclic:7", "quotient"))
def test_element_orders_match_perm_order(spec):
    g = _regular_quotient() if spec == "quotient" else realize(spec)
    orders = g.element_orders()
    assert orders.tolist() == [perm_order(e) for e in _tuples(g)[0]]
    # the pi-elements, which the Sylow, nilpotency and split tests read, are
    # those whose order o has pi_part(o, pi) == o, for every pi within pi(G)
    # and for pi(G) with a prime that does not divide |G|
    primes = sorted(prime_divisors(g.order))
    extra = next(p for p in itertools.count(primes[-1] + 1) if is_prime(p))
    subsets = [pi for r in range(len(primes) + 1) for pi in itertools.combinations(primes, r)]
    elements = np.arange(g.order)
    for pi in subsets + [(*primes, extra)]:
        want = [x for x, o in enumerate(orders.tolist()) if pi_part(o, pi) == o]
        assert g._pi_elements(elements, pi).tolist() == want, pi


def test_group_without_generators():
    g = PermGroup(3, [])
    assert g.order == 1 and g.generators == ()
    assert g.require_table().tolist() == [[0]] and g.inv.tolist() == [0]
    assert [c.rep for c in g.subgroup_classes()] == [frozenset({0})]


@pytest.mark.parametrize("k, l", [("Alt:5", "Cyclic:7"), ("Cyclic:3", "Cyclic:5"),
                                  ("Lie:A:2:4", "Cyclic:2")])
def test_product_element_lists(k, l):
    gk, gl = realize(k), realize(l)
    d1, d2 = gk.degree, gl.degree
    gens = [a + tuple(range(d1, d1 + d2)) for a in gk.generators]
    gens += [tuple(range(d1)) + tuple(x + d1 for x in b) for b in gl.generators]
    g = realize(f"{k},{l}")
    assert _tuples(g)[0] == sorted(tuple_closure(gens, d1 + d2))
    # the generators, built on first read, are the factors' side by side
    assert g.generators == tuple(gens)
    assert (PermGroup(g.degree, g.generators).perms == g.perms).all()


def test_nested_product_generators():
    # C2 x (C3 x C5) on 2 + 3 + 5 points: each factor's generator beside
    # the identity on the other points
    c2, c3, c5 = (realize(f"Cyclic:{p}") for p in (2, 3, 5))
    g = direct_product(c2, direct_product(c3, c5))
    assert g.generators == ((1, 0, 2, 3, 4, 5, 6, 7, 8, 9),
                            (0, 1, 3, 4, 2, 5, 6, 7, 8, 9),
                            (0, 1, 2, 3, 4, 6, 7, 8, 9, 5))
    assert (PermGroup(g.degree, g.generators).perms == g.perms).all()


def _products_in(g):
    """g, if it is a product, and every product among its factors, nested."""
    if not hasattr(g, "_factors"):
        return []
    return [g] + [p for f in g._factors for p in _products_in(f)]


def _laid_out(g):
    """(name, cached generators or rows) for each product in g that has any."""
    return [(p.name, built) for p in _products_in(g)
            if (built := {"generators", "perms", "_keys"} & vars(p).keys())]


def test_a_refused_product_builds_no_permutation():
    g = realize("Alt:6,Cyclic:5")  # order 1,800
    with pytest.raises(BruteForceBoundError, match="1800"):
        g.require_table(bound=DEFAULT_LATTICE_BOUND)
    assert _laid_out(g) == [] and g._table is None


@pytest.mark.parametrize("spec", ("Alt:5,Cyclic:7", "Cyclic:2,Cyclic:3,Cyclic:5"))
def test_the_engine_lays_out_no_product_generators_or_rows(spec):
    # the table, lattice, Hall reports with their structural flags, Sylow
    # subgroups and solvability of a product come from its factors' rows
    g = realize(spec)
    g.require_table(bound=DEFAULT_LATTICE_BOUND)
    whole = frozenset(range(g.order))
    for c in g.subgroup_classes():
        g.is_solvable_set(c.rep)
    for p in prime_divisors(g.order):
        g.sylow_in(whole, p)
        maximal_pi_subgroups(g, prime_divisors(g.order) - {p})
    assert len(_products_in(g)) == spec.count(",") and _laid_out(g) == []


def test_pi_part():
    assert pi_part(720, {2, 3}) == 144
    assert pi_part(720, {7}) == 1
    assert pi_part(math.factorial(8), {2, 3}) == 1152


def test_order_bound_enforced():
    with pytest.raises(BruteForceBoundError) as err:
        PermGroup(11, [tuple(range(1, 11)) + (0,), (1, 0) + tuple(range(2, 11))])
    assert str(err.value) == (f"group order exceeds the bound {ORDER_BOUND}; "
                              "refusing to materialize")


def sym7_x_c2_on_9_points():
    """Sym(7) x C2 closed from generators: (0 1), (0 1 ... 6) and (7 8)."""
    return PermGroup(9, [(1, 0, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4, 5, 6, 0, 7, 8),
                         (0, 1, 2, 3, 4, 5, 6, 8, 7)])


def test_a_closure_of_exactly_order_bound_elements_is_accepted():
    # the bound refuses more than ORDER_BOUND elements, not ORDER_BOUND itself;
    # realize builds Sym(7) x C2 as a product, which never closes its rows
    g = sym7_x_c2_on_9_points()
    assert g.order == len(g.perms) == ORDER_BOUND


def test_a_group_without_a_name_is_named_by_its_order():
    assert sym7_x_c2_on_9_points().name == "group of order 10080 on 9 points"


def test_lattice_bound_explicit():
    g = realize("Lie:A:2:9")  # order 360, fine at the default bound
    fresh = PermGroup(g.degree, g.generators)
    with pytest.raises(BruteForceBoundError):
        fresh.require_table(bound=100)
