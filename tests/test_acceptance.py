"""Acceptance suite: the seven primary criteria, exact (zero tolerance).

Each test prints a single PASS line on success (run with -s or read the
captured output); a failure is an ordinary pytest failure.
"""

from collections import Counter

from sylowpi.catalog import facts, parse_group
from sylowpi.cli import CORPUS_SIMPLE, sweep
from sylowpi.criterion import decide_dpi_simple
from sylowpi.permbrute import (
    DEFAULT_LATTICE_BOUND,
    _sym,
    maximal_pi_subgroups,
    realize,
    reproduce_table1,
)
from sylowpi.tables import SPORADIC_EVEN_ROWS, SPORADIC_ODD_ROWS
from sylowpi.criterion import CONDITION_II_ITEMS


def _report(number: int, title: str) -> None:
    print(f"PASS  criterion {number}: {title}")


def test_criterion_1_oracle_agreement():
    """Criterion-oracle agreement on every realized simple group and every
    pi within its prime spectrum: Alt(5)-Alt(7) and the 13 PSL(2,q) of
    order <= 10080.  PSL(2,16) and PSL(2,19) are where brute force checks
    Conditions V and VII."""
    specs = [f"Alt:{n}" for n in (5, 6, 7)] + [
        f"Lie:A:2:{q}" for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)]
    disagreements = []
    witnesses = {}
    cells = Counter()
    for spec in specs:
        gid = parse_group(spec)
        result = sweep(spec)
        assert len(result.rows) == 2 ** len(facts(gid).spectrum), spec
        disagreements += [(spec, row) for row in result.rows if not row["agree"]]
        verdicts = (decide_dpi_simple(gid, frozenset(row["pi"])) for row in result.rows)
        witnesses[spec] = [v.witness and (v.witness.condition, v.witness.subcase)
                           for v in verdicts]
        cells.update(witnesses[spec])
    assert disagreements == [], disagreements
    assert ("V", 1) in witnesses["Lie:A:2:16"], witnesses["Lie:A:2:16"]
    assert ("VII", 1) in witnesses["Lie:A:2:19"], witnesses["Lie:A:2:19"]
    # every witness cell the oracle checks, with its rows; None: no condition
    assert cells == {None: 94, ("I", None): 88, ("III", None): 7,
                     ("V", 1): 1, ("VII", 1): 2}, cells
    _report(1, f"criterion-oracle agreement on {len(specs)} simple groups, "
               f"{sum(cells.values())} rows (0 disagreements; V(1) and VII(1) checked)")


def test_criterion_2_epi_without_dpi_witness():
    """(Alt(5), {2,3}): Hall subgroup exists, conjugacy fails, and the
    arithmetic criterion returns false with no condition firing."""
    r = maximal_pi_subgroups(realize("Alt:5"), {2, 3}, with_structure=False)
    assert r.epi is True
    assert r.dpi is False
    v = decide_dpi_simple(parse_group("Alt:5"), frozenset({2, 3}))
    assert v.dpi is False and v.witness is None
    _report(2, "Alt(5)/{2,3} is E_pi but not D_pi; no condition fires")


def test_criterion_3_table1_reproduction():
    """Constructive {2,3}-Hall subgroups of Sym_7 and Sym_8, plus the
    Sym_6 negative control."""
    assert reproduce_table1(7) is True
    assert reproduce_table1(8) is True
    s6 = _sym(6)
    assert all(c.order != 144 for c in s6.subgroup_classes())
    _report(3, "Sym_7/Sym_8 Hall subgroups rebuilt (144, 1152); Sym_6 control clean")


def test_criterion_4_split_merge_on_products():
    """On every realized product K x L of order <= DEFAULT_LATTICE_BOUND
    (1000), `sweep` checks D_pi = D_sigma and D_tau wherever a pi-Hall
    subgroup splits as sigma-part x tau-part, besides criterion-oracle
    agreement.  The 29 products of order 1001-10080 are left out for the
    suite's running time."""
    parts = list(CORPUS_SIMPLE) + [f"Cyclic:{p}" for p in (2, 3, 5, 7, 11)]
    results = {(a, b): sweep(f"{a},{b}") for i, a in enumerate(parts) for b in parts[i:]
               if realize(a).order * realize(b).order <= DEFAULT_LATTICE_BOUND}
    bad = {k: (r.disagreements, r.violations) for k, r in results.items()
           if r.disagreements or r.violations}
    instances = sum(r.split_hits for r in results.values())
    assert bad == {} and instances > 0, bad
    _report(4, f"split/merge identity on {len(results)} products, "
               f"{instances} verified-split instances (0 violations)")


def test_criterion_5_arith_oracles():
    """mult_order and r_part agree with naive loops on the full grid."""
    from sylowpi.arith import is_prime, mult_order, r_part
    for q in range(2, 100):
        for r in range(3, 100, 2):
            if not is_prime(r) or q % r == 0:
                continue
            x, e = q % r, 1
            while x != 1:
                x = x * q % r
                e += 1
            assert mult_order(q, r) == e, (q, r)
    for m in range(1, 2000):
        for r in (2, 3, 5, 7):
            part, mm = 1, m
            while mm % r == 0:
                mm //= r
                part *= r
            assert r_part(m, r) == part, (m, r)
    _report(5, "mult_order and r_part match the naive oracles exactly")


def test_criterion_6_structural_lemma_sweep():
    """Where a Hall subgroup exists, pi(G) is not inside pi and 2 or 3 is
    missing from pi: the Hall subgroup is solvable and every 2-part
    partition has a nilpotent factor; the final-corollary and split/merge
    checks never report a violation anywhere they apply."""
    hypothesis_hits = 0
    corollary_hits = 0
    # simple corpus groups have no split Hall subgroups, so the corollary is
    # vacuous there; products make it bite
    for spec in CORPUS_SIMPLE + ("Alt:5,Cyclic:7", "Lie:A:2:7,Cyclic:5",
                                 "Cyclic:3,Cyclic:5"):
        result = sweep(spec)
        assert result.violations == [], result.violations
        assert result.disagreements == 0, (spec, result.rows)
        hypothesis_hits += result.hypothesis_hits
        corollary_hits += result.corollary_hits
    assert hypothesis_hits > 0 and corollary_hits > 0
    _report(6, f"structural lemmas hold on {hypothesis_hits} hypothesis cases, "
               f"{corollary_hits} applicable corollary cases (0 violations)")


def test_criterion_7_table_integrity():
    """Cross-audit of the embedded tables and the Condition II data."""
    table2 = set(SPORADIC_ODD_ROWS)
    for name, sets in CONDITION_II_ITEMS:
        for pi in sets:
            assert 2 not in pi
            assert (name, pi) in table2, (name, sorted(pi))
    for name, pi in SPORADIC_ODD_ROWS:
        assert len(pi) == 2, (name, sorted(pi))
    no_three = [(n, p) for n, p, _ in SPORADIC_EVEN_ROWS if 3 not in p]
    assert no_three == [("J1", frozenset({2, 7}))]
    _report(7, "Tables 1-3 and Condition II cross-audit clean")
