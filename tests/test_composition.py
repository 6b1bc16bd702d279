"""Lifting D_pi to composite groups and the sigma/tau split equivalence."""

import pytest

from sylowpi.catalog import alt, lie
from sylowpi.composition import (
    CompositionSpec,
    CyclicFactor,
    SplitHypothesis,
    decide_dpi_composite,
    parse_factors,
    wielandt_split,
)


def test_parse_factors():
    spec = parse_factors("Alt:5,Cyclic:7,Lie:A:2:7")
    assert spec.factors == (alt(5), CyclicFactor(7), lie("A", 7, n=2))
    with pytest.raises(ValueError):
        parse_factors("Cyclic:6")  # composite order
    with pytest.raises(ValueError):
        parse_factors("")
    with pytest.raises(ValueError):
        parse_factors("Alt:4")  # invalid simple factor
    # Sym(n) stands for its composition factors, Alt(n) and C2
    spec = parse_factors("Sym:5,Cyclic:3")
    assert spec.factors == (alt(5), CyclicFactor(2), CyclicFactor(3))
    # a Sym:n term below n = 5 is refused under its own name, not as Alt(n)
    with pytest.raises(ValueError, match=r"^Sym\(4\): a Sym:n term needs n >= 5"):
        parse_factors("Sym:4")


def test_all_cyclic_factors_pass():
    spec = parse_factors("Cyclic:2,Cyclic:3,Cyclic:7")
    for pi in (frozenset({2, 3}), frozenset({3, 7}), frozenset({2, 3, 5, 7})):
        assert decide_dpi_composite(spec, pi).dpi


def test_simple_factor_inherits_verdict():
    spec = CompositionSpec((alt(5),))
    assert not decide_dpi_composite(spec, frozenset({2, 3})).dpi
    assert decide_dpi_composite(spec, frozenset({2, 3, 5})).dpi


def test_repeated_factors_conjunction():
    spec = CompositionSpec((alt(5), alt(5)))
    v = decide_dpi_composite(spec, frozenset({2, 5}))
    assert len(v.trace) == 2
    assert v.trace[0][1] == v.trace[1][1]
    assert v.dpi == (v.trace[0][1] and v.trace[1][1])


def test_mixed_factors():
    spec = parse_factors("Alt:5,Cyclic:7")
    v = decide_dpi_composite(spec, frozenset({2, 3}))
    assert not v.dpi
    assert [d for _, d, _ in v.trace] == [False, True]


def test_wielandt_split_conditional_label():
    spec = CompositionSpec((alt(5),))
    sigma, tau = frozenset({2, 3}), frozenset({5})
    hyp = SplitHypothesis(sigma=sigma, tau=tau, hall_split_assumed=True)
    v = wielandt_split(spec, sigma, tau, hyp)
    assert v.conditional and "H = H_sigma x H_tau" in v.condition_note


def test_wielandt_split_is_conjunction():
    spec = parse_factors("Alt:5,Cyclic:7")
    sigma, tau = frozenset({5}), frozenset({7})
    hyp = SplitHypothesis(sigma=sigma, tau=tau, hall_split_assumed=True)
    v = wielandt_split(spec, sigma, tau, hyp)
    left = decide_dpi_composite(spec, sigma)
    right = decide_dpi_composite(spec, tau)
    assert v.dpi == (left.dpi and right.dpi)
    assert v.pi == frozenset({5, 7})
    assert v.trace == left.trace + right.trace
    assert v.conditional


def _cells(cv):
    return [(v.group, v.dpi, v.witness and v.witness.condition) for v in cv.verdicts]


def test_composite_verdict_keeps_its_factors_verdicts():
    # the simple factors' Verdicts, witnesses included, in factor order; the
    # cyclic factor between them has none
    spec = parse_factors("Alt:5,Cyclic:7,Lie:A:2:7")
    psl27 = lie("A", 7, n=2)
    v = decide_dpi_composite(spec, frozenset({3, 7}))
    assert _cells(v) == [(alt(5), True, "I"), (psl27, True, "III")]
    assert [(str(w.group), w.dpi, w.witness_text()) for w in v.verdicts] == \
        [v.trace[0], v.trace[2]]
    # a split holds sigma's verdicts, then tau's
    sigma, tau = frozenset({2, 7}), frozenset({3})
    split = wielandt_split(spec, sigma, tau, SplitHypothesis(sigma, tau, hall_split_assumed=True))
    assert _cells(split) == [(alt(5), True, "I"), (psl27, False, None),
                             (alt(5), True, "I"), (psl27, True, "I")]
    assert [w.pi_effective for w in split.verdicts] == [frozenset({2}), sigma, tau, tau]


def test_split_rejects_overlap():
    spec = CompositionSpec((alt(5),))
    with pytest.raises(ValueError):
        SplitHypothesis(sigma=frozenset({2, 3}), tau=frozenset({3}),
                        hall_split_assumed=True)
    hyp = SplitHypothesis(sigma=frozenset({2}), tau=frozenset({3}),
                          hall_split_assumed=True)
    with pytest.raises(ValueError):
        wielandt_split(spec, frozenset({2}), frozenset({5}), hyp)  # mismatch
