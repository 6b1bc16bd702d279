"""Lifting D_pi from composition factors to composite groups.

D_pi passes through normal subgroups and quotients, so for a group given
by its composition-factor multiset the verdict is the conjunction over the
factors (cyclic factors pass trivially).  The sigma/tau split, D_(sigma u
tau) as D_sigma and D_tau, additionally needs the split-Hall hypothesis
H = H_sigma x H_tau, which is not decidable from a factor multiset: it is
asserted, never verified here, so a split verdict is always labeled
conditional.

The group-spec grammar is read here alone: `spec_terms` splits a spec into
terms and `read_term` reads one as a simple group (`parse_group`), Cyclic:p
(p prime) or Sym:n (n >= 5), the same way for every command.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import is_prime
from .catalog import SimpleGroupId, alt, parse_group
from .criterion import Verdict, decide_dpi_simple


class CyclicFactor(NamedTuple):
    p: int

    def __str__(self) -> str:
        return f"Cyclic({self.p})"


class Sym(NamedTuple):
    """A Sym:n term; a factor list reads it as Alt(n) and C2."""
    n: int

    def __str__(self) -> str:
        return f"Sym({self.n})"


Factor = SimpleGroupId | CyclicFactor
Term = Factor | Sym


class CompositionSpec(NamedTuple):
    factors: tuple[Factor, ...]


class SplitHypothesis:
    def __init__(self, sigma: frozenset[int], tau: frozenset[int], hall_split_assumed: bool):
        if sigma & tau:
            raise ValueError(f"sigma and tau overlap: {sorted(sigma & tau)}")
        self.sigma, self.tau, self.hall_split_assumed = sigma, tau, hall_split_assumed


class CompositeVerdict(NamedTuple):
    """D_pi for a factor list, kept as what decided it: `factors` in order
    (for a split, sigma's pass over the factors, then tau's) and `verdicts`,
    the simple factors' Verdicts in that order.  The verdict, the trace and
    the note are read from these."""

    pi: frozenset[int]
    factors: tuple[Factor, ...]
    verdicts: tuple[Verdict, ...]
    conditional: bool = False

    @property
    def dpi(self) -> bool:
        return all(v.dpi for v in self.verdicts)  # a cyclic factor has D_pi

    @property
    def trace(self) -> list[tuple[str, bool, str]]:
        """(factor, dpi, witness text), one per factor."""
        verdicts = iter(self.verdicts)
        return [(str(f), True, "cyclic factor (trivially D_pi)") if isinstance(f, CyclicFactor)
                else (str(f), (v := next(verdicts)).dpi, v.witness_text()) for f in self.factors]

    @property
    def condition_note(self) -> str:
        return ("conditional on the split-Hall hypothesis: H = H_sigma x H_tau "
                "(asserted, not verified)") if self.conditional else ""


def spec_terms(spec: str) -> list[str]:
    """The stripped comma-separated terms of a group spec, at least one."""
    if terms := [t.strip() for t in spec.split(",") if t.strip()]:
        return terms
    raise ValueError("composition spec needs at least one factor")


def read_term(term: str) -> Term:
    """One term: Cyclic:p (p prime), Sym:n (n >= 5) or a simple group."""
    kind, _, number = term.partition(":")
    if kind not in ("Cyclic", "Sym"):
        return parse_group(term)
    try:
        n = int(number)
    except ValueError as exc:
        raise ValueError(f"cannot parse group spec {term!r}: {exc}") from None
    if kind == "Cyclic" and not is_prime(n):
        raise ValueError(f"Cyclic({n}): a Cyclic:p term needs a prime p")
    if kind == "Sym" and n < 5:
        raise ValueError(f"Sym({n}): a Sym:n term needs n >= 5")
    return CyclicFactor(n) if kind == "Cyclic" else Sym(n)


def parse_factors(text: str) -> CompositionSpec:
    """The composition factors of a spec like "Alt:5,Cyclic:7,Sym:6"; Sym:n
    gives Alt(n) and C2."""
    factors: list[Factor] = []
    for term in map(read_term, spec_terms(text)):
        factors += [alt(term.n), CyclicFactor(2)] if isinstance(term, Sym) else [term]
    return CompositionSpec(tuple(factors))


def decide_dpi_composite(spec: CompositionSpec, pi: frozenset[int]) -> CompositeVerdict:
    """D_pi for a group with the given composition factors."""
    verdicts = ()
    for f in spec.factors:
        if not isinstance(f, CyclicFactor):
            verdicts += (decide_dpi_simple(f, pi),)
    return CompositeVerdict(pi, spec.factors, verdicts)


def wielandt_split(spec: CompositionSpec, sigma: frozenset[int],
                   tau: frozenset[int], hyp: SplitHypothesis) -> CompositeVerdict:
    """D_(sigma u tau) as the conjunction of D_sigma and D_tau, valid under
    the split-Hall hypothesis H = H_sigma x H_tau."""
    if hyp.sigma != sigma or hyp.tau != tau:
        raise ValueError("hypothesis does not match the requested split")
    left, right = decide_dpi_composite(spec, sigma), decide_dpi_composite(spec, tau)
    return CompositeVerdict(sigma | tau, spec.factors * 2, left.verdicts + right.verdicts,
                            conditional=True)
