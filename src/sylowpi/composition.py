"""Lifting D_pi from composition factors to composite groups.

D_pi passes through normal subgroups and quotients, so for a group given
by its composition-factor multiset the verdict is the conjunction over the
factors (cyclic factors pass trivially).  The sigma/tau split, D_(sigma u
tau) as D_sigma and D_tau, additionally needs the split-Hall hypothesis
H = H_sigma x H_tau, which is not decidable from a factor multiset: it is
asserted, never verified here, so a split verdict is always labeled
conditional.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import is_prime
from .catalog import SimpleGroupId, alt, parse_group, spec_number
from .criterion import Verdict, decide_dpi_simple


class CyclicFactor(NamedTuple):
    p: int

    def __str__(self) -> str:
        return f"Cyclic({self.p})"


Factor = SimpleGroupId | CyclicFactor


class CompositionSpec:
    def __init__(self, factors: tuple[Factor, ...]):
        if not factors:
            raise ValueError("composition spec needs at least one factor")
        for f in factors:
            if isinstance(f, CyclicFactor) and not is_prime(f.p):
                raise ValueError(f"cyclic factor order {f.p} is not prime")
        self.factors = factors


class SplitHypothesis:
    def __init__(self, sigma: frozenset[int], tau: frozenset[int], hall_split_assumed: bool):
        if sigma & tau:
            raise ValueError(f"sigma and tau overlap: {sorted(sigma & tau)}")
        self.sigma, self.tau, self.hall_split_assumed = sigma, tau, hall_split_assumed


class CompositeVerdict(NamedTuple):
    dpi: bool
    pi: frozenset[int]
    trace: list[tuple[str, bool, str]]  # (factor, dpi, witness text)
    conditional: bool = False
    condition_note: str = ""


def parse_factors(text: str) -> CompositionSpec:
    """Parse a factor list like "Alt:5,Cyclic:7,Sym:6"; Sym:n gives Alt(n) and C2."""
    factors: list[Factor] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.startswith("Cyclic:"):
            factors.append(CyclicFactor(spec_number(chunk)))
        elif chunk.startswith("Sym:"):
            factors += [alt(spec_number(chunk)), CyclicFactor(2)]
        else:
            factors.append(parse_group(chunk))
    return CompositionSpec(tuple(factors))


def decide_dpi_composite(spec: CompositionSpec, pi: frozenset[int]) -> CompositeVerdict:
    """D_pi for a group with the given composition factors."""
    trace = []
    dpi = True
    for f in spec.factors:
        if isinstance(f, CyclicFactor):
            trace.append((str(f), True, "cyclic factor (trivially D_pi)"))
            continue
        v: Verdict = decide_dpi_simple(f, pi)
        trace.append((str(f), v.dpi, v.witness_text()))
        dpi = dpi and v.dpi
    return CompositeVerdict(dpi, pi, trace)


def wielandt_split(spec: CompositionSpec, sigma: frozenset[int],
                   tau: frozenset[int], hyp: SplitHypothesis) -> CompositeVerdict:
    """D_(sigma u tau) as the conjunction of D_sigma and D_tau, valid under
    the split-Hall hypothesis H = H_sigma x H_tau."""
    if hyp.sigma != sigma or hyp.tau != tau:
        raise ValueError("hypothesis does not match the requested split")
    left, right = decide_dpi_composite(spec, sigma), decide_dpi_composite(spec, tau)
    return CompositeVerdict(left.dpi and right.dpi, sigma | tau, left.trace + right.trace,
                            conditional=True,
                            condition_note=("conditional on the split-Hall hypothesis: "
                                            "H = H_sigma x H_tau (asserted, not verified)"))
