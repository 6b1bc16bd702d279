"""Decision oracle and verification engine for the Sylow pi-theorem (D_pi)
in finite groups: an arithmetic criterion for simple groups, composition
lifting for composite groups, embedded classification tables, and a
brute-force permutation-group oracle for cross-validation.

The arithmetic side loads no numpy.  The brute-force names (PermGroup,
realize, maximal_pi_subgroups, is_dpi_brute) are looked up in
sylowpi.permbrute on first access, so only a caller that uses them pays
for importing numpy and the engine."""

from .catalog import SimpleGroupId, alt, lie, parse_group, sporadic
from .composition import CompositionSpec, CyclicFactor, decide_dpi_composite, parse_factors
from .criterion import Verdict, decide_dpi_simple

_BRUTE_NAMES = ("PermGroup", "realize", "maximal_pi_subgroups", "is_dpi_brute")

__all__ = [
    "SimpleGroupId", "alt", "lie", "sporadic", "parse_group",
    "CompositionSpec", "CyclicFactor", "decide_dpi_composite", "parse_factors",
    "Verdict", "decide_dpi_simple",
    *_BRUTE_NAMES,
]

__version__ = "1.0.0"


def __getattr__(name: str):
    if name in _BRUTE_NAMES:
        from . import permbrute
        return getattr(permbrute, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
