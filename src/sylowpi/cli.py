"""Command-line front end.

Subcommands:
  check      arithmetic D_pi verdict for a simple group or a factor list
  brute      definitional D_pi / E_pi on a realized permutation group
  crosscheck sweep all pi within pi(G), compare criterion vs brute force
  split      sigma/tau split verdict under the split-Hall hypothesis
  tables     dump the embedded classification tables
  corpus     run the full cross-validation + structural sweep

Exit codes: 0 = success / true verdict, 1 = false verdict, 2 = error,
3 = crosscheck disagreement.  --json emits a versioned report (schema 1).
brute, crosscheck and corpus exit 2 on a group that the engine will not
realize or whose subgroup lattice passes the engine's cap.

Only brute, crosscheck and corpus import the brute-force engine, and numpy
with it, and they do so when they run; check and split load the arithmetic
modules alone, and tables the embedded tables.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .arith import prime_divisors, prime_set
from .catalog import parse_group
from .composition import SplitHypothesis, decide_dpi_composite, parse_factors, wielandt_split
from .criterion import Verdict, decide_dpi_simple

if TYPE_CHECKING:
    from .permbrute import HallReport

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_DISAGREE = 3

CORPUS_SIMPLE = (
    "Alt:5", "Alt:6",
    "Lie:A:2:4", "Lie:A:2:5", "Lie:A:2:7",
    "Lie:A:2:8", "Lie:A:2:9", "Lie:A:2:11",
)


def _parse_pi(text: str) -> frozenset[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse prime list {text!r}: {exc}") from None
    return prime_set(values)


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        report = {"schema": 1, **report}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _verdict_report(v: Verdict) -> dict:
    witness = None
    if v.witness is not None:
        witness = {
            "condition": v.witness.condition,
            "subcase": v.witness.subcase,
            "bindings": {k: val for k, val in sorted(v.witness.bindings.items())},
        }
    return {
        "group": v.group.spec(),
        "pi_effective": sorted(v.pi_effective),
        "dpi": v.dpi,
        "witness": witness,
    }


def _cmd_check(args) -> int:
    pi = _parse_pi(args.pi)
    if args.factors:
        cv = decide_dpi_composite(parse_factors(args.factors), pi)
        report = {
            "command": "check",
            "factors": args.factors,
            "pi": sorted(pi),
            "dpi": cv.dpi,
            "trace": [{"factor": f, "dpi": d, "witness": w} for f, d, w in cv.trace],
        }
        lines = [f"D_pi = {cv.dpi} for factors [{args.factors}], pi = {sorted(pi)}"]
        lines += [f"  {f}: {'true' if d else 'false'} ({w})" for f, d, w in cv.trace]
        _emit(report, args.json, lines)
        return EXIT_TRUE if cv.dpi else EXIT_FALSE
    gid = parse_group(args.group)
    v = decide_dpi_simple(gid, pi)
    report = {"command": "check", "pi": sorted(pi), **_verdict_report(v)}
    lines = [f"D_pi = {v.dpi} for {gid}, pi = {sorted(pi)}",
             f"  witness: {v.witness_text()}"]
    _emit(report, args.json, lines)
    return EXIT_TRUE if v.dpi else EXIT_FALSE


def _hall_report_dict(r: HallReport) -> dict:
    structural = None
    if r.structural is not None:
        structural = {
            "hall_solvable": r.structural["hall_solvable"],
            "nilpotent_factor_per_partition": [
                {"sigma": list(s), "tau": list(t), "holds": ok}
                for (s, t), ok in sorted(r.structural["nilpotent_factor_per_partition"].items())
            ],
        }
    return {
        "pi": sorted(r.pi),
        "pi_effective": sorted(r.pi_effective),
        "hall_order": r.hall_order,
        "epi": r.epi,
        "dpi": r.dpi,
        "maximal_classes": [
            {"order": c.order, "class_size": c.class_size}
            for c in r.maximal_classes
        ],
        "structural": structural,
    }


def _cmd_brute(args) -> int:
    from .permbrute import maximal_pi_subgroups, realize

    pi = _parse_pi(args.pi)
    g = realize(args.group)
    r = maximal_pi_subgroups(g, pi)
    report = {"command": "brute", "group": args.group, **_hall_report_dict(r)}
    lines = [f"{g.name}: pi = {sorted(pi)}, hall_order = {r.hall_order}",
             f"  epi = {r.epi}, dpi = {r.dpi}"]
    for c in r.maximal_classes:
        lines.append(f"  maximal pi-class: order {c.order}, {c.class_size} conjugates")
    if r.structural is not None:
        lines.append(f"  hall_solvable = {r.structural['hall_solvable']}")
    _emit(report, args.json, lines)
    return EXIT_TRUE if r.dpi else EXIT_FALSE


@dataclass
class SweepResult:
    """One row per pi; one violation tuple (spec, pi, lemma, ...) per failed
    structural lemma; hit counts of the cases where the lemmas applied."""
    rows: list[dict] = field(default_factory=list)
    disagreements: int = 0
    violations: list[tuple] = field(default_factory=list)
    hypothesis_hits: int = 0
    corollary_hits: int = 0
    split_hits: int = 0


def sweep(spec: str) -> SweepResult:
    """Criterion vs brute force on every pi within pi(G), plus the
    structural lemmas.

    `spec` is a simple group or a direct product such as "Alt:5,Cyclic:7";
    the criterion side decides it from its composition factors.  The lemma
    flags are built only where the lemmas' hypothesis holds: a pi-Hall
    subgroup exists, |pi| >= 2, pi(G) is not inside pi and {2, 3} is not
    inside pi.  Wherever a pi-Hall subgroup splits as sigma-part x tau-part,
    D_pi = D_sigma and D_tau (the split/merge theorem), and where D_sigma
    and D_tau hold the final corollary is checked on those same splits.
    Both are symmetric in sigma and tau, so each unordered two-part
    partition is checked once, and each Hall class is split once for it.
    """
    from .permbrute import (_two_part_partitions, check_final_corollary,
                            maximal_pi_subgroups, realize, split_hall)

    factors = parse_factors(spec)
    g = realize(spec)
    spectrum = prime_divisors(g.order)
    out = SweepResult()
    reports = {}  # every subset of pi comes before pi
    for k in range(len(spectrum) + 1):
        for combo in itertools.combinations(sorted(spectrum), k):
            pi = frozenset(combo)
            hypothesis = k >= 2 and not spectrum <= pi and not {2, 3} <= pi
            r = reports[pi] = maximal_pi_subgroups(g, pi, with_structure=hypothesis)
            crit = decide_dpi_composite(factors, pi).dpi
            out.rows.append({"pi": sorted(pi), "brute": r.dpi, "criterion": crit,
                             "agree": r.dpi == crit})
            out.disagreements += r.dpi != crit
            if r.structural is not None:
                out.hypothesis_hits += 1
                partitions = r.structural["nilpotent_factor_per_partition"]
                if not r.structural["hall_solvable"]:
                    out.violations.append((spec, sorted(pi), "Hall subgroup not solvable"))
                if not all(partitions.values()):
                    out.violations.append((spec, sorted(pi), "no nilpotent factor", partitions))
            for sigma, tau in _two_part_partitions(pi):
                splits = [s for c in r.hall_classes if (s := split_hall(g, c.rep, sigma, tau))]
                if not splits:
                    continue  # neither the theorem nor the corollary applies
                out.split_hits += 1
                parts = tuple(sorted(sigma)), tuple(sorted(tau))
                merged = reports[sigma].dpi and reports[tau].dpi
                if r.dpi != merged:
                    out.violations.append((spec, sorted(pi), "split/merge", *parts))
                if merged:
                    holds = check_final_corollary(g, splits)
                    out.corollary_hits += holds
                    if not holds:
                        out.violations.append((spec, sorted(pi), "final corollary", *parts))
    return out


def _cmd_crosscheck(args) -> int:
    result = sweep(args.group)
    rows, disagreements = result.rows, result.disagreements
    report = {"command": "crosscheck", "group": args.group,
              "subsets_checked": len(rows), "disagreements": disagreements,
              "rows": rows}
    lines = [f"{args.group}: {len(rows)} subsets checked, "
             f"{disagreements} disagreements"]
    for row in rows:
        if not row["agree"]:
            lines.append(f"  DISAGREE pi={row['pi']}: brute={row['brute']}, "
                         f"criterion={row['criterion']}")
    _emit(report, args.json, lines)
    return EXIT_TRUE if disagreements == 0 else EXIT_DISAGREE


def _cmd_split(args) -> int:
    sigma = _parse_pi(args.sigma)
    tau = _parse_pi(args.tau)
    spec = parse_factors(args.factors if args.factors else args.group)
    hyp = SplitHypothesis(sigma=sigma, tau=tau, hall_split_assumed=True)
    cv = wielandt_split(spec, sigma, tau, hyp)
    report = {
        "command": "split",
        "sigma": sorted(sigma),
        "tau": sorted(tau),
        "dpi": cv.dpi,
        "conditional": cv.conditional,
        "condition_note": cv.condition_note,
        "trace": [{"factor": f, "dpi": d, "witness": w} for f, d, w in cv.trace],
    }
    lines = [f"D_(sigma u tau) = {cv.dpi} for sigma = {sorted(sigma)}, "
             f"tau = {sorted(tau)}"]
    if cv.conditional:
        lines.append(f"  {cv.condition_note}")
    lines += [f"  {f}: {'true' if d else 'false'} ({w})" for f, d, w in cv.trace]
    _emit(report, args.json, lines)
    return EXIT_TRUE if cv.dpi else EXIT_FALSE


def _cmd_tables(args) -> int:
    from .tables import dump_tables

    data = dump_tables()
    lines = []
    for key, rows in data.items():
        lines.append(f"{key}: {len(rows)} rows")
        for row in rows:
            lines.append(f"  {row['group']}: pi={row['pi']}  {row['structure']}")
    _emit({"command": "tables", **data}, args.json, lines)
    return EXIT_TRUE


def _cmd_corpus(args) -> int:
    """Criterion-vs-brute sweep plus the structural lemma sweep."""
    results = [sweep(spec) for spec in CORPUS_SIMPLE]
    per_group = [{"group": spec, "subsets": len(r.rows), "disagreements": r.disagreements}
                 for spec, r in zip(CORPUS_SIMPLE, results)]
    total_rows = sum(len(r.rows) for r in results)
    total_disagreements = sum(r.disagreements for r in results)
    structural_violations = sum(len(r.violations) for r in results)
    report = {
        "command": "corpus",
        "groups": per_group,
        "subsets_checked": total_rows,
        "disagreements": total_disagreements,
        "structural_violations": structural_violations,
    }
    lines = [f"{len(CORPUS_SIMPLE)} groups, {total_rows} subsets checked, "
             f"{total_disagreements} disagreements, "
             f"{structural_violations} structural violations"]
    lines += [f"  {pg['group']}: {pg['subsets']} subsets, "
              f"{pg['disagreements']} disagreements" for pg in per_group]
    _emit(report, args.json, lines)
    ok = total_disagreements == 0 and structural_violations == 0
    return EXIT_TRUE if ok else EXIT_DISAGREE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sylowpi",
        description="Decide and verify the Sylow pi-theorem (D_pi) for finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, group=False, factors=False, pi=False, sigma_tau=False):
        if group:
            p.add_argument("--group", help="group spec, e.g. Alt:5, Spor:M11, Lie:A:2:7")
        if factors:
            p.add_argument("--factors", help="composition factors, e.g. 'Alt:5,Cyclic:7'")
        if pi:
            p.add_argument("--pi", required=True, help="comma-separated primes")
        if sigma_tau:
            p.add_argument("--sigma", required=True, help="comma-separated primes")
            p.add_argument("--tau", required=True, help="comma-separated primes")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    add_common(sub.add_parser("check", help="arithmetic D_pi verdict"),
               group=True, factors=True, pi=True)
    add_common(sub.add_parser("brute", help="brute-force D_pi / E_pi"),
               group=True, pi=True)
    add_common(sub.add_parser("crosscheck", help="criterion vs brute sweep"),
               group=True)
    add_common(sub.add_parser("split", help="sigma/tau split verdict"),
               group=True, factors=True, sigma_tau=True)
    add_common(sub.add_parser("tables", help="dump embedded tables"))
    add_common(sub.add_parser("corpus", help="full cross-validation sweep"))
    return parser


_HANDLERS = {
    "check": _cmd_check,
    "brute": _cmd_brute,
    "crosscheck": _cmd_crosscheck,
    "split": _cmd_split,
    "tables": _cmd_tables,
    "corpus": _cmd_corpus,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("check", "split") and bool(args.group) == bool(args.factors):
        print("error: give one of --group / --factors, not both" if args.group
              else "error: one of --group / --factors is required", file=sys.stderr)
        return EXIT_ERROR
    if args.command in ("brute", "crosscheck") and not getattr(args, "group", None):
        print("error: --group is required", file=sys.stderr)
        return EXIT_ERROR
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
