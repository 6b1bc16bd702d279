"""Command-line front end.

Subcommands:
  check      arithmetic D_pi verdict for a simple group or a factor list
  brute      definitional D_pi / E_pi on a realized permutation group
  crosscheck sweep all pi within pi(G), compare criterion vs brute force
  split      sigma/tau split verdict under the split-Hall hypothesis
  tables     dump the embedded classification tables
  corpus     run the full cross-validation + structural sweep

Exit codes: 0 = success / true verdict, 1 = false verdict, 2 = error,
3 = a criterion-vs-brute disagreement (crosscheck, corpus) or a structural
violation (corpus).  --json emits a versioned report (schema 1).
An argument error (a missing or unknown flag, both or neither of --group
and --factors, a prime list that is not a set of primes) is argparse's:
its usage line and the reason on stderr, exit 2.  A domain error (a group
spec that does not parse or names no group, a bound, a group that the
engine will not realize or whose subgroup lattice passes the engine's cap)
is "error: ..." on stderr, exit 2.  Every --group and --factors is read by
composition's one spec reader, so a term is refused alike on every command;
check --group gives one simple group's witness, any other spec its trace.

Only brute, crosscheck and corpus import the brute-force engine, and numpy
with it, and they do so when they run; check and split load the arithmetic
modules alone, and tables the embedded tables.  No module of the package
imports dataclasses, which would load inspect, ast and dis into every
process: every report is a NamedTuple.  brute --json takes its keys from
the HallReport fields, so a field added to that record appears in the JSON,
where the goldens catch it; check --json names its four keys.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import TYPE_CHECKING, NamedTuple

from .arith import prime_divisors, prime_set
from .composition import (CompositeVerdict, SplitHypothesis, decide_dpi_composite,
                          parse_factors, wielandt_split)
from .criterion import Verdict

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
        return prime_set(x for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps({"schema": 1, **report}, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


def _trace_lines(trace, indent: str = "  ") -> list[str]:
    return [f"{indent}{f}: {'true' if d else 'false'} ({w})" for f, d, w in trace]


def _emit_composite(args, cv: CompositeVerdict, report: dict, lines: list[str]) -> int:
    """Emit a factor-list verdict and its JSON trace; return its exit code."""
    report["dpi"] = cv.dpi
    report["trace"] = [{"factor": f, "dpi": d, "witness": w} for f, d, w in cv.trace]
    _emit(report, args.json, lines)
    return EXIT_TRUE if cv.dpi else EXIT_FALSE


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
    pi, key = args.pi, "group" if args.factors is None else "factors"
    spec = parse_factors(getattr(args, key))
    cv = decide_dpi_composite(spec, pi)
    if key == "group" and len(spec.factors) == len(cv.verdicts) == 1:  # one simple group
        v = cv.verdicts[0]
        report = {"command": "check", "pi": sorted(pi), **_verdict_report(v)}
        _emit(report, args.json, [f"D_pi = {v.dpi} for {v.group}, pi = {sorted(pi)}",
                                  f"  witness: {v.witness_text()}"])
        return EXIT_TRUE if v.dpi else EXIT_FALSE
    report = {"command": "check", key: getattr(args, key), "pi": sorted(pi)}
    lines = [f"D_pi = {cv.dpi} for factors [{report[key]}], pi = {sorted(pi)}",
             *_trace_lines(cv.trace)]
    return _emit_composite(args, cv, report, lines)


def _hall_report_dict(r: HallReport) -> dict:
    """brute's keys: HallReport's fields, with the prime sets as sorted lists
    and each maximal class as its order and size."""
    return {
        **r._asdict(),
        "pi": sorted(r.pi),
        "pi_effective": sorted(r.pi_effective),
        "maximal_classes": [
            {"order": c.order, "class_size": c.class_size}
            for c in r.maximal_classes
        ],
    }


def _cmd_brute(args) -> int:
    from .permbrute import maximal_pi_subgroups, realize

    pi = args.pi
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


class SweepRow(NamedTuple):
    """One pi of a sweep.  `splits` has one (sigma, tau, corollary) per
    two-part partition of pi where a pi-Hall subgroup splits, sigma and tau
    sorted tuples, corollary None unless D_sigma and D_tau hold; each
    violation is (spec, pi, lemma, ...), one per failed structural lemma."""

    report: HallReport
    criterion: CompositeVerdict
    splits: list[tuple]
    violations: list[tuple]

    @property
    def agree(self) -> bool:
        return self.report.dpi == self.criterion.dpi


def sweep(spec: str) -> list[SweepRow]:
    """Criterion vs brute force on every pi within pi(G), plus the
    structural lemmas: one row per pi, every subset of pi before pi.

    `spec` is a simple group, Sym:n or a direct product such as "Sym:6,Cyclic:2";
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
    rows = {}  # every subset of pi comes before pi
    for k in range(len(spectrum) + 1):
        for combo in itertools.combinations(sorted(spectrum), k):
            pi = frozenset(combo)
            hypothesis = k >= 2 and not spectrum <= pi and not {2, 3} <= pi
            r = maximal_pi_subgroups(g, pi, with_structure=hypothesis)
            row = rows[pi] = SweepRow(r, decide_dpi_composite(factors, pi), [], [])
            if r.structural is not None:
                partitions = r.structural["nilpotent_factor_per_partition"]
                if not r.structural["hall_solvable"]:
                    row.violations.append((spec, sorted(pi), "Hall subgroup not solvable"))
                if not all(p["holds"] for p in partitions):
                    row.violations.append((spec, sorted(pi), "no nilpotent factor", partitions))
            for sigma, tau in _two_part_partitions(pi):
                splits = [s for c in r.hall_classes if (s := split_hall(g, c.rep, sigma, tau))]
                if not splits:
                    continue  # neither the theorem nor the corollary applies
                parts = tuple(sorted(sigma)), tuple(sorted(tau))
                merged = rows[sigma].report.dpi and rows[tau].report.dpi
                if r.dpi != merged:
                    row.violations.append((spec, sorted(pi), "split/merge", *parts))
                corollary = check_final_corollary(g, splits) if merged else None
                if corollary is False:
                    row.violations.append((spec, sorted(pi), "final corollary", *parts))
                row.splits.append((*parts, corollary))
    return list(rows.values())


def _cmd_crosscheck(args) -> int:
    rows = sweep(args.group)
    disagreements = sum(not row.agree for row in rows)
    report = {"command": "crosscheck", "group": args.group,
              "subsets_checked": len(rows), "disagreements": disagreements,
              "rows": [{"pi": sorted(row.report.pi), "brute": row.report.dpi,
                        "criterion": row.criterion.dpi, "agree": row.agree} for row in rows]}
    lines = [f"{args.group}: {len(rows)} subsets checked, {disagreements} disagreements"]
    lines += [f"  DISAGREE pi={r['pi']}: brute={r['brute']}, criterion={r['criterion']}"
              for r in report["rows"] if not r["agree"]]
    _emit(report, args.json, lines)
    return EXIT_TRUE if disagreements == 0 else EXIT_DISAGREE


def _cmd_split(args) -> int:
    sigma, tau = args.sigma, args.tau
    spec = parse_factors(args.group if args.factors is None else args.factors)
    cv = wielandt_split(spec, sigma, tau, SplitHypothesis(sigma, tau, hall_split_assumed=True))
    report = {"command": "split", "sigma": sorted(sigma), "tau": sorted(tau),
              "conditional": cv.conditional, "condition_note": cv.condition_note}
    lines = [f"D_(sigma u tau) = {cv.dpi} for sigma = {sorted(sigma)}, tau = {sorted(tau)}",
             f"  {cv.condition_note}", f"  sigma = {sorted(sigma)}:",
             *_trace_lines(cv.trace[:len(spec.factors)], "    "), f"  tau = {sorted(tau)}:",
             *_trace_lines(cv.trace[len(spec.factors):], "    ")]  # sigma's trace, then tau's
    return _emit_composite(args, cv, report, lines)


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
    per_group = [{"group": spec, "subsets": len(rows),
                  "disagreements": sum(not row.agree for row in rows)}
                 for spec, rows in zip(CORPUS_SIMPLE, results)]
    total_rows = sum(pg["subsets"] for pg in per_group)
    total_disagreements = sum(pg["disagreements"] for pg in per_group)
    structural_violations = sum(len(row.violations) for rows in results for row in rows)
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
    group_help = "group spec, e.g. Alt:5, Spor:M11, Lie:A:2:7"

    def add(name, handler, help, group=False, factors=False, primes=()):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if factors:
            one = p.add_mutually_exclusive_group(required=True)
            one.add_argument("--group", help=group_help)
            one.add_argument("--factors", help="composition factors, e.g. 'Alt:5,Cyclic:7'")
        elif group:
            p.add_argument("--group", required=True, help=group_help)
        for flag in primes:
            p.add_argument(f"--{flag}", required=True, type=_parse_pi,
                           help="comma-separated primes")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    add("check", _cmd_check, "arithmetic D_pi verdict", factors=True, primes=["pi"])
    add("brute", _cmd_brute, "brute-force D_pi / E_pi", group=True, primes=["pi"])
    add("crosscheck", _cmd_crosscheck, "criterion vs brute sweep", group=True)
    add("split", _cmd_split, "sigma/tau split verdict", factors=True,
        primes=["sigma", "tau"])
    add("tables", _cmd_tables, "dump embedded tables")
    add("corpus", _cmd_corpus, "full cross-validation sweep")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
