"""CLI dispatch, exit codes, and JSON report round-trips."""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import time

import pytest

import sylowpi
from sylowpi import catalog, cli, permbrute
from sylowpi.catalog import ORDER_BITS_BOUND
from sylowpi.cli import (
    EXIT_DISAGREE,
    EXIT_ERROR,
    EXIT_FALSE,
    EXIT_TRUE,
    run,
    sweep,
)


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def split_partitions(rows):
    return [split for row in rows for split in row.splits]


def violations(rows):
    return [v for row in rows for v in row.violations]


def patch_everywhere(monkeypatch, orig, replacement):
    """Replace `orig` in every sylowpi module that imported it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("sylowpi"):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, replacement)


def test_check_true_verdict(capsys):
    code, out, _ = run_cli(capsys, "check", "--group", "Spor:M11", "--pi", "5,11")
    assert code == EXIT_TRUE
    assert "Condition II(1)" in out


def test_check_false_verdict(capsys):
    code, out, _ = run_cli(capsys, "check", "--group", "Alt:5", "--pi", "2,3")
    assert code == EXIT_FALSE
    assert "no condition holds" in out


def test_check_on_at_3_5_is_false(capsys):
    # ON has {3, 5}-Hall subgroups (Table 2) but not D_pi there
    code, out, _ = run_cli(capsys, "check", "--group", "Spor:ON", "--pi", "3,5")
    assert code == EXIT_FALSE
    assert "no condition holds" in out


def test_check_factors(capsys):
    code, out, _ = run_cli(capsys, "check", "--factors", "Alt:5,Cyclic:7",
                           "--pi", "2,3,5")
    assert code == EXIT_TRUE
    code, out, _ = run_cli(capsys, "check", "--factors", "Sym:7", "--pi", "2,3")
    assert code == EXIT_FALSE and out.splitlines()[1:] == [
        "  Alt(7): false (no condition holds)",
        "  Cyclic(2): true (cyclic factor (trivially D_pi))"]


def test_check_group_takes_any_spec(capsys):
    # one simple group keeps its witness report; any other spec, Sym:5 or a
    # product, prints the factor trace that --factors prints, under "group"
    for spec, pi, code in [("Sym:5", "2", EXIT_TRUE), ("Alt:5,Cyclic:7", "2,3", EXIT_FALSE)]:
        assert run_cli(capsys, "check", "--group", spec, "--pi", pi) == \
            run_cli(capsys, "check", "--factors", spec, "--pi", pi)
        got, out, _ = run_cli(capsys, "check", "--group", spec, "--pi", pi, "--json")
        report = json.loads(out)
        assert got == code and report["group"] == spec and "factors" not in report
        assert report["trace"][0]["factor"] == "Alt(5)"


def test_check_group_decides_once(capsys, monkeypatch):
    # one simple group's witness report reads the verdict that
    # decide_dpi_composite made: the group is decided once
    orig, calls = sylowpi.decide_dpi_simple, []

    def counting(gid, pi):
        calls.append((gid, pi))
        return orig(gid, pi)

    patch_everywhere(monkeypatch, orig, counting)
    code, out, _ = run_cli(capsys, "check", "--group", "Alt:5", "--pi", "2,3")
    assert code == EXIT_FALSE and "witness: no condition holds" in out
    assert calls == [(catalog.alt(5), frozenset({2, 3}))]


def test_check_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "check", "--group", "Spor:M11",
                           "--pi", "5,11", "--json")
    assert code == EXIT_TRUE
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["dpi"] is True
    assert report["witness"]["condition"] == "II"
    assert report["witness"]["subcase"] == 1
    # idempotent re-rendering
    assert json.loads(json.dumps(report, indent=2, sort_keys=True)) == report


def test_parse_errors_exit_2(capsys):
    # a group spec is a domain error, which run() maps to exit 2
    code, _, err = run_cli(capsys, "check", "--group", "Alt:banana", "--pi", "2")
    assert code == EXIT_ERROR and "error" in err
    # the prime lists and the choice of group are argparse's: usage, exit 2
    for argv, reason in [(["--group", "Alt:5", "--pi", "2,4"], "4 is not prime"),
                         (["--group", "Alt:5", "--pi", "2,2"], "duplicate prime 2"),
                         (["--pi", "2"], "one of the arguments --group --factors is required")]:
        with pytest.raises(SystemExit) as exc:
            run(["check", *argv])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_ERROR and "usage:" in err and reason in err


@pytest.mark.parametrize("command", ["check", "split"])
def test_group_and_factors_together_exit_2(capsys, command):
    # neither flag may be dropped without a word: each names a different group
    primes = ["--pi", "2,3"] if command == "check" else ["--sigma", "2", "--tau", "3"]
    with pytest.raises(SystemExit) as exc:
        run([command, "--group", "Alt:5", "--factors", "Alt:6", *primes])
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_ERROR and out == ""
    assert "argument --factors: not allowed with argument --group" in err


@pytest.mark.parametrize("argv", [["brute", "--pi", "2"], ["crosscheck"]])
def test_brute_and_crosscheck_require_a_group(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_ERROR and out == ""
    assert "the following arguments are required: --group" in err


@pytest.mark.parametrize("argv", [("check", "--factors", "Cyclic:x", "--pi", "2"),
                                  ("check", "--factors", "Alt:5,Cyclic:", "--pi", "2"),
                                  ("brute", "--group", "Sym:x", "--pi", "2"),
                                  ("brute", "--group", "Alt:5,Cyclic:x", "--pi", "2"),
                                  ("check", "--factors", "Sym:x", "--pi", "2")])
def test_unparsable_number_names_the_spec(capsys, argv):
    # parse_factors (check) and the brute-force realization (brute) read the
    # number of a Cyclic: or Sym: spec; the error names the spec it came from
    code, _, err = run_cli(capsys, *argv)
    spec = argv[2].split(",")[-1]
    assert code == EXIT_ERROR and f"cannot parse group spec {spec!r}" in err


@pytest.mark.parametrize("argv, reason", [
    (["brute", "--group", "Alt:7,Alt:5"], "product order 151200 exceeds the bound 10080"),
    (["brute", "--group", "Sym:4"], "Sym(4): a Sym:n term needs n >= 5"),
    (["check", "--group", "Lie:Z:5"], "unknown Lie type 'Z'"),
    (["check", "--group", "Lie:A:2:6"], "q = 6 is not a prime power"),
    (["check", "--group", "Lie:A:1:7"], "A(n,q) requires n >= 2"),
    (["check", "--group", "Lie:B:1:3"], "B(n,q) requires n >= 2"),
    # an empty --factors is still the one given, not a missing --group
    (["check", "--factors", ""], "composition spec needs at least one factor"),
])
def test_domain_refusals_exit_2(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv, "--pi", "2")
    assert code == EXIT_ERROR and out == "" and f"error: {reason}" in err


# each bad term is refused by one reader, so every command that takes a spec
# prints the same error line for it
SPEC_COMMANDS = [("check", "--factors", "{}", "--pi", "2"), ("check", "--group", "{}", "--pi", "2"),
                 ("split", "--group", "{}", "--sigma", "2", "--tau", "3"),
                 ("brute", "--group", "{}", "--pi", "2"), ("crosscheck", "--group", "{}")]


@pytest.mark.parametrize("term, reason", [
    ("Sym:4", "Sym(4): a Sym:n term needs n >= 5"),
    ("Sym:x", "cannot parse group spec 'Sym:x': invalid literal for int() with base 10: 'x'"),
    ("Cyclic:6", "Cyclic(6): a Cyclic:p term needs a prime p"),
    ("Cyclic:x", "cannot parse group spec 'Cyclic:x': invalid literal for int() with base 10: 'x'"),
    (",", "composition spec needs at least one factor"),
    ("Alt:4", "Alt(4): alternating groups are simple only for n >= 5"),
    ("Lie:A:2:6", "q = 6 is not a prime power"),
])
def test_one_refusal_per_term_across_commands(capsys, term, reason):
    for argv in SPEC_COMMANDS:
        code, out, err = run_cli(capsys, *(a.format(term) for a in argv))
        assert (code, out, err) == (EXIT_ERROR, "", f"error: {reason}\n"), argv


def test_check_alternating_without_its_order(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorial({n}) computed")

    monkeypatch.setattr(math, "factorial", refuse)
    code, out, _ = run_cli(capsys, "check", "--group", "Alt:1000000", "--pi", "2")
    assert code == EXIT_TRUE
    assert "Condition I" in out


@pytest.mark.parametrize("group, pi", [
    # 3^71 - 1 = 2 * P with P a 34-digit prime: the Condition III path
    (f"Lie:A:2:{3 ** 71}", "2,3"),
    # the torus orders of 2F4(2^81) reach 10^48: the Condition VI path
    (f"Lie:2F4:{2 ** 81}", "3,5"),
])
def test_check_huge_q_factors_nothing(capsys, group, pi):
    code, out, err = run_cli(capsys, "check", "--group", group, "--pi", pi)
    assert code == EXIT_FALSE, err
    assert "no condition holds" in out


def test_check_huge_torus_keeps_its_witness(capsys):
    # 5 and 29 divide q + 2^60 + 1 for q = 2^119, whose cofactor is beyond
    # the primality bound: the "set" binding is null, the verdict stands
    code, out, err = run_cli(capsys, "check", "--group", f"Lie:2B2:{2 ** 119}",
                             "--pi", "5,29", "--json")
    assert code == EXIT_TRUE, err
    witness = json.loads(out)["witness"]
    assert (witness["condition"], witness["subcase"]) == ("VI", 1)
    assert witness["bindings"]["set"] is None


def test_check_refuses_orders_above_the_bit_bound(capsys):
    # Lie:A:30000:2 has about 9 * 10^8 bits, estimated from the rank and
    # refused before any product is taken
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "check", "--group", "Lie:A:30000:2", "--pi", "3,5")
    assert code == EXIT_ERROR and f"bound of {ORDER_BITS_BOUND} bits" in err
    assert time.perf_counter() - start < 1
    # E8 over q near 10^9, of about 7,400 bits, still gets an answer
    code, _, err = run_cli(capsys, "check", "--group", "Lie:E8:999999937", "--pi", "3,5")
    assert code == EXIT_FALSE, err


def test_check_refuses_a_huge_rank_before_listing_its_degrees(capsys, monkeypatch):
    # Lie:A:3000000:2 would list three million degrees; the bound is checked
    # from the rank first, and nothing is cached for it
    cached = catalog._order_parameters.cache_info().currsize
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "check", "--group", "Lie:A:3000000:2", "--pi", "3,5")
    assert code == EXIT_ERROR and f"bound of {ORDER_BITS_BOUND} bits" in err
    assert time.perf_counter() - start < 1
    assert catalog._order_parameters.cache_info().currsize == cached
    # the estimate is n^2 - 1 bits for A(n-1, 2): 999,999 passes the bound and
    # reaches the degrees, 1,050,624 does not
    def listed(*args):
        raise RuntimeError("degrees listed")

    monkeypatch.setattr(catalog, "_order_parameters", listed)
    with pytest.raises(RuntimeError, match="degrees listed"):
        catalog._lie_order("A", 1000, 2)
    with pytest.raises(ValueError, match="about 1050624 bits"):
        catalog._lie_order("A", 1025, 2)


def test_check_q_of_the_longest_parsed_length(capsys):
    # 10^4299 + 7 has 4,300 digits, the most that int() parses by default;
    # prime_power tries prime exponents only, then refuses it as is_prime does
    q = 10 ** 4299 + 7
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "check", "--group", f"Lie:A:2:{q}", "--pi", "2")
    assert code == EXIT_ERROR and "primality test only deterministic below" in err
    assert time.perf_counter() - start < 6
    # the error names how long q is instead of echoing its digits
    assert "got a number of 14281 bits" in err and len(err) < 300


@pytest.mark.parametrize("argv, code", [
    (["check", "--group", "Spor:M11", "--pi", "5,11"], EXIT_TRUE),
    (["check", "--group", "Alt:5", "--pi", "2,3"], EXIT_FALSE),
    (["check", "--group", "Alt:banana", "--pi", "2"], EXIT_ERROR),
    (["frobnicate"], EXIT_ERROR),
])
def test_process_exit_status(argv, code):
    # main() as a process: the status the shell sees
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "sylowpi.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == code, out.stderr


def test_arithmetic_commands_load_neither_numpy_nor_the_engine():
    """check, split and tables run on the arithmetic modules and the tables
    alone, so a fresh process that runs them imports neither numpy nor
    sylowpi.permbrute, and no module of the package imports dataclasses
    (which loads inspect).  The package's brute-force names are still the
    engine's, looked up on first access."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from sylowpi import cli
        runs = [["check", "--group", "Lie:A:2:7", "--pi", "2,3"],
                ["check", "--factors", "Alt:5,Cyclic:7", "--pi", "2,3,5"],
                ["split", "--factors", "Alt:5,Cyclic:7", "--sigma", "5", "--tau", "7"],
                ["split", "--group", "Alt:5", "--sigma", "2,3", "--tau", "5"],
                ["tables", "--json"]]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.run(argv) for argv in runs]
        loaded = [m for m in ("numpy", "sylowpi.permbrute") if m in sys.modules]
        arith = {m: m in sys.modules for m in ("dataclasses", "inspect")}
        from sylowpi import PermGroup, is_dpi_brute, maximal_pi_subgroups, realize
        from sylowpi import permbrute
        same = [PermGroup is permbrute.PermGroup, realize is permbrute.realize,
                maximal_pi_subgroups is permbrute.maximal_pi_subgroups,
                is_dpi_brute is permbrute.is_dpi_brute]
        engine = "dataclasses" in sys.modules
        print(json.dumps([codes, loaded, arith, same, engine]))
    """)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    codes, loaded, arith, same, engine = json.loads(out.stdout)
    assert codes == [EXIT_FALSE, EXIT_TRUE, EXIT_TRUE, EXIT_FALSE, EXIT_TRUE]
    assert loaded == [] and same == [True] * 4
    assert not arith["dataclasses"]
    assert not arith["inspect"]
    assert not engine  # numpy loads inspect, but not dataclasses
    assert sylowpi.__all__ == [
        "SimpleGroupId", "alt", "lie", "sporadic", "parse_group",
        "CompositionSpec", "CyclicFactor", "decide_dpi_composite", "parse_factors",
        "Verdict", "decide_dpi_simple",
        "PermGroup", "realize", "maximal_pi_subgroups", "is_dpi_brute",
    ]
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        sylowpi.nonexistent


def test_import_loads_no_tables():
    # tables reads Condition II from criterion, never the reverse, so the
    # package and its front end load the tables only when `tables` runs
    script = "import sys, sylowpi, sylowpi.cli; sys.exit('sylowpi.tables' in sys.modules)"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", script], env=env, timeout=60).returncode == 0


def test_brute_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "brute", "--group", "Alt:5", "--pi", "2,3")
    assert code == EXIT_FALSE
    assert "epi = True" in out and "dpi = False" in out
    code, out, _ = run_cli(capsys, "brute", "--group", "Alt:5", "--pi", "5")
    assert code == EXIT_TRUE
    # C2^6: 2825 classes, one maximal
    code, out, _ = run_cli(capsys, "brute", "--group", ",".join(["Cyclic:2"] * 6), "--pi", "2")
    assert code == EXIT_TRUE
    assert out.count("maximal pi-class") == 1 and "order 64, 1 conjugates" in out


def test_brute_json(capsys):
    code, out, _ = run_cli(capsys, "brute", "--group", "Alt:5",
                           "--pi", "2,3", "--json")
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["hall_order"] == 12
    assert report["epi"] is True and report["dpi"] is False
    assert sorted(c["order"] for c in report["maximal_classes"]) == [6, 12]


def test_brute_bound_error(capsys):
    code, _, err = run_cli(capsys, "brute", "--group", "Spor:M12", "--pi", "5,11")
    assert code == EXIT_ERROR
    code, _, err = run_cli(capsys, "brute", "--group", "Lie:A:2:29", "--pi", "2")
    assert code == EXIT_ERROR
    assert "order 12180 exceeds the bound 10080" in err


def test_no_subcommand_takes_max_order(capsys):
    for argv in (["check", "--group", "Alt:5", "--pi", "2"],
                 ["brute", "--group", "Alt:5", "--pi", "2"],
                 ["crosscheck", "--group", "Alt:5"],
                 ["split", "--factors", "Alt:5", "--sigma", "2", "--tau", "5"],
                 ["tables"], ["corpus"]):
        with pytest.raises(SystemExit):
            run(argv + ["--max-order", "50"])


def test_crosscheck(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--group", "Lie:A:2:7")
    assert code == EXIT_TRUE
    assert "8 subsets checked, 0 disagreements" in out
    code, out, _ = run_cli(capsys, "crosscheck", "--group", "Cyclic:3,Cyclic:5")
    assert code == EXIT_TRUE
    assert "4 subsets checked, 0 disagreements" in out


def test_crosscheck_json(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--group", "Alt:5", "--json")
    report = json.loads(out)
    assert report["subsets_checked"] == 8
    assert report["disagreements"] == 0
    assert all(row["agree"] for row in report["rows"])


def test_crosscheck_beyond_the_corpus(capsys):
    # PSL(2,19), order 3420, is realized from its order alone
    code, out, _ = run_cli(capsys, "crosscheck", "--group", "Lie:A:2:19", "--json")
    assert code == EXIT_TRUE
    report = json.loads(out)
    assert report["subsets_checked"] == 16 and report["disagreements"] == 0


@pytest.mark.parametrize("spec, rows", [("Sym:5", 8), ("Sym:6", 8), ("Sym:7", 16),
                                        ("Sym:6,Cyclic:2", 8)])
def test_crosscheck_symmetric_groups(capsys, monkeypatch, spec, rows):
    # the first crosschecked groups that are not direct products of simple
    # groups: the criterion side reads Sym:n as Alt(n) and C2
    results = []

    def recorded_sweep(s):
        results.append(sweep(s))
        return results[-1]

    monkeypatch.setattr(cli, "sweep", recorded_sweep)
    code, out, _ = run_cli(capsys, "crosscheck", "--group", spec, "--json")
    report = json.loads(out)
    assert (code, report["subsets_checked"], report["disagreements"]) == (EXIT_TRUE, rows, 0)
    assert violations(results[0]) == []  # crosscheck's exit code leaves them out
    assert split_partitions(results[0]) == []  # no split hit on these four groups


def test_split(capsys):
    code, out, _ = run_cli(capsys, "split", "--factors", "Alt:5,Cyclic:7",
                           "--sigma", "5", "--tau", "7")
    assert code == EXIT_TRUE
    assert "conditional on the split-Hall hypothesis: H = H_sigma x H_tau" in out
    # sigma's trace and tau's, each under its own heading
    cyclic = "Cyclic(7): true (cyclic factor (trivially D_pi))"
    assert out.splitlines()[2:] == ["  sigma = [5]:", "    Alt(5): true (Condition I)",
                                    f"    {cyclic}", "  tau = [7]:",
                                    "    Alt(5): true (Condition I)", f"    {cyclic}"]
    code, _, _ = run_cli(capsys, "split", "--factors", "Sym:5", "--sigma", "5", "--tau", "2")
    assert code == EXIT_TRUE
    code, _, _ = run_cli(capsys, "split", "--factors", "Alt:5",
                         "--sigma", "2,3", "--tau", "5")
    assert code == EXIT_FALSE
    code, _, err = run_cli(capsys, "split", "--factors", "Alt:5",
                           "--sigma", "2,3", "--tau", "3")
    assert code == EXIT_ERROR  # overlap


def test_tables(capsys):
    code, out, _ = run_cli(capsys, "tables", "--json")
    report = json.loads(out)
    assert report["schema"] == 1
    assert len(report["table2_sporadic_odd"]) == 30
    assert len(report["table3_sporadic_even"]) == 15
    assert {"group", "pi", "structure"} <= set(report["table2_sporadic_odd"][0])


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit):
        run(["frobnicate"])


def test_sweep_builds_one_hall_report_per_pi(monkeypatch):
    orig = permbrute.maximal_pi_subgroups
    calls = []

    def counting(g, pi, *args, **kwargs):
        calls.append(frozenset(pi))
        return orig(g, pi, *args, **kwargs)

    patch_everywhere(monkeypatch, orig, counting)
    rows = sweep("Alt:5")
    assert len(calls) == len(set(calls)) == len(rows) == 8


def test_sweep_checks_split_merge(monkeypatch):
    assert len(split_partitions(sweep("Alt:5,Cyclic:7"))) > 0
    orig = permbrute.maximal_pi_subgroups

    def no_dpi_for_3(g, pi, *args, **kwargs):
        r = orig(g, pi, *args, **kwargs)
        return r._replace(dpi=False) if pi == {3} else r

    # C3 x C5 splits as C3 x C5: a false D_3 must contradict D_{3,5}
    monkeypatch.setattr(permbrute, "maximal_pi_subgroups", no_dpi_for_3)
    rows = sweep("Cyclic:3,Cyclic:5")
    assert len(split_partitions(rows)) == 1
    assert violations(rows) == [("Cyclic:3,Cyclic:5", [3, 5], "split/merge", (3,), (5,))]


def test_sweep_reports_a_final_corollary_violation(monkeypatch):
    # with no nilpotent subgroup, the split C3 x C5 contradicts the corollary
    monkeypatch.setattr(permbrute.PermGroup, "is_nilpotent_set", lambda self, subset: False)
    rows = sweep("Cyclic:3,Cyclic:5")
    assert split_partitions(rows) == [((3,), (5,), False)]
    assert violations(rows) == [("Cyclic:3,Cyclic:5", [3, 5], "final corollary", (3,), (5,))]


def test_sweep_reports_an_unsolvable_hall_subgroup(monkeypatch):
    # PSL(2,7) meets the lemmas' hypothesis at pi = {3, 7} alone
    monkeypatch.setattr(permbrute.PermGroup, "is_solvable_set", lambda self, subset: False)
    rows = sweep("Lie:A:2:7")
    assert violations(rows) == [("Lie:A:2:7", [3, 7], "Hall subgroup not solvable")]


def test_sweep_reports_no_nilpotent_factor(capsys, monkeypatch):
    monkeypatch.setattr(permbrute.PermGroup, "is_nilpotent_set", lambda self, subset: False)
    rows = sweep("Lie:A:2:7")
    partitions = [{"sigma": [3], "tau": [7], "holds": False}]
    assert violations(rows) == [("Lie:A:2:7", [3, 7], "no nilpotent factor", partitions)]
    code, out, _ = run_cli(capsys, "corpus")
    assert code == EXIT_DISAGREE and "3 structural violations" in out


def test_crosscheck_prints_a_disagreement(capsys, monkeypatch):
    decide = cli.decide_dpi_composite

    def flipped(factors, pi):
        # the composite's verdict is read from its factor's, so flip that
        v = decide(factors, pi)
        if pi != {3, 7}:
            return v
        return v._replace(verdicts=tuple(w._replace(dpi=not w.dpi) for w in v.verdicts))

    monkeypatch.setattr(cli, "decide_dpi_composite", flipped)
    code, out, _ = run_cli(capsys, "crosscheck", "--group", "Lie:A:2:7")
    assert code == EXIT_DISAGREE
    assert "1 disagreements" in out and "DISAGREE pi=[3, 7]: brute=True, criterion=False" in out


# the lemma flags are built only where the lemmas' hypothesis holds
@pytest.mark.parametrize("spec, hits", [("Alt:5", 0), ("Lie:A:2:7", 1),
                                        ("Alt:5,Cyclic:7", 3), ("Cyclic:3,Cyclic:5", 0)])
def test_sweep_builds_lemma_flags_once_per_hypothesis_hit(monkeypatch, spec, hits):
    orig = permbrute._structural_flags
    calls = []

    def counting(g, report, *args):
        calls.append(report.pi)
        return orig(g, report, *args)

    monkeypatch.setattr(permbrute, "_structural_flags", counting)
    rows = sweep(spec)
    assert len(calls) == sum(row.report.structural is not None for row in rows) == hits


def test_brute_refuses_a_lattice_past_the_class_cap(capsys, monkeypatch):
    monkeypatch.setattr(permbrute, "_LATTICE_CAP", 2000)
    # the cap is on classes x order: C2^4 has 67 x 16 = 1,072 and C2^5 374 x 32
    code, _, _ = run_cli(capsys, "brute", "--group", ",".join(["Cyclic:2"] * 4), "--pi", "2")
    assert code == EXIT_TRUE
    code, _, err = run_cli(capsys, "brute", "--group", ",".join(["Cyclic:2"] * 5), "--pi", "2")
    assert code == EXIT_ERROR and "more than 63 conjugacy classes" in err  # ceil(2000 / 32)
    # PSL(2,11) has fewer classes than C2^4, but 16 x 660 = 10,560
    code, _, err = run_cli(capsys, "brute", "--group", "Lie:A:2:11", "--pi", "2")
    assert code == EXIT_ERROR and "more than 4 conjugacy classes" in err


# exit code and the first 16 hex digits of the sha256 of stdout, pinned so
# that a refactor of the sweep or the brute-force engine keeps every byte
GOLDEN = [
    ("corpus --json", 0, "10dedcd0bf439e0e"),
    ("corpus", 0, "763cdbcaf1db5257"),
    ("crosscheck --group Alt:5,Cyclic:7 --json", 0, "c58a4a239c3c4361"),
    ("crosscheck --group Lie:A:2:7 --json", 0, "99b323b410d79309"),
    ("crosscheck --group Lie:A:2:7", 0, "9ecab75a9cbb3593"),
    ("crosscheck --group Cyclic:3,Cyclic:5 --json", 0, "59779387e27768e7"),
    # the criterion side reads Sym:5 as its composition factors, Alt(5) and C2
    ("crosscheck --group Sym:5 --json", 0, "fa55f67d4e9ea6e3"),
    ("brute --group Lie:A:2:7 --pi 3,7 --json", 0, "5cc284e1c73c3fa8"),
    ("brute --group Alt:5 --pi 2,3 --json", 1, "ecc4e271170ca32e"),
    ("brute --group Alt:5,Cyclic:7 --pi 2,3,7 --json", 1, "98167540865a3e4e"),
    # neither simple nor a direct product: its structure flags run the
    # derived series and closures
    ("brute --group Sym:5 --pi 2,3 --json", 1, "9d201c50a97f2204"),
    ("check --group Spor:M11 --pi 5,11 --json", 0, "8e84d095f0cbb6bd"),
    ("check --group Spor:M11 --pi 5,11", 0, "5a960f2a6ed09fb3"),
    # a false single-group verdict: V(1)'s boundary n = c*s, no witness
    ("check --group Lie:A:5:16 --pi 3,5 --json", 1, "c203530f8beb53f8"),
    ("check --factors Alt:5,Cyclic:7 --pi 2,3,5 --json", 0, "738a7276687a541f"),
    ("split --factors Alt:5,Cyclic:7 --sigma 5 --tau 7 --json", 0, "7e1d8e7601e96d1a"),
    ("tables --json", 0, "4e74879d30283d40"),
    ("tables", 0, "18d9e6dee7ad3d1e"),
    # Condition VI(1), VI(2) and VI(3) witnesses, one per Suzuki-Ree family.
    ("check --group Lie:2B2:128 --pi 5,29 --json", 0, "2a99073d1866ebb5"),
    ("check --group Lie:2G2:243 --pi 7,31 --json", 0, "0282479f6d8e4978"),
    ("check --group Lie:2F4:8 --pi 5,13 --json", 0, "c6d49f95e50e9c92"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN)
def test_golden_output(capsys, command, code, digest):
    got, out, _ = run_cli(capsys, *command.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest)


# The CLI contract, one row per check: (command, exit code, text that stdout
# or stderr must contain, time limit in seconds or None).  A check that a
# test above already runs with the same arguments is not repeated here:
# GOLDEN holds `check --group Spor:M11 --pi 5,11`, `corpus --json`, `brute
# --group Lie:A:2:7 --pi 3,7 --json`, `brute --group Sym:5 --pi 2,3 --json`,
# `crosscheck --group Cyclic:3,Cyclic:5 --json`, `tables --json` and
# `tables`; test_check_on_at_3_5_is_false, test_brute_bound_error (M12),
# test_split, test_domain_refusals_exit_2 (Sym:4),
# test_brute_and_crosscheck_require_a_group and test_parse_errors_exit_2
# (`--pi 2,4`) hold the rest.  The C2^7, C2^8 and C2^13 brute-force runs at
# the real class cap stay with CI: 1.5-4.8 s each, a 312 MB peak in process.
CONTRACT = [
    # {5, 31} is one of ON's Condition II rows
    ("check --group Spor:ON --pi 5,31", 0, "", None),
    ("crosscheck --group Alt:5,Cyclic:7", 0, "", None),
    # a product whose second factor is the larger: its table, inverses and
    # element orders come from the factors'
    ("crosscheck --group Cyclic:2,Lie:A:2:7", 0, "", None),
    # no order bound on the lattice: PSL(2,16), order 4080, where V(1) fires
    ("crosscheck --group Lie:A:2:16", 0, "", None),
    # PSL(3,2) on the 7 points of PG(2,2), where IV(1) fires at {3, 7};
    # PSL(3,4), order 20160, is refused by its order
    ("crosscheck --group Lie:A:3:2", 0, "", None),
    ("brute --group Lie:A:3:4 --pi 3,7", 2, "", None),
    # M11 on 11 points, where II(1) fires at {5, 11}; at {2, 3} it has Hall
    # subgroups but not D_pi
    ("crosscheck --group Spor:M11", 0, "", None),
    ("brute --group Spor:M11 --pi 2,3", 1, "", None),
    # Sym(7) is crosschecked from its composition factors, Alt(7) and C2
    ("crosscheck --group Sym:7", 0, "", None),
    # --group reads one grammar on every command: Sym(7) is Alt(7), false at
    # {2, 3}, and C2
    ("check --group Sym:7 --pi 2,3", 1, "", None),
    # a refusal names the id as it prints: A(2,2) = PSL(2,2)
    ("check --group Lie:A:2:2 --pi 2,3", 2, "error: A(2,2) is not simple", None),
    # sigma and tau must be disjoint: SplitHypothesis refuses an overlap
    ("split --factors Alt:5,Cyclic:7 --sigma 5 --tau 5,7", 2, "", None),
    # Conditions V and VII read tables of subcases: 2D(4,16) at {3, 5} is V(8)
    # and A(2,19) at {2, 5} is VII(1); A(5,16) at {3, 5} sits on V(1)'s
    # boundary n = c*s, where no condition holds
    ("check --group Lie:2D:4:16 --pi 3,5", 0, "witness: Condition V(8)", None),
    ("check --group Lie:A:2:19 --pi 2,5", 0, "witness: Condition VII(1)", None),
    ("check --group Lie:A:5:16 --pi 3,5", 1, "", None),
    # decisions read the order's factors and never build |G| (999,999 bits
    # for PSL(1000, 2)); both answer no well within 10 s
    ("check --group Lie:A:1000:2 --pi 2,3", 1, "", 10),
    ("check --group Lie:A:700:3 --pi 2,3,7", 1, "", 10),
    # pi(Sz(8)) = {2, 5, 7, 13} holds no 3; with 2, 3 and p in pi the order
    # of E8(11466271) is stripped
    ("check --group Lie:2B2:8 --pi 2,5,7,13", 0, "", None),
    ("check --group Lie:E8:11466271 --pi 2,3,11466271", 1, "", None),
    # an argument error is argparse's: usage and exit 2
    ("check --group Alt:5 --factors Alt:6 --pi 2", 2, "", None),
    # ids below a type's least rank or naming a non-simple group
    ("check --group Lie:2D:3:7 --pi 2,3", 2, "", None),
    ("check --group Lie:G2:2 --pi 2,3", 2, "", None),
]


@pytest.mark.parametrize("command, code, text, limit", CONTRACT,
                         ids=[row[0] for row in CONTRACT])
def test_cli_contract(capsys, command, code, text, limit):
    start = time.perf_counter()
    try:
        got = run(command.split())
    except SystemExit as exc:  # argparse's refusals
        got = exc.code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert got == code, err
    assert text in out + err
    assert limit is None or elapsed < limit
