"""CLI dispatch, exit codes, and JSON report round-trips."""

import dataclasses
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


def test_check_true_verdict(capsys):
    code, out, _ = run_cli(capsys, "check", "--group", "Spor:M11", "--pi", "5,11")
    assert code == EXIT_TRUE
    assert "Condition II(1)" in out


def test_check_false_verdict(capsys):
    code, out, _ = run_cli(capsys, "check", "--group", "Alt:5", "--pi", "2,3")
    assert code == EXIT_FALSE
    assert "no condition holds" in out


def test_check_factors(capsys):
    code, out, _ = run_cli(capsys, "check", "--factors", "Alt:5,Cyclic:7",
                           "--pi", "2,3,5")
    assert code == EXIT_TRUE


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
    code, _, err = run_cli(capsys, "check", "--group", "Alt:banana", "--pi", "2")
    assert code == EXIT_ERROR and "error" in err
    code, _, err = run_cli(capsys, "check", "--group", "Alt:5", "--pi", "2,4")
    assert code == EXIT_ERROR
    code, _, err = run_cli(capsys, "check", "--group", "Alt:5", "--pi", "2,2")
    assert code == EXIT_ERROR  # duplicates rejected
    code, _, err = run_cli(capsys, "check", "--pi", "2")
    assert code == EXIT_ERROR  # neither --group nor --factors


@pytest.mark.parametrize("command", ["check", "split"])
def test_group_and_factors_together_exit_2(capsys, command):
    # neither flag may be dropped without a word: each names a different group
    primes = ["--pi", "2,3"] if command == "check" else ["--sigma", "2", "--tau", "3"]
    code, out, err = run_cli(capsys, command, "--group", "Alt:5", "--factors", "Alt:6", *primes)
    assert code == EXIT_ERROR and out == ""
    assert "give one of --group / --factors, not both" in err


@pytest.mark.parametrize("argv", [("check", "--factors", "Cyclic:x", "--pi", "2"),
                                  ("check", "--factors", "Alt:5,Cyclic:", "--pi", "2"),
                                  ("brute", "--group", "Sym:x", "--pi", "2"),
                                  ("brute", "--group", "Alt:5,Cyclic:x", "--pi", "2")])
def test_unparsable_number_names_the_spec(capsys, argv):
    # parse_factors (check) and the brute-force realization (brute) read the
    # number of a Cyclic: or Sym: spec; the error names the spec it came from
    code, _, err = run_cli(capsys, *argv)
    spec = argv[2].split(",")[-1]
    assert code == EXIT_ERROR and f"cannot parse group spec {spec!r}" in err


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
    sylowpi.permbrute.  The package's brute-force names are still the
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
        from sylowpi import PermGroup, is_dpi_brute, maximal_pi_subgroups, realize
        from sylowpi import permbrute
        same = [PermGroup is permbrute.PermGroup, realize is permbrute.realize,
                maximal_pi_subgroups is permbrute.maximal_pi_subgroups,
                is_dpi_brute is permbrute.is_dpi_brute]
        print(json.dumps([codes, loaded, same]))
    """)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    codes, loaded, same = json.loads(out.stdout)
    assert codes == [EXIT_FALSE, EXIT_TRUE, EXIT_TRUE, EXIT_FALSE, EXIT_TRUE]
    assert loaded == [] and same == [True] * 4
    assert sylowpi.__all__ == [
        "SimpleGroupId", "alt", "lie", "sporadic", "parse_group",
        "CompositionSpec", "CyclicFactor", "decide_dpi_composite", "parse_factors",
        "Verdict", "decide_dpi_simple",
        "PermGroup", "realize", "maximal_pi_subgroups", "is_dpi_brute",
    ]
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        sylowpi.nonexistent


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
    code, _, err = run_cli(capsys, "brute", "--group", "Spor:M11", "--pi", "2,3")
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


def test_split(capsys):
    code, out, _ = run_cli(capsys, "split", "--factors", "Alt:5,Cyclic:7",
                           "--sigma", "5", "--tau", "7")
    assert code == EXIT_TRUE
    assert "hypothesis (1)" in out
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

    for name, module in list(sys.modules.items()):
        if name.startswith("sylowpi"):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, counting)
    result = sweep("Alt:5")
    assert len(calls) == len(set(calls)) == len(result.rows) == 8


def test_sweep_checks_split_merge(monkeypatch):
    assert sweep("Alt:5,Cyclic:7").split_hits > 0
    orig = permbrute.maximal_pi_subgroups

    def no_dpi_for_3(g, pi, *args, **kwargs):
        r = orig(g, pi, *args, **kwargs)
        return dataclasses.replace(r, dpi=False) if pi == {3} else r

    # C3 x C5 splits as C3 x C5: a false D_3 must contradict D_{3,5}
    monkeypatch.setattr(permbrute, "maximal_pi_subgroups", no_dpi_for_3)
    result = sweep("Cyclic:3,Cyclic:5")
    assert result.split_hits == 1
    assert result.violations == [("Cyclic:3,Cyclic:5", [3, 5], "split/merge", (3,), (5,))]


def test_sweep_reports_a_final_corollary_violation(monkeypatch):
    # with no nilpotent subgroup, the split C3 x C5 contradicts the corollary
    monkeypatch.setattr(permbrute.PermGroup, "is_nilpotent_set", lambda self, subset: False)
    result = sweep("Cyclic:3,Cyclic:5")
    assert result.violations == [("Cyclic:3,Cyclic:5", [3, 5], "final corollary", (3,), (5,))]


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
    result = sweep(spec)
    assert len(calls) == result.hypothesis_hits == hits


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
    ("crosscheck --group Alt:5,Cyclic:7 --json", 0, "c58a4a239c3c4361"),
    ("crosscheck --group Lie:A:2:7 --json", 0, "99b323b410d79309"),
    ("crosscheck --group Cyclic:3,Cyclic:5 --json", 0, "59779387e27768e7"),
    ("brute --group Lie:A:2:7 --pi 3,7 --json", 0, "5cc284e1c73c3fa8"),
    ("brute --group Alt:5 --pi 2,3 --json", 1, "ecc4e271170ca32e"),
    ("brute --group Alt:5,Cyclic:7 --pi 2,3,7 --json", 1, "98167540865a3e4e"),
    ("check --group Spor:M11 --pi 5,11 --json", 0, "8e84d095f0cbb6bd"),
    ("check --factors Alt:5,Cyclic:7 --pi 2,3,5 --json", 0, "738a7276687a541f"),
    ("split --factors Alt:5,Cyclic:7 --sigma 5 --tau 7 --json", 0, "37f258a69722db49"),
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
