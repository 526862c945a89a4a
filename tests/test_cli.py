import gc
import json
import os

import pytest

from hgreen.cli import main
from hgreen.greens import MAX_DIGITS
from hgreen.mforms import MAX_K


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_factor_161(capsys):
    code, doc = run_cli(capsys, "factor", "--k", "4", "--d1", "-7", "--d2", "-23",
                        "--pp", "1=1")
    assert code == 0
    assert doc["kappa"] == 1
    exps = {(e["p"], e["e_num"], e["e_den"]) for e in doc["exponents"]}
    assert exps == {(5, 2878, 1), (17, 3580, 1), (19, 2628, 1)}


def test_main_leaves_what_it_starts_with_to_no_collection(capsys):
    gc.unfreeze()
    marker = [[]]
    assert any(o is marker for o in gc.get_objects())
    assert main(["factor", "--k", "4", "--d1", "-7", "--d2", "-23", "--pp", "1=1"]) == 0
    assert not any(o is marker for o in gc.get_objects())


def test_factor_idempotent(capsys):
    code1, doc1 = run_cli(capsys, "factor", "--k", "4", "--d1", "-7", "--d2", "-23",
                          "--pp", "1=1")
    code2, doc2 = run_cli(capsys, "factor", "--k", "4", "--d1", "-7", "--d2", "-23",
                          "--pp", "1=1")
    assert doc1 == doc2


def test_verify_non_coprime_is_invalid(capsys):
    code = main(["verify", "--k", "4", "--d1", "-7", "--d2", "-7", "--pp", "1=1"])
    assert code == 2


def test_verify_obstructed_is_invalid(capsys):
    code = main(["verify", "--k", "12", "--d1", "-4", "--d2", "-7", "--pp", "1=1"])
    assert code == 2


def test_bad_discriminant_is_invalid(capsys):
    assert main(["factor", "--k", "4", "--d1", "-12", "--d2", "-7", "--pp", "1=1"]) == 2
    assert main(["factor", "--k", "4", "--d1", "7", "--d2", "-23", "--pp", "1=1"]) == 2
    assert main(["factor", "--k", "3", "--d1", "-7", "--d2", "-23", "--pp", "1=1"]) == 2


def test_verify_k2_case(capsys):
    code, doc = run_cli(capsys, "verify", "--k", "2", "--d1", "-4", "--d2", "-7",
                        "--pp", "1=1", "--tol", "1e-5")
    assert code == 0
    assert doc["exponents"] == []
    assert doc["unit_power_rational"] == "4"
    assert doc["residual"] < 1e-5
    assert doc["converged"] is True
    # schema stability
    assert set(doc) >= {"command", "k", "d1", "d2", "pp", "Delta", "precision",
                        "tol", "lhs", "kappa", "exponents", "unit_power",
                        "residual", "rhs_value", "converged"}
    # one CM pair, one principal-part term: one orbit-sum record
    per_pair = doc["diagnostics"]["per_pair"]
    assert len(per_pair) == doc["diagnostics"]["pairs"] == doc["diagnostics"]["orbit_sums"] == 1
    assert per_pair[0]["terms"] == doc["diagnostics"]["terms"] > 0
    assert per_pair[0]["reused"] is False


def test_greens_json(capsys, tmp_path):
    out = tmp_path / "g.json"
    code = main(["greens", "--k", "4", "--d1", "-4", "--d2", "-7",
                 "--pp", "1=1", "--tol", "1e-6", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "greens"
    assert doc["precision"] == 30
    assert doc["converged"] is True
    float(doc["value"])  # parses as a number


def test_exit_1_states_its_reason(capsys, monkeypatch):
    import hgreen.greens as G
    cycle = ["--k", "4", "--d1", "-7", "--d2", "-23", "--pp", "1=1", "--tol", "1e-6"]
    code, doc = run_cli(capsys, "verify", *cycle)
    assert code == 0 and "failure_reason" not in doc
    assert doc["diagnostics"]["route"] == "nsum"
    # a wrong lhs fails the fit
    real_cycle = G.cycle_value

    def shifted_cycle(*args):
        value, diag = real_cycle(*args)
        return value + 1, diag

    monkeypatch.setattr(G, "cycle_value", shifted_cycle)
    code, doc = run_cli(capsys, "verify", *cycle)
    assert code == 1 and doc["converged"] is True
    assert doc["failure_reason"] == \
        f"residual {doc['residual']} >= threshold {doc['residual_threshold']}"
    monkeypatch.setattr(G, "cycle_value", real_cycle)
    # an n-sum that runs out of doublings before its error estimate falls
    # below tol: at T = 800 it is ~7e-11, above tol 1e-15
    monkeypatch.setattr(G, "MAX_DOUBLINGS", 2)
    code, doc = run_cli(capsys, "greens", *cycle[:-1], "1e-15")
    estimate = doc["diagnostics"]["estimate"]
    assert code == 1 and doc["converged"] is False and estimate >= 1e-15
    assert [h["T"] for h in doc["diagnostics"]["history"]] == [400.0, 800.0]
    assert doc["failure_reason"] == \
        f"not converged: n-sum at T = 800.0 after 2 shells, estimate {estimate:.2g} >= tol 1e-15"
    # k = 2 takes the orbit route, whose one ladder on the cycle value runs
    # out of doublings at T = 50 in the same way
    cycle[1] = "2"
    code, doc = run_cli(capsys, "greens", *cycle)
    diag = doc["diagnostics"]
    estimate = diag["estimate"]
    assert diag["route"] == "orbit" and [h["T"] for h in diag["history"]] == [25.0, 50.0]
    assert code == 1 and doc["converged"] is False and estimate >= 1e-6
    assert doc["failure_reason"] == \
        f"not converged: orbit route at T = 50.0 after 2 shells, estimate {estimate:.2g} >= tol 1e-06"


def test_selftest_quick(capsys):
    code, doc = run_cli(capsys, "selftest", "--seed", "7", "--quick")
    assert code == 0
    assert doc["pass"] is True
    names = {s["suite"] for s in doc["suites"]}
    assert names == {"counting_oracle", "route_equality", "slice_identity",
                     "legendre_recurrence", "genus_congruences"}


def test_selftest_deterministic(capsys):
    _, doc1 = run_cli(capsys, "selftest", "--seed", "3", "--quick")
    _, doc2 = run_cli(capsys, "selftest", "--seed", "3", "--quick")
    assert doc1 == doc2


def test_out_of_range_discriminant_fails_fast(capsys):
    # a 49-digit semiprime: factoring it would never finish, the range check
    # must refuse it first; a principal-part index of 1e8 would hang the
    # obstruction check and the trace slice the same way
    import time
    from sympy import nextprime
    d1 = -nextprime(10 ** 24) * nextprime(3 * 10 ** 24)
    assert len(str(-d1)) == 49
    for cycle, reason in ((["--k", "4", "--d1", str(d1), "--d2", "-7", "--pp", "1=1"],
                           f"Delta = {-7 * d1} beyond supported range 1e6"),
                          (["--k", "4", "--d1", "-7", "--d2", "-23", "--pp", "100000000=1"],
                           "index 100000000 beyond supported range 100"),
                          (["--k", "400", "--d1", "-7", "--d2", "-23", "--pp", "1=1"],
                           f"k = 400 beyond supported range {MAX_K}")):
        for command in ("factor", "greens", "verify"):
            t0 = time.perf_counter()
            code = main([command] + cycle)
            assert code == 2
            assert time.perf_counter() - t0 < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert reason in json.loads(captured.err)["error"]
    # a tol that is not finite would never stop the doublings (nan) or
    # print a document that is not JSON (inf)
    for tol in ("nan", "inf", "-inf"):
        for command in ("greens", "verify"):
            t0 = time.perf_counter()
            code = main([command, "--k", "4", "--d1", "-7", "--d2", "-23", "--pp", "1=1",
                         f"--tol={tol}"])
            assert code == 2
            assert time.perf_counter() - t0 < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "tolerance must be finite" in json.loads(captured.err)["error"]
    # the index bound itself is accepted
    code, doc = run_cli(capsys, "factor", "--k", "4", "--d1", "-4", "--d2", "-7",
                        "--pp", "100=1")
    assert code == 0 and doc["pp"] == {"100": "1"}
    # so is k = MAX_K, with a principal part orthogonal to S_24
    code, doc = run_cli(capsys, "factor", "--k", str(MAX_K), "--d1", "-4", "--d2", "-7",
                        "--pp", "1=-195660,2=48,3=1")
    assert code == 0 and doc["k"] == MAX_K
    # greens refuses Delta above 1e6 like factor does
    assert main(["greens", "--k", "4", "--d1", "-1003", "--d2", "-1019", "--pp", "1=1"]) == 2


def test_nonpositive_tol_is_invalid(capsys):
    # a zero or negative tol is refused for what it is, not as a tolerance
    # below the working precision
    for tol in ("0", "-1e-8"):
        for command in ("greens", "verify"):
            code = main([command, "--k", "4", "--d1", "-7", "--d2", "-23", "--pp", "1=1",
                         f"--tol={tol}"])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err)["error"] == \
                f"tolerance must be positive, got {float(tol)}"


def test_unwritable_output_is_invalid(capsys, tmp_path):
    # a directory that does not exist: exit 2 with a reason naming the path,
    # not a traceback (exit 1 means a failed verification)
    out = tmp_path / "missing" / "x.json"
    for command in ("factor", "verify"):
        code = main([command, "--k", "4", "--d1", "-7", "--d2", "-23", "--pp", "1=1",
                     "--tol", "1e-6", "--output", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error.startswith(f"cannot write --output {out}: ")
    assert not out.parent.exists()


def test_invalid_hgreen_digits_is_invalid(capsys, monkeypatch):
    argv = ["greens", "--k", "4", "--d1", "-4", "--d2", "-7", "--pp", "1=1", "--tol", "1e-6"]
    too_many = f"digits = {MAX_DIGITS + 1} beyond supported range {MAX_DIGITS}"
    # --digits is the one setting of the working precision; the environment
    # variable that once set its default is read no more
    monkeypatch.setenv("HGREEN_DIGITS", "5")
    code, doc = run_cli(capsys, *argv)
    assert code == 0 and doc["precision"] == 30
    code, doc = run_cli(capsys, *argv, "--digits", "40")
    assert code == 0 and doc["precision"] == 40
    assert main(argv + ["--digits", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid int value: 'abc'" in json.loads(captured.err)["error"]
    for digits, reason in (("5", ">= 15 digits"), (str(MAX_DIGITS + 1), too_many)):
        for command in ("greens", "verify"):
            assert main([command] + argv[1:] + ["--digits", digits]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert reason in json.loads(captured.err)["error"]


@pytest.mark.parametrize("flag, value, reason", [
    ("--k", "4.5", "argument --k: invalid int value: '4.5'"),
    ("--d1", "-7.5", "argument --d1: invalid int value: '-7.5'"),
    ("--tol", "small", "argument --tol: invalid float value: 'small'"),
    ("--digits", "abc", "argument --digits: invalid int value: 'abc'"),
    ("--d2", None, "the following arguments are required: --d2"),
    ("--foo", "1", "unrecognized arguments: --foo 1"),
    ("--output", "", "argument --output: expected one argument"),
    ("--tol", "--k 4", "argument --tol: expected one argument"),
    ("--quick=1", "", "argument --quick: ignored explicit argument '1'"),
])
def test_argument_errors_are_json(capsys, flag, value, reason):
    # a value that does not convert, a missing flag, an unknown one, a flag
    # without its value or a switch given one exits 2 with the one JSON line
    # of every other invalid input, in the words argparse used; `value` is
    # the tokens after the flag, and only unknown tokens are refused in the
    # name of the whole program
    args = {"--k": "4", "--d1": "-7", "--d2": "-23", "--pp": "1=1", "--tol": "1e-6"}
    commands = ("greens", "verify", "factor")
    if flag.startswith("--quick"):
        args, commands = {}, ("selftest",)
    if value is None:
        del args[flag]
    else:
        args[flag] = value
    for command in commands:
        argv = [command] + [x for f, v in args.items() for x in (f, *v.split())]
        prog = "hgreen" if reason.startswith("unrecognized") else f"hgreen {command}"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": f"{prog}: {reason}"}


@pytest.mark.parametrize("value, reason", [
    ("-1e-8", "tolerance must be positive, got -1e-08"),
    ("-inf", "tolerance must be finite, got -inf"),
])
def test_negative_value_after_a_space_is_a_value(capsys, value, reason):
    # only a token that starts with "--" (or -h) is a flag, so a negative
    # value in any float syntax reaches the tolerance check after a space as
    # after "="
    argv = ["--k", "4", "--d1", "-7", "--d2", "-23", "--pp", "1=1"]
    for command in ("greens", "verify"):
        for tol in (["--tol", value], [f"--tol={value}"]):
            assert main([command] + argv + tol) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err) == {"error": reason}


@pytest.mark.parametrize("argv, reason", [
    ([], "the following arguments are required: command"),
    (["solve"], "argument command: invalid choice: 'solve' "
                "(choose from 'greens', 'factor', 'verify', 'selftest')"),
])
def test_command_errors_are_json(capsys, argv, reason):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": f"hgreen: {reason}"}


def test_flag_forms_give_one_document(capsys):
    # --flag=value, any order, a repeated flag (the last one counts) and
    # negative values read as the plain long form does
    plain = ["--k", "4", "--d1", "-7", "--d2", "-23", "--pp", "1=1", "--tol", "1e-6"]
    assert main(["greens"] + plain) == 0
    expected = capsys.readouterr().out
    for argv in (["--k=4", "--d1=-7", "--d2=-23", "--pp=1=1", "--tol=1e-6"],
                 ["--tol", "1e-6", "--pp", "1=1", "--d2", "-23", "--d1", "-7", "--k", "4"],
                 ["--k", "6", "--d1", "-4"] + plain):
        assert main(["greens"] + argv) == 0
        assert capsys.readouterr().out == expected


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["greens", "--help"])
    assert exc.value.code == 0 and "--digits" in capsys.readouterr().out


def test_cancelling_principal_part_term_is_dropped(capsys):
    # an index whose terms sum to 0 is no term of the principal part
    cycle = ["--d1", "-4", "--d2", "-7", "--tol", "1e-5"]
    code, doc = run_cli(capsys, "greens", "--k", "2", *cycle, "--pp", "1=1,2=1,2=-1")
    _, plain = run_cli(capsys, "greens", "--k", "2", *cycle, "--pp", "1=1")
    # it costs no orbit sum and leaves the value as it is
    assert code == 0 and doc["pp"] == plain["pp"] == {"1": "1"}
    assert doc["value"] == plain["value"]
    assert [rec["m"] for rec in doc["diagnostics"]["per_pair"]] == [1]
    # it does not widen the span of n that picks the route
    code, doc = run_cli(capsys, "greens", "--k", "4", *cycle, "--pp", "1=1,7=1,7=-1")
    assert code == 0 and doc["diagnostics"]["route"] == "nsum"
    # and its index is not held against the index bound
    code, doc = run_cli(capsys, "greens", "--k", "4", *cycle, "--pp", "1=1,101=1,101=-1")
    assert code == 0 and doc["pp"] == {"1": "1"}


def test_malformed_principal_part_is_invalid(capsys):
    for term in ("1=a", "x=1", "1=1/0"):
        code = main(["factor", "--k", "4", "--d1", "-7", "--d2", "-23", "--pp", term])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad principal part term {term!r}" in json.loads(captured.err)["error"]


def test_selftest_full_grid_counts(capsys):
    # the full grid's check counts, one per suite, as the benchmark pins them
    code, doc = run_cli(capsys, "selftest", "--seed", "0")
    assert code == 0 and doc["pass"] is True
    assert [s["checks"] for s in doc["suites"]] == [160, 6660, 462, 60, 15]


def test_product_path_loads_no_oracle_code():
    # factor, greens and verify never import the theta routes or the property
    # suites; numpy, which only the orbit sums need, stays unloaded until a
    # k = 2 cycle takes the orbit route (k = 4 on Delta = 161 takes the n-sum)
    import subprocess
    import sys
    from pathlib import Path
    script = """
import contextlib, io, sys
from hgreen.cli import main
for command, k in (("factor", "4"), ("greens", "4"), ("verify", "4"), ("greens", "2")):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--k", k, "--d1", "-7", "--d2", "-23", "--pp", "1=1",
                     "--tol", "1e-6"])
    loaded = sorted(m for m in ("hgreen.thetacoef", "hgreen.properties", "numpy",
                                "argparse", "gettext", "locale")
                    if m in sys.modules)
    print(command, code, loaded)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split("\n")[:4] == ["factor 0 []", "greens 0 []", "verify 0 []",
                                    "greens 0 ['numpy']"]


def test_cli_paths_load_only_the_standard_library():
    # no command imports mpmath, dataclasses or inspect; a k = 2 verify, the
    # orbit route, adds numpy and what numpy itself imports, nothing else
    import subprocess
    import sys
    from pathlib import Path
    script = """
import contextlib, io, sys
WATCH = ("mpmath", "dataclasses", "inspect")
import hgreen.cli
print("import", [m for m in WATCH if m in sys.modules])
cycle = ["--d1", "-7", "--d2", "-23", "--pp", "1=1", "--tol", "1e-6"]
for argv in (["factor", "--k", "4", *cycle], ["greens", "--k", "4", *cycle],
             ["verify", "--k", "4", *cycle], ["selftest", "--quick"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = hgreen.cli.main(argv)
    print(argv[0], code, [m for m in WATCH if m in sys.modules])
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = hgreen.cli.main(["verify", "--k", "2", "--d1", "-4", "--d2", "-7", "--pp", "1=1",
                            "--tol", "1e-4"])
print("verify-k2", code, "mpmath" in sys.modules, " ".join(sorted(set(sys.modules) - before)))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(code):
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True).stdout.split("\n")

    out = run(script)
    assert out[:5] == ["import []", "factor 0 []", "greens 0 []", "verify 0 []",
                       "selftest 0 []"]
    name, code, mpmath_loaded, *added = out[5].split(" ")
    numpy_own = set(run("import sys; b = set(sys.modules); import numpy; "
                        "print(' '.join(set(sys.modules) - b))")[0].split(" "))
    assert (name, code, mpmath_loaded) == ("verify-k2", "0", "False")
    assert "numpy" in added and set(added) <= numpy_own, set(added) - numpy_own


def test_module_entry_point_reads_sys_argv(capsys):
    # `python -m hgreen.cli` is main(None), which reads its flags from sys.argv
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "hgreen.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    cycle = ["factor", "--k", "4", "--d1", "-7", "--d2", "-23", "--pp", "1=1"]
    proc = run(*cycle)
    assert main(cycle) == 0
    assert proc.returncode == 0 and proc.stdout == capsys.readouterr().out
    proc = run("greens", "--help")
    assert proc.returncode == 0
    assert all(flag in proc.stdout for flag in
               ("--k", "--d1", "--d2", "--pp", "--tol", "--digits", "--output"))
    proc = run()
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr) == \
        {"error": "hgreen: the following arguments are required: command"}
