import json
import os


from hgreen.cli import main


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
    assert len(per_pair) == doc["diagnostics"]["pairs"] == 1
    assert per_pair[0]["terms"] > 0 and per_pair[0]["converged"] is True


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
    for cycle, reason in ((["--d1", str(d1), "--d2", "-7", "--pp", "1=1"],
                           f"Delta = {-7 * d1} beyond supported range 1e6"),
                          (["--d1", "-7", "--d2", "-23", "--pp", "100000000=1"],
                           "index 100000000 beyond supported range 100")):
        for command in ("factor", "greens", "verify"):
            t0 = time.perf_counter()
            code = main([command, "--k", "4"] + cycle)
            assert code == 2
            assert time.perf_counter() - t0 < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert reason in json.loads(captured.err)["error"]
    # the index bound itself is accepted
    code, doc = run_cli(capsys, "factor", "--k", "4", "--d1", "-4", "--d2", "-7",
                        "--pp", "100=1")
    assert code == 0 and doc["pp"] == {"100": "1"}
    # greens refuses Delta above 1e6 like factor does
    assert main(["greens", "--k", "4", "--d1", "-1003", "--d2", "-1019", "--pp", "1=1"]) == 2


def test_invalid_hgreen_digits_is_invalid(capsys, monkeypatch):
    argv = ["greens", "--k", "4", "--d1", "-4", "--d2", "-7", "--pp", "1=1", "--tol", "1e-6"]
    for value, reason in (("abc", "not an integer"), ("5", ">= 15 digits")):
        monkeypatch.setenv("HGREEN_DIGITS", value)
        for command in ("greens", "verify"):
            assert main([command] + argv[1:]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert reason in json.loads(captured.err)["error"]
        # an explicit --digits overrides the variable
        code, doc = run_cli(capsys, *argv, "--digits", "40")
        assert code == 0 and doc["precision"] == 40
        # commands that never read the precision ignore the variable
        code, doc = run_cli(capsys, "factor", "--k", "4", "--d1", "-7", "--d2", "-23",
                            "--pp", "1=1")
        assert code == 0 and doc["command"] == "factor"
        assert main(["selftest", "--quick", "--output", os.devnull]) == 0
        capsys.readouterr()
    monkeypatch.setenv("HGREEN_DIGITS", "40")
    code, doc = run_cli(capsys, *argv)
    assert code == 0 and doc["precision"] == 40


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
    # factor, greens and verify never import the theta routes or the property suites
    import subprocess
    import sys
    from pathlib import Path
    script = """
import contextlib, io, sys
from hgreen.cli import main
for command in ("factor", "greens", "verify"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--k", "4", "--d1", "-7", "--d2", "-23", "--pp", "1=1",
                     "--tol", "1e-6"])
    loaded = sorted(m for m in ("hgreen.thetacoef", "hgreen.properties") if m in sys.modules)
    print(command, code, loaded)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split("\n")[:3] == ["factor 0 []", "greens 0 []", "verify 0 []"]
