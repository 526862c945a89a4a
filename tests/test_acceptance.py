"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here, none deferred.
"""

import json
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from hgreen import properties as P
from hgreen.cli import main
from hgreen.qfield import field
from hgreen.finquad import genus_characters
from hgreen.factor import gamma_exponents, reconcile, trace_slice
from hgreen.greens import CMPoint, G_k_hecke, G_kf_at_cycle, GreenParams
from oracles import alt_exponent_check, rho_exponent_vector


def report(name, ok, detail="", failures=()):
    """Print and assert one criterion; a property suite's failures fail it too."""
    ok = ok and not failures
    if failures:
        detail += f" failures={list(failures)[:5]}"
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1: exact Delta = 161 factorization --------------------------------

def test_criterion_1_factorization(capsys):
    t0 = time.time()
    code = main(["factor", "--k", "4", "--d1", "-7", "--d2", "-23", "--pp", "1=1"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    elapsed = time.time() - t0
    F = field(161)
    p5 = next(P for P in F.primes_above(5) if P.contains(F.elem(38, 3)))
    p17 = next(P for P in F.primes_above(17) if P.contains(F.elem(12, 1)))
    p19c = next(P for P in F.primes_above(19)
                if P.contains(F.elem(25, -2)))  # conjugate of 25 + 2 sqrt161
    got = {(e["p"], tuple(e["hnf"])): (e["e_num"], e["e_den"])
           for e in doc["exponents"]}
    want = {
        (5, (p5.a, p5.b, 1)): (2878, 1),
        (17, (p17.a, p17.b, 1)): (3580, 1),
        (19, (p19c.a, p19c.b, 1)): (2628, 1),
    }
    with capsys.disabled():
        report(
            "criterion 1: p5^2878 p17^3580 (p19')^2628, kappa=1",
            code == 0 and doc["kappa"] == 1 and got == want,
            f"({elapsed:.1f}s, target < 10s)",
        )
        assert elapsed < 10


# -- criterion 2: the numeric value ------------------------------------------------

def test_criterion_2_numeric_value(capsys):
    t0 = time.time()
    code = main(["greens", "--k", "4", "--d1", "-7", "--d2", "-23",
                 "--pp", "1=1", "--tol", "1e-8", "--digits", "30"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    elapsed = time.time() - t0
    val = mpf(doc["value"])
    target = mpf("-4.157888612785")
    err = abs(val - target)
    with capsys.disabled():
        report(
            "criterion 2: greens CLI gives sum G_{4,f}(z_7, z_23j) = -4.157888612785 +- 1e-6",
            code == 0 and doc["converged"] and err < 1e-6,
            f"value={doc['value'][:17]} err={mpmath.nstr(err, 3)} "
            f"({elapsed:.1f}s at 30 digits, target < 300s)",
        )
        assert elapsed < 300


# -- criterion 3: end-to-end verify on Delta = 161 ---------------------------------

def test_criterion_3_end_to_end_161():
    params = GreenParams(tol=1e-8, digits=30)
    lhs, diag = G_kf_at_cycle(4, {1: Fraction(1)}, -7, -23, params)
    rep = gamma_exponents(4, {1: Fraction(1)}, -7, -23)
    rep = reconcile(rep, lhs, 1e-8)
    threshold = 1e-5 * 161 ** 1.5
    report(
        "criterion 3: unit power 584 on eps_F' with residual < 1e-5 * Delta^{3/2}",
        rep.unit_power_rational == Fraction(-584) and rep.residual < threshold,
        f"power(eps)={rep.unit_power_rational} residual={rep.residual:.2e} < {threshold:.2e}",
    )


# -- criterion 4: the k = 2 GKZ cross-check ----------------------------------------

def test_criterion_4_k2_crosscheck():
    with mpmath.mp.workdps(30):
        s7 = mpmath.sqrt(7)
        closed = -(8 / mpmath.sqrt(28)) * mpmath.log((8 + 3 * s7) / (8 - 3 * s7))
        z1 = CMPoint(1, 0, 1)       # i
        z7 = CMPoint(1, 1, 2)       # (-1 + sqrt(-7))/2
        for tol in (1e-6, 1e-9):
            val, diag = G_k_hecke(z1, z7, 2, 1, GreenParams(tol=tol, digits=30))
            err = abs(mpf(str(val)) - closed)
            report(
                f"criterion 4a: G_2(i, z_7) matches -(8/sqrt28) log((8+3sqrt7)/(8-3sqrt7))"
                f" at tol {tol:g}",
                diag["converged"] and err < tol,
                f"err={mpmath.nstr(err, 3)}",
            )
        lhs, diag2 = G_kf_at_cycle(2, {1: Fraction(1)}, -4, -7,
                                   GreenParams(tol=1e-6, digits=30))
        rep = gamma_exponents(2, {1: Fraction(1)}, -4, -7)
        rep = reconcile(rep, lhs, 1e-6)
        report(
            "criterion 4b: verify k=2 gives empty exponents, unit-only, residual < 1e-5",
            rep.exponents == {} and rep.unit_power_rational == Fraction(4)
            and rep.residual < 1e-5,
            f"power={rep.unit_power_rational} residual={rep.residual:.2e}",
        )


# -- criterion 5: the counting oracle ----------------------------------------------

def test_criterion_5_counting_oracle():
    t0 = time.time()
    checked, failures = P.counting_oracle((12, 21, 28, 161), 130, random.Random(20260810))
    elapsed = time.time() - t0
    report(
        "criterion 5: C_chi(mu0) = 2 rho_{K/F}((mu0)) on >= 500 random tp mu0",
        checked >= 500 and elapsed < 120,
        f"{checked} exact checks ({elapsed:.1f}s, target < 120s)",
        failures,
    )


# -- criterion 6: route equality on the full grid ----------------------------------

@pytest.mark.parametrize("D", [12, 21, 28, 161])
def test_criterion_6_route_equality(D):
    t0 = time.time()
    checked, failures = P.route_equality((D,), 100)
    report(
        f"criterion 6: route equality, Delta={D}, n <= 100, all h",
        checked == 100 * D,  # |A_Delta| = Delta
        f"{checked} coefficients ({time.time()-t0:.1f}s)",
        failures,
    )


# -- criterion 7: property suites ---------------------------------------------------

def test_criterion_7a_slice_identity():
    checks, failures = P.slice_identity(20)
    report("criterion 7a: combinatorial slice identity, exhaustive a <= b <= 20",
           checks == 2 * 231, failures=failures)


def test_criterion_7b_legendre_recurrence():
    ts = [f"{1.01 + 0.5 * i:.2f}" for i in range(20)] + [50]
    checks, failures = P.legendre_recurrence(10, ts)
    report("criterion 7b: Legendre Q recurrence residual < 1e-12",
           checks == 210, f"{checks} residuals", failures)


def test_criterion_7c_laplacian_eigenvalue():
    with mpmath.mp.workdps(30):
        z2 = CMPoint(1, 0, 4)       # 2i
        x0, y0 = Fraction("0.07"), Fraction("1.13")
        h = mpf(10) ** -3
        dx = Fraction(1, 1000)     # h, exactly
        p = GreenParams(tol=1e-12, digits=30)

        def val(x, y):
            # the root x + iy of A z^2 + B z + C with A (x^2 + y^2) = C
            r = x * x + y * y
            A = math.lcm((2 * x).denominator, r.denominator)
            v, _ = G_k_hecke(CMPoint(A, int(-2 * A * x), int(A * r)), z2, 4, 1, p)
            return mpf(str(v))

        center = val(x0, y0)
        lap = (val(x0 + dx, y0) + val(x0 - dx, y0) + val(x0, y0 + dx)
               + val(x0, y0 - dx) - 4 * center) / (h * h)
        disc = -(mpf(y0.numerator) / y0.denominator) ** 2 * lap
        target = -12 * center
        err = abs(disc - target)
    report("criterion 7c: discrete Laplacian matches k(1-k) = -12 to O(step^2)",
           err < 5e-5, f"|disc - (-12 G)| = {mpmath.nstr(err, 3)}")


def test_criterion_7d_exponent_identity_on_slices():
    # the divisor-product identity for every mu0 in every acceptance slice
    checked = 0
    for (d1, d2) in ((-7, -23), (-4, -7)):
        D = d1 * d2
        chi = genus_characters(D, odd_only=True)[0]
        for mu in trace_slice(1, D).elements:
            alt = alt_exponent_check(mu, chi)
            rho = rho_exponent_vector(mu, chi)
            for key, v in rho.items():
                assert -2 * alt.get(key, 0) == v, (D, mu, key)
                checked += 1
    report("criterion 7d: divisor-product exponent identity on acceptance slices",
           True, f"{checked} prime entries")
