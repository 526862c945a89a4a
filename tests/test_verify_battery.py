"""End-to-end reconciliation battery beyond the headline examples.

Each case runs the exact exponent engine and the numerical evaluator
independently and requires the bridge identity

    kappa * G = -Delta^{(1-k)/2} * ( sum_l e_l/h_F log|mu_l/mu_l'| + r log|eps/eps'| )

to close with a rational unit power r of bounded denominator and a tiny
residual.  The exponent maps and unit powers below were produced by this
pipeline and are frozen as regression values; the residual threshold is the
actual correctness assertion (the two sides are computed by disjoint code).

Cases cover: higher weights (k = 6, 8) including a genuine T_2 Hecke
translate and multi-term principal parts, elliptic CM points (d = -3, -4),
a narrow-class-number-4 field (Delta = 60) under both odd characters, and
k = 2 on the headline field.
"""

from fractions import Fraction

import pytest

from hgreen.qfield import field
from hgreen.greens import G_kf_at_cycle, GreenParams
from hgreen.factor import gamma_exponents, reconcile
from hgreen.mforms import check_principal_part


CASES = [
    # (k, pp, d1, d2, exponents {(ell, hnf_b): e}, unit_power, tol)
    (4, {1: 1}, -4, -7, {(3, 0): 240}, -68, 1e-7),
    (8, {1: -216, 2: 1}, -4, -7,
     {(3, 2): 16810160, (19, 16): 9376176}, 3859792, 1e-7),
    (6, {1: 24, 2: 1}, -4, -7,
     {(3, 2): 777896, (19, 13): 18648}, 293272, 1e-7),
    (2, {1: 1}, -3, -4, {}, 2, 1e-6),
    (4, {1: 1}, -3, -7, {(5, 4): 58}, 24, 1e-7),
    (4, {1: 1}, -3, -20, {(11, 1): 400}, 40, 1e-7),
    (4, {1: 1}, -4, -15, {(7, 4): 640, (11, 1): 400}, 160, 1e-7),
    (2, {1: 1}, -7, -23, {(5, 4): 2, (17, 7): 20, (19, 16): 12}, 16, 1e-6),
]


@pytest.mark.parametrize("k,pp,d1,d2,exponents,unit,tol", CASES,
                         ids=[f"k{c[0]}_D{c[2]*c[3]}_{i}" for i, c in enumerate(CASES)])
def test_end_to_end_reconciliation(k, pp, d1, d2, exponents, unit, tol):
    pp = {m: Fraction(c) for m, c in pp.items()}
    assert check_principal_part(k, pp) is None
    lhs, diag = G_kf_at_cycle(k, pp, d1, d2, GreenParams(tol=tol, digits=30))
    assert diag["converged"]
    rep = gamma_exponents(k, pp, d1, d2)
    rep = reconcile(rep, lhs, tol)
    assert rep.exponents == {key: Fraction(v) for key, v in exponents.items()}
    assert rep.unit_power_rational == Fraction(unit)
    assert rep.verified
    # the real check: both engines close the bridge identity tightly
    scale = float(d1 * d2) ** ((k - 1) / 2)
    assert rep.residual < 10 * tol * scale


def test_narrow_class_four_field_structure():
    # Delta = 60 has narrow class group (Z/2)^2; both odd characters used above
    ncg = field(60).narrow_class_group()
    assert ncg.h_plus == 4
    table = ncg.multiplication_table()
    for i in range(4):
        assert table[i][i] == 0  # every class is 2-torsion


def test_fractional_pp_scales_kappa():
    # pp = 1/3 gives kappa = 3 and exponents ord/kappa; gamma itself (the
    # kappa-cleared object, kappa*G on the left) is the same as for pp = 1,
    # so the fitted unit power stays -584.
    rep = gamma_exponents(4, {1: Fraction(1, 3)}, -7, -23)
    assert rep.kappa == 3
    assert rep.exponents[(5, 0)] == Fraction(2878, 3)
    lhs, _ = G_kf_at_cycle(4, {1: Fraction(1, 3)}, -7, -23,
                           GreenParams(tol=1e-7, digits=30))
    rep = reconcile(rep, lhs, 1e-7)
    assert rep.unit_power_rational == Fraction(-584)
    assert rep.verified
