import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpc, mpf

import hgreen.greens as G
from hgreen.greens import (
    CMPoint,
    GreenParams,
    G_k_hecke,
    G_kf_at_cycle,
    SingularConfigurationError,
    cm_points,
    g_k,
    legendre_Q,
    legendre_Q_integral,
    unit_weight,
)
from hgreen.qfield import InvalidInputError


mpmath.mp.dps = 30


def test_cm_points_examples():
    assert cm_points(-4) == [CMPoint(1, 0, 1)]
    assert unit_weight(-4) == 4 and unit_weight(-3) == 6 and unit_weight(-7) == 2
    assert cm_points(-7) == [CMPoint(1, 1, 2)]
    assert set(cm_points(-23)) == {CMPoint(1, 1, 6), CMPoint(2, 1, 3), CMPoint(2, -1, 3)}
    with pytest.raises(InvalidInputError):
        cm_points(-12)  # not fundamental
    with pytest.raises(InvalidInputError):
        cm_points(5)


@pytest.mark.parametrize("d,h", [(-4, 1), (-3, 1), (-7, 1), (-23, 3), (-47, 5), (-71, 7)])
def test_class_numbers(d, h):
    assert len(cm_points(d)) == h
    for P in cm_points(d):
        assert P.disc == d
        assert abs(P.B) <= P.A <= P.C
        if abs(P.B) == P.A or P.A == P.C:
            assert P.B >= 0


def test_legendre_q_closed_values():
    assert abs(legendre_Q(0, 3) - mpmath.log(2) / 2) < mpf(10) ** -25
    t = mpf(3) / 2
    assert abs(legendre_Q(1, t) - (t / 2 * mpmath.log((t + 1) / (t - 1)) - 1)) < mpf(10) ** -25


def test_legendre_q_vs_quadrature():
    # the defining integral (t + sqrt(t^2-1) cosh v)^{-n-1} as oracle
    for n in (1, 2, 4):
        for t in (mpf("1.25"), mpf("1.8"), mpf(3)):
            oracle = mpmath.quad(
                lambda v: (t + mpmath.sqrt(t * t - 1) * mpmath.cosh(v)) ** (-(n + 1)),
                [0, mpmath.inf],
            )
            assert abs(legendre_Q(n, t) - oracle) < mpf(10) ** -20


def test_legendre_q_recurrence_grid():
    worst = mpf(0)
    for n in range(1, 11):
        for t in [mpf("1.01"), mpf("1.2"), mpf("1.7"), mpf(2), mpf("2.3"),
                  mpf(5), mpf(20), mpf(50)]:
            r = ((n + 1) * legendre_Q(n + 1, t)
                 - (2 * n + 1) * t * legendre_Q(n, t)
                 + n * legendre_Q(n - 1, t))
            worst = max(worst, abs(r))
    assert worst < mpf(10) ** -12


def test_legendre_q_regime_overlap():
    # both regimes agree to 1e-12 across t in [1.8, 2.2]
    sw = G.T_SWITCH
    try:
        for i in range(17):
            t = mpf("1.8") + mpf(i) / 40
            for n in range(0, 8):
                G.T_SWITCH = 3.0
                closed = legendre_Q(n, t)
                G.T_SWITCH = 1.5
                series = legendre_Q(n, t)
                assert abs(closed - series) < mpf(10) ** -12
    finally:
        G.T_SWITCH = sw


def test_legendre_q_singular_input():
    with pytest.raises(SingularConfigurationError):
        legendre_Q(2, mpf(1))


def test_legendre_q_tail_integral():
    for n in (1, 3):
        for T in (mpf(3), mpf(10)):
            oracle = mpmath.quad(lambda t: legendre_Q(n, t), [T, mpmath.inf])
            assert abs(legendre_Q_integral(n, T) - oracle) < mpf(10) ** -15


def test_g_k_symmetry_and_singularity():
    rng = random.Random(9)
    for _ in range(10):
        z1 = mpc(rng.uniform(-1, 1), rng.uniform(0.4, 2.5))
        z2 = mpc(rng.uniform(-1, 1), rng.uniform(0.4, 2.5))
        if abs(z1 - z2) < 0.05:
            continue
        for k in (2, 4):
            assert abs(g_k(z1, z2, k) - g_k(z2, z1, k)) < mpf(10) ** -25
    with pytest.raises(SingularConfigurationError):
        g_k(mpc(0, 1), mpc(0, 1), 2)
    # g_2(i, 2i) = -2 Q_1(1 + 1/4)
    v = g_k(mpc(0, 1), mpc(0, 2), 2)
    assert abs(v + 2 * legendre_Q(1, mpf(5) / 4)) < mpf(10) ** -25


def test_green_singular_configuration_detected():
    p = GreenParams(k=4, tol=1e-6)
    with pytest.raises(SingularConfigurationError):
        G_k_hecke(mpc(0, 1), mpc(0, 1), 4, 1, p)   # same point, m = 1
    with pytest.raises(SingularConfigurationError):
        # z and 2z lie on the T_2 singular locus: (z, T_2 z)
        G_k_hecke(mpc("0.1", "1.3"), mpc("0.2", "2.6"), 4, 2, p)


def test_green_symmetry_m1():
    p = GreenParams(k=4, tol=1e-9)
    z1 = mpc(mpf(-1) / 2, mpmath.sqrt(7) / 2)
    z2 = mpc(mpf(1) / 4, mpmath.sqrt(23) / 4)
    a, _ = G_k_hecke(z1, z2, 4, 1, p)
    b, _ = G_k_hecke(z2, z1, 4, 1, p)
    assert abs(a - b) < 1e-9


def test_green_gamma_invariance():
    p = GreenParams(k=4, tol=1e-9)
    z1 = mpc("0.13", "1.21")
    z2 = mpc("-0.4", "0.9")
    base, _ = G_k_hecke(z1, z2, 4, 1, p)
    for (a, b, c, d) in [(1, 1, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1), (1, 0, 2, 1)]:
        gz1 = (a * z1 + b) / (c * z1 + d)
        gz2 = (a * z2 + b) / (c * z2 + d)
        v1, _ = G_k_hecke(gz1, z2, 4, 1, p)
        v2, _ = G_k_hecke(z1, gz2, 4, 1, p)
        assert abs(v1 - base) < 1e-8
        assert abs(v2 - base) < 1e-8


def test_green_k2_closed_form_quick():
    # G_2(i, z_7) = -(8/sqrt28) log((8+3sqrt7)/(8-3sqrt7)), quick tolerance
    z1 = mpc(0, 1)
    z7 = mpc(mpf(-1) / 2, mpmath.sqrt(7) / 2)
    closed = -(8 / mpmath.sqrt(28)) * mpmath.log((8 + 3 * mpmath.sqrt(7)) / (8 - 3 * mpmath.sqrt(7)))
    val, diag = G_k_hecke(z1, z7, 2, 1, GreenParams(k=2, tol=1e-5))
    assert diag["converged"]
    assert abs(val - closed) < 1e-6


def test_truncation_stability():
    z1 = mpc(0, 1)
    z7 = mpc(mpf(-1) / 2, mpmath.sqrt(7) / 2)
    coarse, _ = G_k_hecke(z1, z7, 4, 1, GreenParams(k=4, tol=1e-6))
    fine, _ = G_k_hecke(z1, z7, 4, 1, GreenParams(k=4, tol=5e-7))
    assert abs(coarse - fine) < 1e-6


def test_higher_precision_consistency():
    # digits=40/tol=1e-10 agrees with the 30-digit default run
    from fractions import Fraction
    a, _ = G_kf_at_cycle(4, {1: Fraction(1)}, -7, -23,
                         GreenParams(k=4, tol=1e-8, digits=30))
    b, _ = G_kf_at_cycle(4, {1: Fraction(1)}, -7, -23,
                         GreenParams(k=4, tol=1e-10, digits=40))
    assert abs(a - b) < 1e-8


def test_hecke_m1_reduces_to_plain_green():
    # one coset only: T_1 sum must equal the PSL2 orbit sum of g_k
    z1 = mpc("0.3", "1.7")
    z2 = mpc("0.1", "1.1")
    val, diag = G_k_hecke(z1, z2, 4, 1, GreenParams(k=4, tol=1e-8))
    assert len(diag["cosets"]) == 1
    # crude independent check: partial sum over explicit small matrices
    import itertools
    acc = mpf(0)
    seen = set()
    R = 3
    for a, b, c, d in itertools.product(range(-R, R + 1), repeat=4):
        if a * d - b * c != 1 or (-a, -b, -c, -d) in seen:
            continue
        seen.add((a, b, c, d))
        acc += g_k(z1, (a * z2 + b) / (c * z2 + d), 4)
    # the brute partial sum must be within the tail of the full value
    assert abs(val - acc) < 0.05


def test_cycle_value_linearity_in_pp():
    p = GreenParams(k=4, tol=1e-7)
    v1, _ = G_kf_at_cycle(4, {1: Fraction(1)}, -4, -7, p)
    v2, _ = G_kf_at_cycle(4, {1: Fraction(2)}, -4, -7, p)
    assert abs(v2 - 2 * v1) < 2e-7


def test_cycle_weight():
    # d1 = -4, d2 = -7: single pair, weight 4/(4*2) = 1/2
    p = GreenParams(k=2, tol=1e-4)
    val, diag = G_kf_at_cycle(2, {1: Fraction(1)}, -4, -7, p)
    z1 = mpc(0, 1)
    z7 = mpc(mpf(-1) / 2, mpmath.sqrt(7) / 2)
    direct, _ = G_k_hecke(z1, z7, 2, 1, GreenParams(k=2, tol=1e-4))
    assert diag["weight"] == 0.5
    assert abs(val - direct / 2) < 1e-4


def test_cycle_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        G_kf_at_cycle(4, {1: Fraction(1)}, -7, -7, GreenParams(k=4))
    with pytest.raises(InvalidInputError):
        G_kf_at_cycle(4, {1: Fraction(1)}, -7, 5, GreenParams(k=4))
    with pytest.raises(InvalidInputError):
        # S_24 is nontrivial: principal part q^{-1} is obstructed at k = 12
        G_kf_at_cycle(12, {1: Fraction(1)}, -4, -7, GreenParams(k=12))


def test_params_validation():
    with pytest.raises(InvalidInputError):
        GreenParams(k=3)
    with pytest.raises(InvalidInputError):
        GreenParams(k=2, digits=10)
    with pytest.raises(InvalidInputError):
        GreenParams(k=2, tol=1e-40, digits=20)


def test_laplacian_eigenvalue_k4():
    # -y^2 (d_xx + d_yy) G_4(., 2i) = k(1-k) G_4 = -12 G_4, to O(h^2)
    z2 = mpc(0, 2)
    z0 = mpc("0.07", "1.13")
    h = mpf(10) ** -3
    p = GreenParams(k=4, tol=1e-12, digits=30)

    def val(z):
        v, _ = G_k_hecke(z, z2, 4, 1, p)
        return v

    center = val(z0)
    lap = (val(z0 + h) + val(z0 - h) + val(z0 + h * mpc(0, 1))
           + val(z0 - h * mpc(0, 1)) - 4 * center) / (h * h)
    disc = -(z0.imag ** 2) * lap
    target = -12 * center
    assert abs(disc - target) < 5e-5 * max(1, abs(target))
