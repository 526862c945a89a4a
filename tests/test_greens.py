import dataclasses
import hashlib
import inspect
import math
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import mpmath
import numpy as np
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
from hgreen.mforms import MAX_K
from hgreen.qfield import InvalidInputError


mpmath.mp.dps = 30


def _form(x, y):
    """The integral form whose root is x + iy, for rational x and y > 0."""
    x, y = Fraction(x), Fraction(y)
    r = x * x + y * y
    A = math.lcm((2 * x).denominator, r.denominator)
    return CMPoint(A, int(-2 * A * x), int(A * r))


def _moebius(a, b, c, d, x, y):
    """(x, y) of (a z + b)/(c z + d), z = x + iy, for a matrix of determinant 1."""
    den = (c * x + d) ** 2 + (c * y) ** 2
    return (a * c * (x * x + y * y) + (a * d + b * c) * x + b * d) / den, y / den


I = CMPoint(1, 0, 1)                # i
RHO = CMPoint(1, 1, 1)              # (-1 + sqrt(-3))/2
Z7 = CMPoint(1, 1, 2)               # (-1 + sqrt(-7))/2


def test_cm_points_examples():
    assert cm_points(-4) == [CMPoint(1, 0, 1)]
    assert unit_weight(-4) == 4 and unit_weight(-3) == 6 and unit_weight(-7) == 2
    assert cm_points(-7) == [CMPoint(1, 1, 2)]
    assert set(cm_points(-23)) == {CMPoint(1, 1, 6), CMPoint(2, 1, 3), CMPoint(2, -1, 3)}
    with pytest.raises(InvalidInputError):
        cm_points(-12)  # not fundamental
    with pytest.raises(InvalidInputError):
        cm_points(5)


def test_cmpoint_is_any_positive_definite_form():
    # neither reduced nor primitive nor of fundamental discriminant
    assert CMPoint(2, 0, 2).disc == -16 and CMPoint(5, 8, 4).disc == -16
    assert complex(_form("0.07", "1.13").z()) == complex(mpc("0.07", "1.13"))
    # a form with no root in the upper half plane names no point
    for A, B, C in [(0, 1, 1), (-1, 0, -1), (1, 2, 1), (1, 3, 1), (1, 0, -1)]:
        with pytest.raises(InvalidInputError, match="not positive definite"):
            CMPoint(A, B, C)


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
    p = GreenParams(tol=1e-6)
    where = r"at coset \(0, 1\), translate 0$"
    with pytest.raises(SingularConfigurationError, match=where):
        G_k_hecke(I, I, 4, 1, p)   # same point, m = 1
    with pytest.raises(SingularConfigurationError, match=where):
        # z and 2z lie on the T_2 singular locus: (z, T_2 z)
        G_k_hecke(_form("0.1", "1.3"), _form("0.2", "2.6"), 4, 2, p)


def test_green_symmetry_m1():
    p = GreenParams(tol=1e-9)
    z1 = Z7
    z2 = CMPoint(2, -1, 3)      # (1 + sqrt(-23))/4
    a, _ = G_k_hecke(z1, z2, 4, 1, p)
    b, _ = G_k_hecke(z2, z1, 4, 1, p)
    assert abs(a - b) < 1e-9


def test_green_gamma_invariance():
    p = GreenParams(tol=1e-9)
    x1, y1, x2, y2 = (Fraction(v) for v in ("0.13", "1.21", "-0.4", "0.9"))
    z1, z2 = _form(x1, y1), _form(x2, y2)
    base, _ = G_k_hecke(z1, z2, 4, 1, p)
    for (a, b, c, d) in [(1, 1, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1), (1, 0, 2, 1)]:
        gz1 = _form(*_moebius(a, b, c, d, x1, y1))
        gz2 = _form(*_moebius(a, b, c, d, x2, y2))
        v1, _ = G_k_hecke(gz1, z2, 4, 1, p)
        v2, _ = G_k_hecke(z1, gz2, 4, 1, p)
        assert abs(v1 - base) < 1e-8
        assert abs(v2 - base) < 1e-8


def test_green_k2_closed_form_quick():
    # G_2(i, z_7) = -(8/sqrt28) log((8+3sqrt7)/(8-3sqrt7)), quick tolerance
    z1 = I
    z7 = Z7
    closed = -(8 / mpmath.sqrt(28)) * mpmath.log((8 + 3 * mpmath.sqrt(7)) / (8 - 3 * mpmath.sqrt(7)))
    val, diag = G_k_hecke(z1, z7, 2, 1, GreenParams(tol=1e-5))
    assert diag["converged"]
    assert abs(val - closed) < 1e-6


def test_truncation_stability():
    z1 = I
    z7 = Z7
    coarse, _ = G_k_hecke(z1, z7, 4, 1, GreenParams(tol=1e-6))
    fine, _ = G_k_hecke(z1, z7, 4, 1, GreenParams(tol=5e-7))
    assert abs(coarse - fine) < 1e-6


def test_higher_precision_consistency():
    # digits=40/tol=1e-10 agrees with the 30-digit default run
    from fractions import Fraction
    a, _ = G_kf_at_cycle(4, {1: Fraction(1)}, -7, -23,
                         GreenParams(tol=1e-8, digits=30))
    b, _ = G_kf_at_cycle(4, {1: Fraction(1)}, -7, -23,
                         GreenParams(tol=1e-10, digits=40))
    assert abs(a - b) < 1e-8


def test_hecke_m1_reduces_to_plain_green():
    # one coset only: T_1 sum must equal the PSL2 orbit sum of g_k
    z1 = _form("0.3", "1.7")
    z2 = _form("0.1", "1.1")
    val, diag = G_k_hecke(z1, z2, 4, 1, GreenParams(tol=1e-8))
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
        acc += g_k(z1.z(), (a * z2.z() + b) / (c * z2.z() + d), 4)
    # the brute partial sum must be within the tail of the full value
    assert abs(val - acc) < 0.05


def test_cycle_value_linearity_in_pp():
    p = GreenParams(tol=1e-7)
    v1, _ = G_kf_at_cycle(4, {1: Fraction(1)}, -4, -7, p)
    v2, _ = G_kf_at_cycle(4, {1: Fraction(2)}, -4, -7, p)
    assert abs(v2 - 2 * v1) < 2e-7


def test_cycle_weight():
    # d1 = -4, d2 = -7: single pair, weight 4/(4*2) = 1/2
    p = GreenParams(tol=1e-4)
    val, diag = G_kf_at_cycle(2, {1: Fraction(1)}, -4, -7, p)
    z1 = I
    z7 = Z7
    direct, _ = G_k_hecke(z1, z7, 2, 1, GreenParams(tol=1e-4))
    assert diag["weight"] == 0.5
    assert abs(val - direct / 2) < 1e-4


@pytest.mark.parametrize("m", [1, 2, 3])
def test_hecke_value_is_invariant_under_mirror(m):
    # z -> -conj(z) normalises PSL2(Z) and permutes the matrices of
    # determinant m, so G_k | T_m (z1, z2) = G_k | T_m (-conj z1, -conj z2)
    z1, z2 = _form("0.31", "1.17"), _form("-0.22", "0.93")
    p = GreenParams(tol=1e-9)
    val, _ = G_k_hecke(z1, z2, 4, m, p)
    # -conj z is the root of (A, -B, C)
    mirrored, _ = G_k_hecke(CMPoint(z1.A, -z1.B, z1.C), CMPoint(z2.A, -z2.B, z2.C), 4, m, p)
    assert abs(val - mirrored) < 1e-8


def test_cycle_sums_each_mirror_pair_once(monkeypatch):
    # cm_points(-23) = CM(1,1,6), CM(2,-1,3), CM(2,1,3); the last two are
    # mirrors and CM(1,1,2) is its own, so 3 pairs need 2 orbit sums per m,
    # each of sigma(m) coset sums
    built = []
    real_init = G._PairOrbitSum.__init__

    def counted(self, P1, W, k, params, m=1):
        built.append(m)
        real_init(self, P1, W, k, params, m)

    monkeypatch.setattr(G._PairOrbitSum, "__init__", counted)
    pp = {1: Fraction(1), 2: Fraction(3)}
    p = GreenParams(tol=1e-8)
    val, diag = G_kf_at_cycle(4, pp, -7, -23, p)
    assert sorted(built) == [1] * 2 + [2] * 6 and diag["orbit_sums"] == 4
    recs = {(rec["pair"][1], rec["m"]): rec for rec in diag["per_pair"]}
    assert [key for key, rec in recs.items() if rec["reused"]] == \
        [("CM(2,1,3)", 1), ("CM(2,1,3)", 2)]
    for m in (1, 2):
        mirror, reused = recs["CM(2,-1,3)", m], recs["CM(2,1,3)", m]
        assert {key: reused[key] for key in ("value", "terms", "upgraded")} == \
            {key: mirror[key] for key in ("value", "terms", "upgraded")}
    # the mirror pair's coefficient on its partner's sums gives the value of
    # every pair summed, to rounding
    built.clear()
    with monkeypatch.context() as mp:
        mp.setattr(G, "_mirror", lambda P: P)
        every, every_diag = G_kf_at_cycle(4, pp, -7, -23, p)
    assert len(built) == 12 and every_diag["orbit_sums"] == 6
    assert not any(rec["reused"] for rec in every_diag["per_pair"])
    assert every_diag["T"] == diag["T"]
    assert abs(val - every) <= 1e-13 * max(1, abs(every)), (val, every)
    # (h1 h2 + t1 t2)/2 sums for t self-mirrored points among h
    for d1, d2 in [(-7, -23), (-3, -23), (-7, -71), (-15, -23)]:
        built.clear()
        pts1, pts2 = cm_points(d1), cm_points(d2)
        t1 = sum(G._mirror(P) == P for P in pts1)
        t2 = sum(G._mirror(P) == P for P in pts2)
        _, diag = G_kf_at_cycle(4, {1: Fraction(1)}, d1, d2, p)
        assert len(built) == diag["orbit_sums"] == (len(pts1) * len(pts2) + t1 * t2) // 2


def test_reused_pair_records_are_marked():
    # CM(2,1,3) is the mirror of CM(2,-1,3) and CM(1,1,2) its own, so the third
    # pair of (-7, -23) reuses the second one's sum
    val, diag = G_kf_at_cycle(4, {1: Fraction(1)}, -7, -23, GreenParams())
    assert diag["pairs"] == 3 and diag["orbit_sums"] == 2
    reused = [p for p in diag["per_pair"] if p["reused"]]
    assert [p["pair"] for p in reused] == [["CM(1,1,2)", "CM(2,1,3)"]]
    (mirror,) = [p for p in diag["per_pair"] if p["pair"][1] == "CM(2,-1,3)"]
    assert not mirror["reused"] and reused[0]["value"] == mirror["value"]


def test_cycle_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        G_kf_at_cycle(4, {1: Fraction(1)}, -7, -7, GreenParams())
    with pytest.raises(InvalidInputError):
        G_kf_at_cycle(4, {1: Fraction(1)}, -7, 5, GreenParams())
    with pytest.raises(InvalidInputError):
        # S_24 is nontrivial: principal part q^{-1} is obstructed at k = 12
        G_kf_at_cycle(12, {1: Fraction(1)}, -4, -7, GreenParams())


def test_params_validation():
    # k is an argument of the sum, not a parameter: G_k_hecke checks it
    for k in (3, 0, -2):
        with pytest.raises(InvalidInputError, match="k must be an even integer"):
            G_k_hecke(I, _form("0.3", "1.2"), k, 1)
    assert [f.name for f in dataclasses.fields(GreenParams)] == ["tol", "digits"]
    with pytest.raises(InvalidInputError):
        GreenParams(digits=10)
    with pytest.raises(InvalidInputError):
        GreenParams(tol=1e-40, digits=20)


@pytest.mark.parametrize("route, k, d1, d2", [("nsum", 4, -7, -23), ("orbit", 2, -4, -7)])
def test_params_without_a_doubling_or_finite_start_refused(route, k, d1, d2, monkeypatch):
    # the ladder's start and length are constants now, so nothing is left to
    # refuse; a ladder of one rung still reports a value on both routes
    pp = {1: Fraction(1)}
    monkeypatch.setattr(G, "MAX_DOUBLINGS", 1)
    _, diag = G.cycle_value(k, pp, d1, d2, GreenParams(tol=1e-6))
    assert diag["route"] == route and not diag["converged"]


def _run_ladder(errors, tol, k=4, limit=-4.0):
    """_ladder on a step whose value at rung i is limit + errors[i], as a
    partial sum and a tail of 3: (value, history, converged, calls)."""
    calls = []

    def step(T, T_prev):
        calls.append((T, T_prev))
        return limit + errors[len(calls) - 1] - 3, 3, {"rung": len(calls)}

    value, history, converged = G._ladder(step, GreenParams(tol=tol), k)
    return value, history, converged, calls


@pytest.mark.parametrize("k", [2, 4, 6])
def test_ladder_stops_on_a_geometric_error_at_the_first_rung_below_tol(k):
    # an error that falls on the envelope C T^-(k - 1/2): every move carried
    # to the last rung is (2^alpha - 1) times its error, and the ladder stops
    # on the first rung from the third on where twice that is below tol
    alpha = k - 0.5
    tol = 1e-6
    errors = [0.3 * 2 ** (-alpha * i) for i in range(G.MAX_DOUBLINGS)]
    ratio = G.ESTIMATE_SAFETY * (2 ** alpha - 1)
    value, history, converged, calls = _run_ladder(errors, tol, k)
    stop = next(i for i, e in enumerate(errors) if i >= 2 and ratio * e < tol)
    assert converged and len(history) == stop + 1
    assert value == pytest.approx(-4.0 + errors[stop], rel=0, abs=1e-15)
    assert calls[:2] == [(25.0, None), (50.0, 25.0)]
    assert history[0] == {"T": 25.0, "rung": 1, "partial": -7.0 + errors[0], "tail": 3.0,
                          "estimate": None}
    for h, e in zip(history[1:], errors[1:]):
        assert h["estimate"] == pytest.approx(ratio * e, rel=1e-9) and h["estimate"] > e
    # an error that falls faster than the envelope is overestimated more
    errors = [0.3 * 2 ** (-(alpha + 1) * i) for i in range(G.MAX_DOUBLINGS)]
    value, history, converged, _ = _run_ladder(errors, tol, k)
    assert converged and history[-1]["estimate"] < tol
    assert all(h["estimate"] > ratio * e for h, e in zip(history[1:], errors[1:]))


def test_ladder_does_not_stop_on_one_accidentally_small_move(monkeypatch):
    # the k = 2 remainder oscillates: here the error changes sign twice and
    # is the same at rungs 3 and 4, so the move into rung 4 is 0 while the
    # error is still 0.3; the moves before it keep the estimate up
    errors = [0.8, -0.5, 0.3, 0.3, -0.1, 0.03, -0.01, 0.002, -4e-4, 1e-4, -2e-5, 4e-6, 1e-7]
    value, history, converged, _ = _run_ladder(errors, 1e-3, k=2)
    assert history[3]["estimate"] > 0.3
    assert converged and len(history) > 4
    assert history[-1]["estimate"] >= abs(errors[len(history) - 1])
    # a rule on the last move alone would have stopped there, 0.3 off
    monkeypatch.setattr(G, "ESTIMATE_WINDOW", 1)
    value, history, converged, _ = _run_ladder(errors, 1e-3, k=2)
    assert converged and len(history) == 4
    assert value == pytest.approx(-4.0 + 0.3, rel=0, abs=1e-15)


def test_ladder_does_not_stop_on_the_second_rung():
    # one move is no estimate to stop on: the error at T = 800 may not have
    # moved from T = 400 yet
    errors = [5e-9, 5e-9, 1e-10, 1e-12, 1e-13, 1e-14]
    value, history, converged, _ = _run_ladder(errors, 1e-6)
    assert history[1]["estimate"] == 0.0
    assert converged and len(history) == 3 and errors[2] < history[2]["estimate"] < 1e-6


def test_ladder_out_of_rungs_returns_its_last_value(monkeypatch):
    monkeypatch.setattr(G, "MAX_DOUBLINGS", 3)
    value, history, converged, _ = _run_ladder([1.0, 0.5, 0.25, 0.125], 1e-3)
    assert not converged and value == pytest.approx(-4.0 + 0.25, rel=0, abs=1e-15)
    assert [h["T"] for h in history] == [25.0, 50.0, 100.0]
    assert history[-1]["estimate"] >= 1e-3


def test_ladder_starts_at_four_times_the_upgrade_bound(monkeypatch):
    # the first rung is INITIAL_T doubled until it is at least four times
    # the upgrade bound (4 at tol >= 1e-12, 64 below)
    assert _run_ladder([0, 0, 0], tol=1e-6)[3][0] == (25.0, None)
    assert _run_ladder([0, 0, 0], tol=1e-12)[3][0] == (25.0, None)
    assert _run_ladder([0, 0, 0], tol=9.9e-13)[3][0] == (400.0, None)
    monkeypatch.setattr(G, "INITIAL_T", 100.0)
    assert _run_ladder([0, 0, 0], tol=1e-8)[3][0] == (100.0, None)
    assert _run_ladder([0, 0, 0], tol=1e-13)[3][0] == (400.0, None)


@pytest.mark.parametrize("tol", [1e-8, 1e-13])
def test_ladder_keeps_every_rung_from_400_to_the_top(tol):
    # the rungs below 400 are added ones: every 400 * 2^j up to the top rung
    # 400 * 2^27 is still a rung, so a sum that stopped there still can
    errors = [(-1.0) ** i for i in range(G.MAX_DOUBLINGS)]
    _, _, converged, calls = _run_ladder(errors, tol)
    Ts = [T for T, _ in calls]
    assert not converged and len(Ts) == G.MAX_DOUBLINGS
    assert all(b == 2 * a for a, b in zip(Ts, Ts[1:]))
    assert {400.0 * 2 ** j for j in range(28)} <= set(Ts)
    if tol >= 1e-12:
        assert Ts[0] == 25.0 and Ts[-1] == 400.0 * 2 ** 27


def test_ladder_history_keys_of_both_routes():
    # both routes climb one ladder per value and report the same keys
    common = {"T", "terms", "upgraded", "history", "estimate", "converged"}
    _, diag = G_k_hecke(I, _form("0.3", "1.2"), 4, 2, GreenParams(tol=1e-6))
    assert set(diag) == common | {"cosets"}
    assert [set(cd) for cd in diag["cosets"]] == [{"coset", "terms", "upgraded"}] * 3
    assert {tuple(h) for h in diag["history"]} == {("T", "terms", "partial", "tail", "estimate")}
    _, diag = G.cycle_value(2, {1: Fraction(1)}, -4, -7, GreenParams(tol=1e-6))
    assert diag["route"] == "orbit"
    assert set(diag) == common | {"route", "pairs", "orbit_sums", "weight", "per_pair"}
    assert {tuple(h) for h in diag["history"]} == {("T", "terms", "partial", "tail", "estimate")}
    assert [set(rec) for rec in diag["per_pair"]] == \
        [{"pair", "m", "value", "terms", "upgraded", "reused"}]
    _, diag = G.cycle_value(4, {1: Fraction(1)}, -7, -23, GreenParams(tol=1e-6))
    assert diag["route"] == "nsum"
    assert set(diag) == common | {"route", "n_values"}
    assert {tuple(h) for h in diag["history"]} == \
        {("T", "n_values", "terms", "partial", "tail", "estimate")}


def test_hecke_estimate_bounds_the_value_not_each_coset():
    # with a ladder per coset sum, the coset (1, 1, 3) of this k = 2 sum
    # stopped at T = 3200 on an estimate of 2.8e-6 while it erred by 3.7e-6,
    # and the value erred by 3.3e-6, above tol; one ladder for the value
    # stops on the value's estimate, which covers the error
    P1, P2 = CMPoint(2, -1, 3), CMPoint(2, 0, 3)
    val, diag = G_k_hecke(P1, P2, 2, 3, GreenParams(tol=3e-6))
    ref, ref_diag = G_k_hecke(P1, P2, 2, 3, GreenParams(tol=1e-8))
    assert diag["converged"] and ref_diag["converged"]
    err = abs(val - ref)
    assert err < 3e-6 and err <= diag["estimate"] < 3e-6, (err, diag["estimate"])


def test_laplacian_eigenvalue_k4():
    # -y^2 (d_xx + d_yy) G_4(., 2i) = k(1-k) G_4 = -12 G_4, to O(h^2)
    z2 = CMPoint(1, 0, 4)       # 2i
    x0, y0 = Fraction("0.07"), Fraction("1.13")
    h = mpf(10) ** -3
    dx = Fraction(1, 1000)     # h, exactly
    p = GreenParams(tol=1e-12, digits=30)

    def val(x, y):
        v, _ = G_k_hecke(_form(x, y), z2, 4, 1, p)
        return v

    center = val(x0, y0)
    lap = (val(x0 + dx, y0) + val(x0 - dx, y0) + val(x0, y0 + dx)
           + val(x0, y0 - dx) - 4 * center) / (h * h)
    disc = -(mpf(y0.numerator) / y0.denominator) ** 2 * lap
    target = -12 * center
    assert abs(disc - target) < 5e-5 * max(1, abs(target))


# ---------------------------------------------------------------------------
# shell-by-shell enumeration
# ---------------------------------------------------------------------------

def _brute_counts(z1, w, Ts):
    """Matrices in PSL_2(Z) with cosh d(z1, gamma w) <= T, for each T in Ts.

    A plain loop over (c, d, a) with b = (a d - 1)/c.  The entries are
    bounded through a^2+b^2+c^2+d^2 = 2 cosh d(i, gamma i) and the triangle
    inequality via i: cosh d(i, gamma i) <= e^{d(i, z1) + d(i, w)} cosh d(z1, gamma w).
    """
    z1, w = complex(z1), complex(w)

    def exp_dist_to_i(z):
        ch = 1 + abs(z - 1j) ** 2 / (2 * z.imag)
        return ch + math.sqrt(ch * ch - 1)

    R = isqrt(int(2 * exp_dist_to_i(z1) * exp_dist_to_i(w) * max(Ts))) + 1
    coshes = []
    for c in range(R + 1):
        for d in range(-R, R + 1):
            if gcd(c, d) != 1 or (c == 0 and d != 1):
                continue   # one of +-gamma: c > 0, or c = 0 and d = 1
            if c == 0:
                ab = [(1, b) for b in range(-R, R + 1)]
            else:
                a0 = pow(d, -1, c)
                ab = [(a, (a * d - 1) // c)
                        for a in range(a0 - (a0 + R) // c * c, R + 1, c)]
            for a, b in ab:
                gw = (a * w + b) / (c * w + d)
                coshes.append(1 + abs(z1 - gw) ** 2 / (2 * z1.imag * gw.imag))
    # no cosh within float error of a bound, so floats decide like exact arithmetic
    assert all(abs(t - T) > 1e-9 * T for t in coshes for T in Ts)
    return [sum(t <= T for t in coshes) for T in Ts]


def _climb(z1, z2, k, m, Ts, params):
    """[(coset, [terms after each rung])] of the coset sums of G_k | T_m
    (z1, z2), each stepped over the rungs Ts."""
    out = []
    for coset, s in G._hecke_sums(z1, z2, k, m, params):
        counts = []
        for T, T_prev in zip(Ts, [None] + Ts[:-1]):
            s.step(T, T_prev)
            counts.append(s.terms)
        out.append((coset, counts))
    return out


@pytest.mark.parametrize("z1,z2,m,T0", [
    (I, RHO, 1, 400), (RHO, I, 1, 800), (I, RHO, 2, 400), (RHO, I, 3, 400),
], ids=["i-rho-m1", "rho-i-m1", "i-rho-m2", "rho-i-m3"])
def test_shell_counts_match_brute_force(z1, z2, m, T0):
    # each coset sum stepped over the rungs T0, 2 T0, 4 T0 (upgrade bound 64)
    Ts = [T0, 2 * T0, 4 * T0]
    climbed = _climb(z1, z2, 4, m, Ts, GreenParams(tol=1e-25))
    assert len(climbed) == sum(m // a for a in range(1, m + 1) if m % a == 0)
    for (a, b, d), counts in climbed:
        w = (a * z2.z() + b) / d
        assert counts == _brute_counts(z1.z(), w, Ts)


def _g2_i_z7_closed_form():
    """Half of criterion 4a's closed form for G_2(i, z_7): the k = 2 cycle
    value of (-4, -7), whose one CM pair has weight 4/(4 * 2)."""
    s7 = mpmath.sqrt(7)
    return -(4 / mpmath.sqrt(28)) * mpmath.log((8 + 3 * s7) / (8 - 3 * s7))


@pytest.mark.parametrize("k,d1,d2,tol,value,terms", [
    (4, -7, -23, 1e-10, "-4.157888612785564504729481", [9578, 9593, 9593]),
    (2, -4, -7, 1e-7, "-4.1858195399339313519", [307462]),
], ids=["k4", "k2"])
def test_cycle_values_pinned(k, d1, d2, tol, value, terms):
    # value and term counts of the ladder that stops on its error estimate.
    # Each is within its reported estimate of an independent reference: at
    # k = 4 the value the orbit route and the n-sum agree on at tol 1e-12 (to
    # 3e-18), at k = 2 the closed form
    got, diag = G_kf_at_cycle(k, {1: Fraction(1)}, d1, d2, GreenParams(tol=tol))
    assert diag["converged"]
    assert abs(got - mpf(value)) < 1e-12
    assert [p["terms"] for p in diag["per_pair"]] == terms
    assert all(0 < p["upgraded"] < p["terms"] for p in diag["per_pair"])
    reference = mpf("-4.15788861278509761") if k == 4 else _g2_i_z7_closed_form()
    assert abs(got - reference) <= diag["estimate"]


def test_upgrade_pass_runs_once_per_orbit_sum(monkeypatch):
    calls = []
    orig = G._PairOrbitSum._upgrade_sum

    def counted(self, upgrades):
        calls.append(len(upgrades))
        return orig(self, upgrades)

    monkeypatch.setattr(G._PairOrbitSum, "_upgrade_sum", counted)
    _, diag = G_k_hecke(_form("0.13", "1.21"), _form("-0.4", "0.9"), 4, 2,
                        GreenParams(tol=1e-9))
    assert len(calls) == len(diag["cosets"]) == 3 and len(diag["history"]) >= 3
    for n, cd in zip(calls, diag["cosets"]):
        assert cd["upgraded"] == n > 0


def test_later_shell_below_upgrade_bound_is_an_error():
    # a shell starting below upgrade_cosh (4 at this tol) would hold terms the
    # mpmath pass skips; this pair has terms with cosh in (2, 4]
    s = G._PairOrbitSum(I, _form("0.3", "1.2"), 4, GreenParams())
    count, _, _, upgrades = s._terms_below(400.0)
    assert count > 0 and upgrades
    with pytest.raises(RuntimeError, match="upgrade bound"):
        s._terms_below(400.0, 2.0)


def test_float_q_accurate_above_upgrade_bound():
    # above the upgrade bound the float series stands in for mpmath
    assert GreenParams(tol=1e-12).upgrade_cosh == 4.0
    assert GreenParams(tol=1e-13).upgrade_cosh == 64.0
    # relative error bound per n = k - 1 up to MAX_K - 1; measured maxima on
    # [4, 64] are 6.1e-16, 1.8e-15, 6.0e-15, 1.75e-14, 4.6e-14 and 1.1e-13
    bounds = {1: 2e-15, 3: 4e-15, 5: 1.2e-14, 7: 2e-14, 9: 6e-14, 11: 1.5e-13}
    assert max(bounds) == MAX_K - 1
    t = np.geomspace(4.0, 64.0, 100)
    for n, bound in bounds.items():
        got = G._q_float_factory(n)(t)
        for x, g in zip(t, got):
            ref = legendre_Q(n, float(x), dps=40)
            assert abs(g - ref) <= bound * ref, (n, x)


def _q_series_reference(n, terms):
    """The Q_n series coefficients by the Fraction recurrence of the ratio
    a_{j+1}/a_j = (n/2 + 1 + j)(n/2 + 1/2 + j) / ((n + 3/2 + j)(j + 1))."""
    out = [Fraction(1)]
    for j in range(terms - 1):
        num = (Fraction(n, 2) + 1 + j) * (Fraction(n + 1, 2) + j)
        den = (Fraction(n) + Fraction(3, 2) + j) * (j + 1)
        out.append(out[-1] * num / den)
    return out


@pytest.mark.parametrize("n", range(MAX_K))
def test_q_series_coefficients_match_fraction_recurrence(n):
    ref = _q_series_reference(n, 60)
    got = G._q_series_coeffs(n, 60)
    assert got == [(a.numerator, a.denominator) for a in ref]
    # the float series inside qf, bit for bit
    floats = inspect.getclosurevars(G._q_float_factory(n)).nonlocals["coeffs"]
    assert [c.hex() for c in floats] == [float(a).hex() for a in ref[:12]]
    for dps in (30, 50):
        vals, _ = G._q_coeffs_mpf(n, dps)
        with mpmath.workdps(dps):
            want = [mpf(a.numerator) / a.denominator for a in ref]
        assert [v._mpf_ for v in vals[:60]] == [w._mpf_ for w in want]


def _kernel_ns(y2, rng):
    """n in both regimes of q_fixed at y2: the ends t -> 1 and t = 2 of the
    closed form, the first n of the series, and seeded t in (1, 2], (2, 64]."""
    s, two = isqrt(y2), isqrt(4 * y2)
    ns = {s + 1, two, two + 1}
    for lo, hi in ((s + 1, two), (two + 1, isqrt(4096 * y2))):
        ns.update(rng.randint(lo, hi) for _ in range(2))
    return sorted(ns)


@pytest.mark.parametrize("dps", [30, 40, 100, 1000])
def test_q_fixed_matches_legendre_q(dps):
    # the integer kernel of the upgrade pass at dps digits against the mpmath
    # reference, every even k the package admits; the reference takes 10
    # more digits, since t - 1 of the mpf t loses digits as t -> 1 (2e-27
    # relative at n = 1000, Delta = 999996 and 30 digits)
    rng = random.Random(dps)
    bits = G._fixed_bits(dps)
    bound = mpf(10) ** (2 - dps)
    for k in range(2, MAX_K + 1, 2):
        for m in (1, 2):
            for Delta in (28, 161, 999996):
                y2 = m * m * Delta
                for n in _kernel_ns(y2, rng):
                    with mpmath.workdps(dps):
                        got = mpf(G.q_fixed(k, n, y2, bits))
                    with mpmath.workdps(dps + 10):
                        ref = legendre_Q(k - 1, mpf(n) / mpmath.sqrt(y2))
                        assert abs(got - ref) <= bound * ref, (k, m, Delta, n)
    with pytest.raises(SingularConfigurationError):
        G.q_fixed(4, 12, 161, bits)


@pytest.mark.parametrize("dps", [30, 40, 100, 1000])
def test_q_tail_fixed_matches_legendre_q_integral(dps):
    bits = G._fixed_bits(dps)
    bound = mpf(10) ** (2 - dps)
    with mpmath.workdps(dps):
        for n in range(1, MAX_K, 2):
            for T in (25.0, 400.0, 51200.0, 1.6e6):
                ref = legendre_Q_integral(n, T)
                got = mpf(G.q_tail_fixed(n, T, bits))
                assert abs(got - ref) <= bound * ref, (n, T)


def test_legendre_q_outputs_pinned():
    # both regimes of legendre_Q and the tail integral at 30, 40 and 100
    # digits, pinned by a digest of the values before the mpf coefficient
    # table became one cached build per (n, dps)
    h = hashlib.sha256()
    for dps in (30, 40, 100):
        with mpmath.workdps(dps):
            for n in range(12):
                for t in ("1.25", "2", "2.0001", "7.5", "1000"):
                    h.update(repr(G.legendre_Q(n, mpf(t))._mpf_).encode())
                if n:
                    for T in ("2.5", "400", "3200"):
                        h.update(repr(G.legendre_Q_integral(n, mpf(T))._mpf_).encode())
    assert h.hexdigest() == "0e782bffdbcd57e9d123fdf80f60df7a082f12b1f8a476d729e09ab5f5013e7a"


def _psi_mp(x):
    """The exp(-1/x) step in mpmath: 1 up to 1/2, 0 from 1 on."""
    s = 2 * x - 1
    if s <= 0:
        return mpf(1)
    if s >= 1:
        return mpf(0)
    return 1 / (1 + mpmath.exp(1 / (1 - s) - 1 / s))


def test_taper_rule_pinned():
    # the 64 nodes and weights, bit for bit as Newton-polishing every root
    # of P_64 (not only the positive ones) gave them
    nodes, weights = G._taper_rule()
    assert len(nodes) == len(weights) == 64
    digest = hashlib.sha256(struct.pack("<128d", *nodes, *weights)).hexdigest()
    assert digest == "1e47c38edcf01dbcf115b0af3f910c95a9331aee23fbf79e0bd25260ccafe6c6"


def test_taper_rule_constants_are_the_newton_polish():
    # the 32 positive roots of P_64 and their weights, bit for bit as Newton
    # polishing in floats gives them: 4 steps from cos(pi (i - 1/4) / 64.5)
    # reach rounding level, and a step that leaves x unchanged would repeat
    n = 64
    polished = []
    for i in range(1, n // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(6):
            p = G._legendre_p_values(n, x)
            dp = n * (x * p[n] - p[n - 1]) / (x * x - 1)
            x, x_prev = x - p[n] / dp, x
            if x == x_prev:
                break
        polished.append((x.hex(), (2 / ((1 - x * x) * dp * dp)).hex()))
    assert [(float.fromhex(x).hex(), float.fromhex(w).hex()) for x, w in G._GL64] == polished


def test_taper_integral_matches_quadrature():
    # int_{T/2}^T (1 - psi(t/T)) Q_n(t) dt = T^-n int_{1/2}^1 (1 - psi) T^{n+1} Q_n(T x) dx,
    # the integrand scaled to order one so quad's absolute error is relative
    for n in (1, 3, 5):
        qf = G._q_float_factory(n)
        for T in (25.0, 50.0, 100.0, 400.0, 25600.0, 1.6e6):
            with mpmath.workdps(30):
                scale = mpf(T) ** (n + 1)
                ref = mpmath.quad(lambda x: (1 - _psi_mp(x)) * scale * legendre_Q(n, T * x),
                                  [0.5, 0.75, 1]) / mpf(T) ** n
            got = G._taper_integral(qf, T)
            assert abs(got - ref) <= 1e-13 * ref, (n, T, got, ref)


@pytest.mark.parametrize("z1,z2,m", [
    (I, RHO, 1), (RHO, I, 3), (_form("0.13", "1.21"), _form("-0.4", "0.9"), 2), (I, Z7, 1),
], ids=["i-rho-m1", "rho-i-m3", "generic-m2", "i-z7"])
def test_shell_density_is_six(z1, z2, m):
    # every coset's orbit has 6 elements of PSL_2(Z) per unit of cosh, elliptic
    # points included; the tail assumes it, so a shell that strays flags a
    # broken enumeration
    Ts = [400.0 * 2 ** j for j in range(8)]     # T = 400 ... 51200
    for coset, counts in _climb(z1, z2, 4, m, Ts, GreenParams(tol=1e-25)):
        for j in range(1, len(Ts)):
            if Ts[j] >= 3200:
                density = (counts[j] - counts[j - 1]) / (Ts[j] - Ts[j - 1])
                assert abs(density - 6) <= 0.1, (coset, Ts[j], density)


def test_orbit_sum_loads_no_polynomial_or_scipy():
    # numpy.polynomial alone adds ~2 MB of resident memory to an orbit sum
    code = (
        "import sys\n"
        "from hgreen.greens import CMPoint, G_k_hecke, GreenParams\n"
        "G_k_hecke(CMPoint(1, 0, 1), CMPoint(50, 50, 97), 2, 2, GreenParams(tol=1e-6))\n"
        "print(' '.join(m for m in sys.modules\n"
        "               if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(G.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == ""


def test_coset_bound_exact_at_every_doubling():
    # X = v0 / (y1 (T - sqrt(T^2 - 1))) must not lose the terms near the
    # v-window edge: the float X is at least the exact one (within 1e-12),
    # and finite at every T the ladder reaches from its first rung, 25 or 400
    z1, w = _form("0.13", "1.21"), _form("-0.4", "0.9")
    s = G._PairOrbitSum(z1, w, 2, GreenParams())
    with mpmath.workdps(60):
        for T in sorted({T0 * 2.0 ** j for T0 in (25, 400) for j in range(G.MAX_DOUBLINGS)}):
            X, cmax = s._coset_bound(T)
            exact = mpf(s.vf) / (mpf(s.y1f) * (T - mpmath.sqrt(mpf(T) ** 2 - 1)))
            assert math.isfinite(X) and cmax >= 1
            assert X >= exact * (1 - mpf(10) ** -12), (T, X, exact)


def test_inverse_table_matches_pow():
    tab = G._inverse_table(600).tolist()
    for c in range(1, 601):
        row = tab[c * (c - 1) // 2:c * (c + 1) // 2]
        for r in range(c):
            assert row[r] == (pow(r, -1, c) if gcd(r, c) == 1 else 0), (c, r)


def test_inverse_table_is_shared_and_read_only():
    tab = G._inverse_table(50)
    assert not tab.flags.writeable
    with pytest.raises(ValueError):
        tab[4] = 1
    # a table that already holds the rows is returned as it is
    assert G._inverse_table(49) is G._inverse_table(50)


def _clear_caches():
    for f in vars(G).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def test_cached_values_keep_their_precision():
    # dyadic points: the translates with c = 0 have cosh values that are the
    # same mpf at 30 and at 50 digits, and every T on the ladder is too, so a
    # cache keyed without the precision would serve 30-digit values at 50
    z1, z2 = I, _form("0.25", "0.5")
    p30 = GreenParams(tol=1e-8, digits=30)
    p50 = GreenParams(tol=1e-8, digits=50)
    _clear_caches()
    cold = G_k_hecke(z1, z2, 4, 2, p50)
    _clear_caches()
    G_k_hecke(z1, z2, 4, 2, p30)
    warm = G_k_hecke(z1, z2, 4, 2, p50)
    assert warm[0] == cold[0] and warm[1] == cold[1]


def test_one_q_per_distinct_n(monkeypatch):
    # the upgrade sets of a cycle's pairs and cosets repeat their n; each
    # distinct (m, n) costs one fixed-point Q, and the cycle value calls the
    # mpmath reference legendre_Q (and its tail integral) not at all
    seen = set()
    upgraded = []
    real_sum, real_q = G._PairOrbitSum._upgrade_sum, G.q_fixed
    q_calls = []

    def recorded(self, upgrades):
        seen.update((self.m, n) for n in upgrades)
        upgraded.append(len(upgrades))
        return real_sum(self, upgrades)

    def counted(*args):
        q_calls.append(args)
        return real_q(*args)

    def refused(*args, **kwargs):
        raise AssertionError("the mpmath reference on the cycle value path")

    monkeypatch.setattr(G._PairOrbitSum, "_upgrade_sum", recorded)
    monkeypatch.setattr(G, "q_fixed", counted)
    monkeypatch.setattr(G, "legendre_Q", refused)
    monkeypatch.setattr(G, "legendre_Q_integral", refused)
    _clear_caches()
    _, diag = G_kf_at_cycle(6, {1: Fraction(24), 2: Fraction(1)}, -7, -23)
    assert diag["converged"]
    assert len(q_calls) == len(seen) < sum(upgraded)


def test_upgrade_set_off_the_integers_is_an_error():
    # every cosh is n/(m sqrt(Delta)); a float kernel that strays a quarter
    # from an integer n is a fault, not a value
    s = G._PairOrbitSum(I, Z7, 4, GreenParams())
    assert s.Delta == 28 and s._terms_below(400.0)[3]
    s.msD *= math.sqrt(2)
    with pytest.raises(RuntimeError, match="from an integer n"):
        s._terms_below(400.0)


def test_cycle_value_is_the_same_on_a_second_call():
    p = GreenParams(tol=1e-8)
    first = G_kf_at_cycle(4, {1: Fraction(1), 2: Fraction(3)}, -4, -23, p)
    second = G_kf_at_cycle(4, {1: Fraction(1), 2: Fraction(3)}, -4, -23, p)
    assert second[0] == first[0] and second[1] == first[1]


def _brute_d_range(s, c, X):
    """The candidate d of c: (c u0 + d)^2 <= X - (c v0)^2, in scalar floats."""
    rad2 = X - (c * s.vf) ** 2
    if rad2 <= 0:
        return range(0)
    rad = math.sqrt(rad2)
    return range(math.ceil(-c * s.uf - rad), math.floor(-c * s.uf + rad) + 1)


def _brute_cosets(s, T, T_lo):
    """(c, d, a, u, v, inner) of every coset in the d-ranges at T, one at a time.

    Scalar float arithmetic, a = pow(d, -1, c) and a gcd test: the oracle for
    the whole-array generator.
    """
    u0, v0 = s.uf, s.vf
    X, cmax = s._coset_bound(T)
    X_lo, cmax_lo = s._coset_bound(T_lo) if T_lo is not None else (0.0, 0)
    out = [(0, 1, 1, u0, v0, T_lo is not None)]
    for c in range(1, cmax + 1):
        inner = _brute_d_range(s, c, X_lo) if c <= cmax_lo else range(0)
        for d in _brute_d_range(s, c, X):
            if gcd(c, d) != 1:
                continue
            a = pow(d, -1, c)
            cd = c * u0 + d
            denom2 = cd * cd + (c * v0) ** 2
            out.append((c, d, a, a / c - cd / (c * denom2), v0 / denom2, d in inner))
    return out


def test_coset_blocks_match_brute_force():
    rng = random.Random(3)
    multi = 0
    for _ in range(12):
        z1 = _form(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.5))
        w = _form(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 2.5))
        s = G._PairOrbitSum(z1, w, 4, GreenParams())
        T = rng.choice([400.0, 3200.0, 25600.0])
        for T_lo in (None, T / 2):
            blocks = [list(zip(*(col.tolist() for col in b)))
                      for b in s._coset_blocks(T, T_lo)]
            got = [row for b in blocks for row in b]
            # in order of (c, d), each c in one block, and a block covers
            # consecutive c with at most COSET_BLOCK candidate d, or one c
            assert got == sorted(got, key=lambda row: row[:2])
            X = s._coset_bound(T)[0]
            for b, nxt in zip(blocks, blocks[1:]):
                c_lo, c_hi = b[0][0], b[-1][0]
                assert c_lo == c_hi or sum(
                    len(_brute_d_range(s, c, X)) for c in range(c_lo, c_hi + 1)
                ) <= G.COSET_BLOCK
                assert nxt[0][0] > b[-1][0]
            multi += len(blocks) > 1
            assert got == _brute_cosets(s, T, T_lo), (z1, w, T, T_lo)
    assert multi > 0


def test_orbit_sum_memory_is_bounded_by_a_block():
    # each coset block is reduced to its two Q sums before the next is built;
    # a buffer of a whole shell (~307k floats in the last one here) and its Q
    # temporaries would peak near 18 MB
    z2 = Z7
    tracemalloc.start()
    try:
        _, diag = G_k_hecke(I, z2, 2, 1, GreenParams(tol=1e-7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag["converged"]
    assert peak < 8 * 2 ** 20, peak


def test_float_power_squares_like_python_floats():
    # the coset generator squares c*v0 with np.float_power, which rounds like
    # scalar float ** 2 (the C pow); x * x rounds differently for ~0.1% of x,
    # so the whole-array windows would drift from the scalar ones in the last bit
    x = np.random.default_rng(0).random(200_000) * np.geomspace(1, 1e6, 200_000)
    assert np.float_power(x, 2).tolist() == [v ** 2 for v in x.tolist()]
    assert (x * x != np.float_power(x, 2)).any()


def test_scope_corner_k4_cycle_at_delta_999996():
    # the largest Delta in scope; 348 CM pairs share their Q values and tails
    import time
    t0 = time.perf_counter()
    val, diag = G_kf_at_cycle(4, {1: Fraction(1)}, -3, -333332, GreenParams(tol=1e-8))
    assert time.perf_counter() - t0 < 10.0
    assert diag["converged"] and diag["pairs"] == 348
    assert diag["terms"] == 844566 and sum(p["terms"] for p in diag["per_pair"]) == 1669944
    assert abs(val - mpf("-129.358257064366326616349255147")) < 1e-12
