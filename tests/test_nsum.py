"""The n-sum route of the cycle value against the orbit route and the ideal count.

cycle_nsum reads rho_{K/F}((mu0)) from a sieve of Nm(mu0) and sums
rho Q_{k-1}(n/(m sqrt(Delta))) over n; G_kf_at_cycle sums g_k over the
PSL_2(Z)-orbits of the CM pairs.  The two share only the Q evaluators (the
fixed-point pass greens.upgrade_sum among them), the taper and the tail integral,
so their agreement checks the identity, the sieve and the enumeration at once.
"""

from collections import Counter
from fractions import Fraction
from math import fsum, gcd, isqrt, sqrt

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import hgreen.greens as G
import hgreen.nsum as NS
from hgreen.finquad import GenusChar
from hgreen.greens import G_kf_at_cycle, GreenParams, cm_points, unit_weight
from hgreen.mforms import cusp_basis
from hgreen.nsum import cycle_nsum
from hgreen.qfield import FracIdeal, field
from oracles import class_rho

SMALL = [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24]
PAIRS = [(a, b) for a in SMALL for b in SMALL if b < a and gcd(a, b) == 1]


def _principal_part(k, m):
    """An unobstructed principal part with the Hecke term q^-m: {m: 1} at
    k = 4 (S_8 = 0), {1: -a(m), m: 1} against the one cusp form sum a(n) q^n
    of weight 2k at k = 6, 8 (m >= 2)."""
    if k == 4:
        return {m: Fraction(1)}
    (g,) = cusp_basis(2 * k, m + 1)
    return {1: Fraction(-g[m]), m: Fraction(1)}


@st.composite
def cycles(draw):
    d1, d2 = draw(st.sampled_from(PAIRS))
    k = draw(st.sampled_from([4, 6, 8]))
    m = draw(st.integers(1 if k == 4 else 2, 6 if d1 * d2 <= 100 else 2))
    return k, _principal_part(k, m), d1, d2


@seed(2018)
@settings(max_examples=40, deadline=None, database=None)
@given(cycles())
@example((4, {1: Fraction(1)}, -3, -7))                          # two elliptic
@example((4, {1: Fraction(1)}, -4, -23))                         # d = -4
@example((4, {2: Fraction(1)}, -4, -15))                         # 2 | m, 2 | Delta
@example((4, {3: Fraction(1)}, -3, -8))                          # 3 | m, 3 | Delta
@example((4, {6: Fraction(1)}, -3, -4))                          # m = 6, 2 and 3
@example((6, {1: Fraction(24), 2: Fraction(1)}, -7, -23))        # the Hecke case
@example((8, {1: Fraction(-216), 2: Fraction(1)}, -4, -7))       # k = 8, 2 | Delta
def test_nsum_matches_orbit_route(case):
    k, pp, d1, d2 = case
    tol = 1e-9
    params = GreenParams(tol=tol)
    got, diag = cycle_nsum(k, pp, d1, d2, params)
    want, odiag = G_kf_at_cycle(k, pp, d1, d2, params)
    assert diag["converged"] and odiag["converged"]
    assert diag["route"] == "nsum" and diag["terms"] <= diag["n_values"]
    # one ladder on the cycle value each: the same rungs, the same terms
    # grouped by n, so the two values differ by rounding only
    assert diag["T"] == odiag["T"] and len(diag["history"]) == len(odiag["history"])
    assert abs(got - want) <= 1e-13 * max(1, abs(want)), (case, got, want)


@pytest.mark.parametrize("d1,d2,m", [(-7, -23, 1), (-7, -23, 2), (-7, -23, 4), (-4, -15, 2),
                                     (-3, -8, 3), (-3, -4, 6), (-4, -7, 1)])
def test_sieve_rho_is_the_ideal_count(d1, d2, m):
    # rho from the sieve against the ideal count of (mu0), factored in F with
    # chi read off the class group (class_rho), no code shared with the sieve
    chi = GenusChar(d1, d2)
    D = d1 * d2
    F = field(D)
    n0 = isqrt(m * m * D) + 1
    n0 += (n0 - m * D) % 2
    count = 300
    got = NS._rho_block(NS._Primes(chi), m, n0, count)
    want = []
    for i in range(count):
        n = n0 + 2 * i
        mu0 = F.elem(Fraction(n, 2), Fraction(m, 2))
        want.append(class_rho(chi, FracIdeal.from_generators(D, [mu0])))
    assert got == want
    assert any(want) and not all(want)


@pytest.mark.parametrize("d1,d2,m", [(-7, -23, 1), (-7, -23, 2), (-3, -7, 1)])
def test_rho_density_matches_orbit_density(d1, d2, m):
    # sum rho per n of the parity class has mean 48 h1 h2 sigma(m) / (w1 w2 m sqrt(Delta)):
    # the orbit density 6 per unit of cosh over the h1 h2 sigma(m) orbit sums,
    # times the cycle weight 4/(w1 w2), per step 2/(m sqrt(Delta)) of t
    D = d1 * d2
    h1h2 = len(cm_points(d1)) * len(cm_points(d2))
    sigma = sum(a for a in range(1, m + 1) if m % a == 0)
    want = 48 * h1h2 * sigma / (unit_weight(d1) * unit_weight(d2) * m * sqrt(D))
    primes = NS._Primes(GenusChar(d1, d2))
    n0 = isqrt(m * m * D) + 1
    n0 += (n0 - m * D) % 2
    rho = []
    for start in range(n0, n0 + 2 * 60000, 2 * NS.BLOCK):
        rho += NS._rho_block(primes, m, start, min(NS.BLOCK, (n0 + 2 * 60000 - start) // 2))
    # over 60,000 values the three cases stray by 7e-5 to 7.5e-4 relative;
    # a wrong local factor at one small prime moves the mean by percents
    mean = sum(rho) / len(rho)
    assert abs(mean - want) <= 0.01 * want, (mean, want)


@pytest.mark.parametrize("d1,d2,ms", [(-7, -23, (1, 2)), (-4, -15, (2,)), (-3, -7, (1,))])
def test_orbit_terms_per_n_are_rho(d1, d2, ms, monkeypatch):
    # m sqrt(Delta) cosh d(z1, gamma w) is an integer n, and the orbit terms
    # of all CM pairs (mirror pairs each counted) and Hecke cosets at one n
    # number w1 w2 rho(n) / 4: an integer identity between the orbit kernel's
    # upgrade sets and the sieve, which share no code.  Up to the upgrade
    # bound 64, where the upgrade sets hold every term
    params = GreenParams(tol=1e-13)
    bound = int(params.upgrade_cosh)
    D = d1 * d2
    w1w2 = unit_weight(d1) * unit_weight(d2)
    primes = NS._Primes(GenusChar(d1, d2))
    count = Counter()

    def first_shell(self, T, T_prev):
        # each orbit sum of G_k_hecke enumerates its first shell only
        if T_prev is None:
            count.update(self._terms_below(4.0 * bound)[3])
        return 0, 0

    monkeypatch.setattr(G._PairOrbitSum, "step", first_shell)
    for m in ms:
        count.clear()
        for P1 in cm_points(d1):
            for P2 in cm_points(d2):
                G.G_k_hecke(P1, P2, 4, m, params)
        n0 = isqrt(m * m * D) + 1
        n0 += (n0 - m * D) % 2
        n_hi = isqrt(bound * bound * m * m * D)     # n < 64 m sqrt(Delta)
        ns = range(n0, n_hi + 1, 2)
        rho = NS._rho_block(primes, m, n0, len(ns))
        assert set(count) <= set(ns), sorted(set(count) - set(ns))[:5]
        assert [4 * count[n] for n in ns] == [w1w2 * r for r in rho]
        assert sum(rho) > 100


def test_cycle_value_selects_the_route(monkeypatch):
    calls = []

    def fake(name):
        def run(k, pp, d1, d2, params=None):
            calls.append(name)
            return 0, {"converged": True}
        return run

    monkeypatch.setattr(G, "G_kf_at_cycle", fake("orbit"))
    monkeypatch.setattr(NS, "cycle_nsum", fake("nsum"))
    one = {1: Fraction(1)}
    G.cycle_value(4, one, -7, -23)                                 # 12.7
    G.cycle_value(6, {1: Fraction(24), 2: Fraction(1)}, -7, -23)    # 38.1
    G.cycle_value(2, one, -7, -23)                                 # k = 2
    G.cycle_value(4, one, -3, -333332)                             # 1000
    assert calls == ["nsum", "nsum", "orbit", "orbit"]
    # at the bound: the span sum_m m sqrt(Delta) decides, not Delta alone
    m = int(G.NSUM_MAX_SPAN / sqrt(161))
    calls.clear()
    G.cycle_value(4, {m: Fraction(1)}, -7, -23)
    G.cycle_value(4, {m + 1: Fraction(1)}, -7, -23)
    G.cycle_value(4, {1: Fraction(1), m: Fraction(1)}, -7, -23)
    assert calls == ["nsum", "orbit", "orbit"]


def test_zero_coefficient_costs_nothing():
    # a term c(-m) = 0 widens neither the span that picks the route nor the
    # orbit route's work: {1: 1, 3: 0} is {1: 1}
    one = {1: Fraction(1)}
    with_zero = {1: Fraction(1), 3: Fraction(0)}
    got, diag = G.cycle_value(4, with_zero, -7, -23)
    want, wdiag = G.cycle_value(4, one, -7, -23)
    assert diag["route"] == wdiag["route"] == "nsum" and got == want
    got, diag = G_kf_at_cycle(4, with_zero, -7, -23)
    want, wdiag = G_kf_at_cycle(4, one, -7, -23)
    assert got == want and diag["orbit_sums"] == wdiag["orbit_sums"] == 2
    assert {p["m"] for p in diag["per_pair"]} == {1}


def _reference_float_pass(sl, primes, first, count, T):
    """The float pass as a loop over _rho_block with the orbit route's
    evaluators greens._q_float_factory and greens._psi: (nonzero, plain,
    weighted) over the terms above the upgrade bound."""
    qf = G._q_float_factory(sl.k - 1)
    nonzero, plain, weighted = 0, [], []
    for start in range(first, first + 2 * count, 2 * NS.BLOCK):
        block = min(NS.BLOCK, (first + 2 * count - start) // 2)
        for i, r in enumerate(NS._rho_block(primes, sl.m, start, block)):
            if not r:
                continue
            nonzero += 1
            n = start + 2 * i
            if n <= sl.n_up:
                continue
            t = n / sl.msD
            q = r * qf(t)
            plain.append(q)
            weighted.append(q * G._psi(t / T) if t > T / 2 else q)
    return nonzero, fsum(plain), fsum(weighted)


@pytest.mark.parametrize("k,pp", [(4, {1: Fraction(1)}),
                                  (6, {1: Fraction(24), 2: Fraction(1)})],
                         ids=["flagship", "hecke-k6"])
def test_float_pass_matches_reference_loop(k, pp, monkeypatch):
    # every shell of the ladder at tol 1e-10 on (-7, -23): the same nonzero
    # count as the reference loop, and sums within 1e-15 relative
    shells = []
    fused = NS._Slice._float_pass

    def spy(self, primes, first, count, T):
        out = fused(self, primes, first, count, T)
        shells.append((self, primes, first, count, T, out))
        return out

    monkeypatch.setattr(NS._Slice, "_float_pass", spy)
    _, diag = cycle_nsum(k, pp, -7, -23, GreenParams(tol=1e-10))
    assert diag["converged"] and len(shells) == len(pp) * len(diag["history"]) >= 3
    for sl, primes, first, count, T, (upgrades, terms, plain, weighted) in shells:
        nonzero, ref_plain, ref_weighted = _reference_float_pass(sl, primes, first, count, T)
        assert len(upgrades) + terms == nonzero > 0
        assert abs(plain - ref_plain) <= 1e-15 * ref_plain, (sl.m, T)
        assert abs(weighted - ref_weighted) <= 1e-15 * ref_weighted, (sl.m, T)
