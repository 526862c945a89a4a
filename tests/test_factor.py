import random
import time
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from hgreen.qfield import (
    FracIdeal,
    InvalidInputError,
    factorint,
    field,
    is_fundamental_discriminant,
)
from hgreen.finquad import GenusChar, genus_characters
from hgreen.factor import (
    _log_ratio,
    alt_exponent_check,
    gamma_exponents,
    integer_exponent_vector,
    legendre_P,
    reconcile,
    rho_exponent_vector,
    trace_slice,
)


def paper_prime(F, ell, elem):
    """The prime above ell containing the given element."""
    return next(P for P in F.primes_above(ell) if P.contains(elem))


def test_legendre_p_examples():
    assert legendre_P(1).coeffs == (0, 1)
    assert legendre_P(3).coeffs == (0, Fraction(-3, 2), 0, Fraction(5, 2))
    assert legendre_P(0).coeffs == (1,)


def test_legendre_p_parity_and_normalization():
    for n in range(13):
        P = legendre_P(n)
        assert sum(P.coeffs) == 1            # P_n(1) = 1
        for b, c in enumerate(P.coeffs):
            if (b - n) % 2:
                assert c == 0


def test_legendre_p_recurrence():
    x = Fraction(5, 11)
    for n in range(1, 12):
        lhs = (n + 1) * legendre_P(n + 1)(x)
        rhs = (2 * n + 1) * x * legendre_P(n)(x) - n * legendre_P(n - 1)(x)
        assert lhs == rhs


def test_legendre_p_generating_function():
    # coefficients of 1/sqrt(1-2xt+t^2) in t, exact series to order 8
    x = Fraction(3, 7)
    # (1 - (2xt - t^2))^{-1/2} = sum_j binom(2j, j)/4^j (2xt - t^2)^j
    from math import comb
    N = 9
    series = [Fraction(0)] * N
    for j in range(N):
        cj = Fraction(comb(2 * j, j), 4 ** j)
        # (2x t - t^2)^j expanded
        for i in range(j + 1):
            power = j + i
            if power < N:
                series[power] += cj * comb(j, i) * (2 * x) ** (j - i) * (-1) ** i
    for n in range(N):
        assert series[n] == legendre_P(n)(x)


def test_trace_slice_28():
    ts = trace_slice(1, 28)
    # x + sqrt(7) for x in -2..2
    assert [(e.x, e.y) for e in ts.elements] == [
        (x, Fraction(1, 2)) for x in range(-2, 3)
    ]


def test_trace_slice_161():
    ts = trace_slice(1, 161)
    assert len(ts.elements) == 12
    assert sorted({int(abs(e.norm())) for e in ts.elements}) == [10, 20, 28, 34, 38, 40]


@pytest.mark.parametrize("D", [5, 8, 12, 21, 28, 161])
def test_trace_slice_nonempty_and_complete(D):
    for m in (1, 2, 3):
        ts = trace_slice(m, D)
        assert ts.elements
        F = field(D)
        for e in ts.elements:
            lam = e / F.sqrtD
            assert e.is_integral() and lam.is_totally_positive() and lam.trace() == m
        # brute-force recount: tr(el/sqrtD) = m forces v = m exactly, and the
        # total positivity pins u into a window of width m*sqrt(D) around -mD/2
        count = 0
        lo = -(2 * D + 100)
        for u in range(lo, 101):
            for v in range(0, m + 1):
                el = F.from_uv(u, v)
                lam = el / F.sqrtD
                if lam.trace() == m and not el.is_zero() and lam.is_totally_positive():
                    count += 1
        assert count == len(ts.elements)


def test_gamma_exponents_paper_case():
    rep = gamma_exponents(4, {1: Fraction(1)}, -7, -23)
    F = field(161)
    p5 = paper_prime(F, 5, F.elem(38, 3))
    p17 = paper_prime(F, 17, F.elem(12, 1))
    p19 = paper_prime(F, 19, F.elem(25, 2))
    p19c = p19.conj()
    want = {
        (5, p5.b): Fraction(2878),
        (17, p17.b): Fraction(3580),
        (19, p19c.b): Fraction(2628),
    }
    assert rep.exponents == want
    assert rep.kappa == 1
    # raw slice sums are conjugate-antisymmetric halves
    assert rep.raw_exponents[(5, p5.b)] == Fraction(1439)
    assert rep.raw_exponents[(5, p5.conj().b)] == Fraction(-1439)


def test_gamma_exponents_contributing_primes():
    # slice norms {40,38,34,28,20,10}: chi(p_2) = +1 excludes 2, 7 is ramified
    rep = gamma_exponents(4, {1: Fraction(1)}, -7, -23)
    assert sorted({ell for (ell, _) in rep.exponents}) == [5, 17, 19]


def test_gamma_exponents_k2_pure_unit():
    rep = gamma_exponents(2, {1: Fraction(1)}, -4, -7)
    assert rep.exponents == {}
    assert rep.kappa == 1


def test_gamma_exponents_validation():
    with pytest.raises(InvalidInputError):
        gamma_exponents(3, {1: Fraction(1)}, -7, -23)
    with pytest.raises(InvalidInputError):
        gamma_exponents(4, {1: Fraction(1)}, -7, -7)
    with pytest.raises(InvalidInputError):
        gamma_exponents(12, {1: Fraction(1)}, -4, -7)  # obstructed


def test_gamma_exponents_pp_scaling():
    r1 = gamma_exponents(4, {1: Fraction(1)}, -7, -23)
    r2 = gamma_exponents(4, {1: Fraction(2)}, -7, -23)
    assert r2.exponents == {k: 2 * v for k, v in r1.exponents.items()}
    r3 = gamma_exponents(4, {1: Fraction(1, 3)}, -7, -23)
    assert r3.kappa == 3
    assert r3.exponents == {k: v / 3 for k, v in r1.exponents.items()}


def test_gamma_exponents_deterministic():
    a = gamma_exponents(4, {1: Fraction(1)}, -7, -23)
    b = gamma_exponents(4, {1: Fraction(1)}, -7, -23)
    assert a.exponents == b.exponents and a.kappa == b.kappa


def test_exponents_supported_on_chi_minus_split():
    rep = gamma_exponents(4, {1: Fraction(1)}, -7, -23)
    F = field(161)
    chi = rep.chi
    for (ell, b) in rep.exponents:
        P = FracIdeal(161, 1, ell, b)
        assert F.splitting(ell) == "split"
        assert chi(P) == -1


def test_alt_exponent_check_unit_and_plus_prime():
    F = field(161)
    chi = genus_characters(161, odd_only=True)[0]
    assert alt_exponent_check(F.one, chi) == {}
    # mu0 generating a chi = +1 split prime: rho vector empty
    g = F.generator_of(F.prime_above(2))
    assert rho_exponent_vector(g, chi) == {}


@pytest.mark.parametrize("D", [12, 21, 28, 161])
def test_alt_exponent_vs_rho_vector(D):
    # On split chi = -1 primes: divisor product exponent = -(1/2) rho(1+ord).
    # (The displayed remark in the source omits the -1/2; tested law is the
    # one that holds numerically.)
    rng = random.Random(D)
    F = field(D)
    chi = genus_characters(D, odd_only=True)[0]
    done = 0
    while done < 25:
        mu = F.from_uv(rng.randint(-14, 14), rng.randint(0, 2))
        if mu.is_zero() or not (0 < abs(mu.norm()) <= 200):
            continue
        alt = alt_exponent_check(mu, chi)
        rho = rho_exponent_vector(mu, chi)
        for key, v in rho.items():
            assert alt.get(key, 0) * (-2) == v
        done += 1


def test_alt_exponent_acceptance_slices():
    # every mu0 in the slices of the two acceptance runs
    for (k, d1, d2) in ((4, -7, -23), (2, -4, -7)):
        D = d1 * d2
        F = field(D)
        chi = genus_characters(D, odd_only=True)[0]
        for mu in trace_slice(1, D).elements:
            alt = alt_exponent_check(mu, chi)
            rho = rho_exponent_vector(mu, chi)
            for key, v in rho.items():
                assert alt.get(key, 0) * (-2) == v


def test_conjugation_swap_consistency():
    # swapping which prime above each ell is labeled first swaps the exponents
    rep = gamma_exponents(4, {1: Fraction(1)}, -7, -23)
    F = field(161)
    for (ell, b), e in rep.raw_exponents.items():
        P = FracIdeal(161, 1, ell, b)
        assert rep.raw_exponents[(ell, P.conj().b)] == -e


def test_reconcile_161():
    rep = gamma_exponents(4, {1: Fraction(1)}, -7, -23)
    rep = reconcile(rep, mpmath.mpf("-4.15788861278376585"), 1e-6)
    assert rep.unit_power_rational == Fraction(-584)   # (eps_F')^584
    assert rep.residual < 1e-5 * 161 ** 1.5
    assert rep.verified


def test_reconcile_28():
    rep = gamma_exponents(2, {1: Fraction(1)}, -4, -7)
    with mpmath.mp.workdps(30):
        s7 = mpmath.sqrt(7)
        lhs = -(mpmath.mpf(4) / mpmath.sqrt(28)) * mpmath.log((8 + 3 * s7) / (8 - 3 * s7))
    rep = reconcile(rep, lhs, 1e-6)
    assert rep.unit_power_rational == Fraction(4)      # gamma = eps_F^4
    assert rep.residual < 1e-5
    assert rep.verified


def test_reconcile_scaling():
    # doubling pp doubles exponents; residual scale stays verified
    lhs = mpmath.mpf("-4.15788861278376585")
    r1 = reconcile(gamma_exponents(4, {1: Fraction(1)}, -7, -23), lhs, 1e-6)
    r2 = reconcile(gamma_exponents(4, {1: Fraction(2)}, -7, -23), 2 * lhs, 1e-6)
    assert r2.exponents == {k: 2 * v for k, v in r1.exponents.items()}
    assert r2.unit_power_rational == 2 * r1.unit_power_rational
    assert r2.verified


def _coprime_pairs(max_delta):
    neg = [d for d in range(-3, -max_delta, -1) if is_fundamental_discriminant(d)]
    return [(a, b) for a in neg for b in neg
            if a > b and a * b <= max_delta and gcd(a, b) == 1]


def test_integer_exponent_vector_matches_ideal_route():
    # one seeded pair per class of Delta mod 8 (0 and 4 are the even Delta,
    # at 1 the prime 2 splits), plus (-4, -15), where the ramified prime above
    # 3 has chi = -1; slices m = 1, 2, 3 bring contents gcd(u, v) > 1
    rng = random.Random(2024)
    pairs = _coprime_pairs(600)
    drawn = [rng.choice([p for p in pairs if (p[0] * p[1]) % 8 == residue])
             for residue in (0, 4, 1, 5)] + [(-4, -15)]
    seen = dict.fromkeys(("even", "two_split", "content", "ramified_chi_plus",
                          "ramified_chi_minus"), False)
    for d1, d2 in drawn:
        D = d1 * d2
        F = field(D)
        chi = GenusChar(d1, d2)
        seen["even"] |= D % 2 == 0
        seen["two_split"] |= D % 8 == 1
        for m in (1, 2, 3):
            for mu0 in trace_slice(m, D).elements:
                vec = integer_exponent_vector(mu0, chi)
                assert vec == rho_exponent_vector(mu0, chi), (d1, d2, mu0)
                if not vec:
                    continue
                u, v = (int(t) for t in mu0.uv())
                seen["content"] |= gcd(u, v) > 1
                for p in factorint(int(abs(mu0.norm()))):
                    if D % p == 0:
                        plus = chi(F.prime_above(p)) == 1
                        seen["ramified_chi_plus" if plus else "ramified_chi_minus"] = True
    assert all(seen.values()), seen


def test_gamma_exponents_near_scope_limit_is_fast():
    # Delta = 999996, the largest corner of the documented range
    t0 = time.perf_counter()
    rep = gamma_exponents(4, {1: Fraction(1)}, -3, -333332)
    assert time.perf_counter() - t0 < 10.0
    assert rep.Delta == 999996 and rep.exponents


def test_log_ratio_large_unit_does_not_cancel():
    # eps_F ~ 2.6e19 at Delta = 4945: x - y sqrt(Delta) cancels at 30 digits
    F = field(4945)
    eps = F.fundamental_unit()
    with mpmath.mp.workdps(30):
        L = _log_ratio(F, eps)
        assert abs(L - 2 * mpmath.log(float(eps))) < 1e-12
        assert _log_ratio(F, eps.conj()) == -L
        assert _log_ratio(F, F.elem(5, 0)) == 0 and _log_ratio(F, F.sqrtD) == 0


def test_reconcile_large_fundamental_unit():
    rep = reconcile(gamma_exponents(2, {1: Fraction(1)}, -43, -115), 0.123, 1e-8)
    assert mpmath.isfinite(rep.unit_power) and mpmath.isfinite(rep.residual)
    assert rep.unit_power_rational.denominator <= 2 * rep.kappa \
        * field(4945).narrow_class_group().class_number_wide()
