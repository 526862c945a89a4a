import hashlib
import json
import random
import time
from fractions import Fraction
from math import comb, factorial, gcd, isqrt, prod

import mpmath
import pytest

from hgreen.qfield import (
    FracIdeal,
    InvalidInputError,
    factorint,
    field,
    is_fundamental_discriminant,
    primes_upto,
    sqrt_mod,
)
from hgreen.finquad import GenusChar, genus_characters, prime_character, rho_factor
from hgreen.greens import _legendre_p_values
from hgreen.factor import (
    FEW,
    _Primes,
    _log_ratio,
    _ord,
    _slice_entries,
    _slice_g,
    gamma_exponents,
    reconcile,
    trace_slice,
)
from hgreen.nsum import _rho_block
from oracles import (
    alt_exponent_check,
    class_chi,
    integer_exponent_vector,
    rho_exponent_vector,
)


def paper_prime(F, ell, elem):
    """The prime above ell containing the given element."""
    return next(P for P in F.primes_above(ell) if P.contains(elem))


def test_legendre_p_examples():
    x = Fraction(2, 7)
    assert _legendre_p_values(3, x) == [1, x, (3 * x * x - 1) / 2, (5 * x ** 3 - 3 * x) / 2]
    assert _legendre_p_values(0, x) == [1]


def test_legendre_p_parity_and_normalization():
    assert _legendre_p_values(12, Fraction(1)) == [1] * 13     # P_n(1) = 1
    x = Fraction(3, 5)
    for n, (p, q) in enumerate(zip(_legendre_p_values(12, x), _legendre_p_values(12, -x))):
        assert q == (-1) ** n * p


def test_legendre_p_generating_function():
    # coefficients of 1/sqrt(1-2xt+t^2) in t, exact series to order 8
    x = Fraction(3, 7)
    # (1 - (2xt - t^2))^{-1/2} = sum_j binom(2j, j)/4^j (2xt - t^2)^j
    N = 9
    series = [Fraction(0)] * N
    for j in range(N):
        cj = Fraction(comb(2 * j, j), 4 ** j)
        # (2x t - t^2)^j expanded
        for i in range(j + 1):
            power = j + i
            if power < N:
                series[power] += cj * comb(j, i) * (2 * x) ** (j - i) * (-1) ** i
    assert series == _legendre_p_values(N - 1, x)


def _explicit_legendre_coeffs(n: int) -> list:
    """Coefficients c_{n,b} = 2^n C(n,b) C((n+b-1)/2, n) of x^b in P_n, b = 0..n."""
    out = []
    for b in range(n + 1):
        a = Fraction(n + b - 1, 2)
        gen_binom = Fraction(1)      # a(a-1)...(a-n+1)/n!
        for i in range(n):
            gen_binom *= a - i
        out.append(2 ** n * comb(n, b) * gen_binom / factorial(n))
    return out


def test_slice_weight_matches_explicit_formula():
    # ((sqrt(D) m)^{k-1}/2) P_{k-1}(n/(sqrt(D) m)) summed over the odd powers
    # of the explicit coefficients, where (sqrt(D))^{k-1-b} is a power of D
    assert _explicit_legendre_coeffs(3) == [0, Fraction(-3, 2), 0, Fraction(5, 2)]
    rng = random.Random(12)
    coeffs = {k: _explicit_legendre_coeffs(k - 1) for k in range(2, 25, 2)}
    for _ in range(600):
        k = rng.randrange(2, 25, 2)
        Delta = rng.randrange(5, 10 ** 6)
        m = rng.randrange(1, 101)
        n = rng.randrange(-isqrt(m * m * Delta), isqrt(m * m * Delta) + 1)
        want = sum(c * Fraction(n) ** b * Delta ** ((k - 1 - b) // 2) * m ** (k - 1 - b)
                   for b, c in enumerate(coeffs[k]) if b % 2) / 2
        weight = Fraction(_slice_g(k, n, m * m * Delta), 2 * factorial(k - 1))
        assert weight == want, (k, n, m, Delta)


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


# kappa and the cleared exponents {(ell, b): e} on (-7, -23) for every even
# k <= MAX_K, each with an unobstructed principal part
PINNED_EXPONENTS = [
    (2, {1: 1}, 1, {(5, 4): 2, (17, 7): 20, (19, 16): 12}),
    (4, {1: 1}, 1, {(5, 0): 2878, (17, 2): 3580, (19, 13): 2628}),
    (6, {1: 24, 2: 1}, 1, {
        (5, 0): 78184624, (17, 7): 36990912, (19, 16): 52647840,
        (61, 6): 8654800, (97, 61): 4762688, (157, 156): 5515888}),
    (8, {1: 216, 2: -1}, 1, {
        (5, 0): 16675957520, (17, 7): 490319136, (19, 16): 10244237472,
        (61, 16): 2605333600, (97, 61): 4090789504, (157, 156): 3685186784}),
    (10, {1: 456, 2: -1}, 1, {
        (5, 0): 15939780368656, (17, 7): 3801023437248, (19, 13): 7392485619360,
        (61, 6): 2031832313200, (97, 61): 529435881152, (157, 154): 2267781008048}),
    (12, {1: -195660, 2: 48, 3: 1}, 1, {
        (5, 4): 110899539898462812, (17, 7): 557625649249631802,
        (19, 13): 524273742485577168, (61, 6): 230573833703153388,
        (83, 32): 80946258211854882, (89, 67): 344077607383213410,
        (97, 61): 72013131229820928, (103, 87): 242996592053894700,
        (157, 154): 61860090208261632, (181, 40): 68136443703859692}),
]


@pytest.mark.parametrize("k, pp, kappa, exponents", PINNED_EXPONENTS,
                         ids=[f"k{case[0]}" for case in PINNED_EXPONENTS])
def test_gamma_exponents_pinned_every_k(k, pp, kappa, exponents):
    rep = gamma_exponents(k, {m: Fraction(c) for m, c in pp.items()}, -7, -23)
    assert rep.kappa == kappa
    assert rep.exponents == exponents


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


# about twice the in-process time of the index-100 corner (0.45-0.6 s on a
# 2-vCPU Xeon VM, Python 3.11)
TIME_BOUND_INDEX_100 = 1.2


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


def test_gamma_exponents_index_100_corner_pinned_and_fast():
    # the largest principal-part index at the largest Delta: 99,999 slice
    # elements and 17,967 primes in the support; (exponents, kappa) pinned by
    # a digest of their values from the factorint engine the sieve replaced
    t0 = time.perf_counter()
    rep = gamma_exponents(4, {100: Fraction(1)}, -3, -333332)
    elapsed = time.perf_counter() - t0
    blob = json.dumps([rep.kappa, sorted([ell, b, e.numerator, e.denominator]
                                         for (ell, b), e in rep.exponents.items())])
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "9154973e1f0b50bcfdfb5b1d69be45694375950731bf2712a0625aaa90c51294")
    assert elapsed < TIME_BOUND_INDEX_100, elapsed


def test_slice_g_is_factorial_times_homogeneous_p():
    # the integer slice weight against the one Legendre recurrence of greens
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randrange(2, 25, 2)
        y2 = rng.randrange(1, 10 ** 9)
        n = rng.randrange(-10 ** 5, 10 ** 5)
        h = _legendre_p_values(k - 1, Fraction(n), y2)[k - 1]
        assert _slice_g(k, n, y2) == factorial(k - 1) * h, (k, n, y2)


def test_ramified_character_by_genus_theory():
    # prime_character reads chi at a ramified p as (d2/p) where p | d1, else
    # (d1/p), with no class group; the narrow-class route (class_chi) is the
    # oracle.  Both orders of each pair, so p | d1 and p | d2 both occur
    rng = random.Random(399)
    pairs = rng.sample(_coprime_pairs(1000), 60) + [(-4, -15), (-3, -8), (-3, -4)]
    checked = at_two = 0
    for a, b in pairs:
        for d1, d2 in ((a, b), (b, a)):
            chi = GenusChar(d1, d2)
            for p in factorint(chi.Delta):
                want = class_chi(chi, chi.F.prime_above(p))
                assert prime_character.__wrapped__(chi, p) == (0, want), (d1, d2, p)
                checked += 1
                at_two += p == 2
    assert checked > 300 and at_two > 20, (checked, at_two)


def _sieve_pairs():
    """One seeded pair per class of Delta mod 8, plus (-4, -15) and (-7, -23),
    where 2 splits with chi = +1."""
    rng = random.Random(2027)
    pairs = _coprime_pairs(600)
    return [rng.choice([p for p in pairs if (p[0] * p[1]) % 8 == residue])
            for residue in (0, 4, 1, 5)] + [(-4, -15), (-7, -23)]


# slices m with p^2 | m (4, 9) and contents gcd(u, m) > 1
SIEVE_MS = (1, 2, 3, 4, 9)


def test_sieve_matches_integer_and_ideal_routes_on_the_slice():
    # every slice element: the sieve's vector, integer_exponent_vector
    # (factorint) and rho_exponent_vector (ideals) agree
    seen = dict.fromkeys(("content", "square_in_m", "leftover_prime"), False)
    for d1, d2 in _sieve_pairs():
        chi = GenusChar(d1, d2)
        primes = _Primes(chi)
        for m in SIEVE_MS:
            elements = trace_slice(m, d1 * d2).elements
            got = [{} for _ in elements]
            for i, key, r in _slice_entries(primes, m, int(elements[0].trace()), len(got)):
                got[i] = {key: r}
            for vec, mu0 in zip(got, elements):
                want = integer_exponent_vector(mu0, chi)
                assert vec == want == rho_exponent_vector(mu0, chi), (d1, d2, m, mu0)
                if not vec:
                    continue
                u = int(mu0.uv()[0])
                ((ell, _),) = vec
                seen["content"] |= gcd(u, m) > 1
                # p^2 | gcd(u, m) at a split p: the factor at p reads ec = 2
                seen["square_in_m"] |= any(gcd(u, m) % (p * p) == 0 and (d1 * d2) % p
                                           for p in (2, 3))
                seen["leftover_prime"] |= ell * ell > abs(mu0.norm())
    assert all(seen.values()), seen


def test_prime_table_grown_in_steps_equals_one_built_at_once():
    # each extension sieves only (old limit, new bound]; the table keeps
    # every split prime once, in order, with its root and factors
    chi = GenusChar(-7, -23)
    grown = _Primes(chi)
    for bound in (2, 10, 10149, 10150):
        grown.upto(bound)
    whole = _Primes(chi)
    assert whole.upto(10150) == grown.upto(10150) == grown.split
    assert grown.limit == whole.limit == 10150
    assert [p for p, *_ in grown.upto(20)] == [5, 17, 19]


@pytest.mark.parametrize("d1, d2, bound", [
    (-7, -23, 10150), (-4, -15, 2000), (-3, -1912, 40000), (-8, -331, 5000),
    (-3, -333332, 20000),
], ids=["7-23", "4-15", "3-1912", "8-331", "no-table"])
def test_prime_table_skips_inert_primes_by_the_other_character(d1, d2, bound):
    # the table of (d/.) for the larger |d| rejects inert primes once an
    # extension spans 8 |d| numbers; the split list is the one the square
    # roots give, and the one a table grown in steps too short for it gives
    chi = GenusChar(d1, d2)
    whole = _Primes(chi)
    got = whole.upto(bound)
    assert (whole.other_mod is None) == (8 * max(-d1, -d2) > bound - 2)
    stepped = _Primes(chi)
    for b in [*range(2, bound, 8 * max(-d1, -d2) - 1), bound]:
        stepped.upto(b)
    assert stepped.other_mod is None
    assert got == stepped.upto(bound)
    D = d1 * d2
    want = [p for p in primes_upto(bound) if p > 2 and D % p and sqrt_mod(D, p) is not None]
    assert [p for p, *_ in got] == want


def _rho_by_factorint(chi, m, n):
    """rho_{K/F}((mu0)), mu0 = (n + m sqrt(Delta))/2, one factor per p | Nm."""
    D = chi.Delta
    c = gcd((n - m * D) // 2, m)
    return prod(rho_factor(*prime_character(chi, p), e, _ord(c, p))
                for p, e in factorint(abs(n * n - m * m * D) // 4).items())


def test_sieve_rho_above_the_slice():
    # n > m sqrt(Delta), 2,000 values per pair and m: the n-sum's rho against
    # factorint, and pinned by a digest of the values the n-sum's own sieve
    # gave before the exponent engine shared it
    h = hashlib.sha256()
    for d1, d2 in _sieve_pairs():
        chi = GenusChar(d1, d2)
        primes = _Primes(chi)
        for m in SIEVE_MS:
            n0 = isqrt(m * m * d1 * d2) + 1
            n0 += (n0 - m * d1 * d2) % 2
            rho = _rho_block(primes, m, n0, 2000)
            assert rho == [_rho_by_factorint(chi, m, n0 + 2 * i) for i in range(2000)]
            h.update(json.dumps(rho).encode())
    assert h.hexdigest() == "46b1cfe8aa0912828095617775a2a67904657fdbc8a2bc851e872741d991cd58"


def _deep_block(primes, x, p_min):
    """(p, n0, count): a block above the slice m = 1 in which the first split
    prime p > p_min with chi_p = x has 3 multiples per root, and p^2 | Nm at
    the second multiple of one root."""
    D = primes.chi.Delta
    p = next(p for p, _, chi_p, _ in primes.upto(10 ** 4) if p > p_min and chi_p == x)
    n0 = isqrt(D) + 1
    n0 += (n0 - D) % 2
    n = next(n for n in range(n0 + 2 * p, n0 + 2 * p + 2 * p * p + 2, 2)
             if (n * n - D) % (p * p) == 0)
    return p, n - 2 * p, 3 * p


def test_sieve_branches_agree_with_factorint():
    # rho above the slice against factorint, on blocks where the split primes
    # have many multiples (whole slices), few, one or none (a plain loop
    # each), a deep hit p^2 | Nm falls on a prime with few multiples at
    # chi_p = +1 and at chi_p = -1, and the split prime 5 divides m (5 || m,
    # 5^2 | m) and is struck with the primes of 2 m Delta
    d1, d2 = -7, -23
    D = d1 * d2
    chi = GenusChar(d1, d2)
    primes = _Primes(chi)
    assert prime_character(chi, 5)[0] == 1

    def start(m):
        n0 = isqrt(m * m * D) + 1
        return n0 + (n0 - m * D) % 2

    blocks = [(1, start(1), 3000), (5, start(5), 600), (25, start(25), 600)]
    deep = [_deep_block(primes, x, 2 * FEW) for x in (1, -1)]
    blocks += [(1, n0, count) for _, n0, count in deep]
    seen = set()
    for m, n0, count in blocks:
        rho = _rho_block(primes, m, n0, count)
        assert rho == [_rho_by_factorint(chi, m, n0 + 2 * i) for i in range(count)], (m, n0)
        assert any(rho) and not all(rho)
        bound = isqrt(((n0 + 2 * count) ** 2 - m * m * D) // 4)
        for p, root, x, _ in primes.upto(bound):
            if m % p == 0:
                seen.add("p | m")
                continue
            for r in (m * root, -m * root):
                i0 = (r - n0) * ((p + 1) // 2) % p
                ns = [n0 + 2 * i for i in range(i0, count, p)]
                k = len(ns)
                seen.add("none" if k == 0 else "one" if k == 1 else "few" if k <= FEW else "many")
                if 1 < k <= FEW and any((n * n - m * m * D) // 4 % (p * p) == 0 for n in ns):
                    seen.add(("deep, few multiples", x))
    assert seen == {"p | m", "none", "one", "few", "many",
                    ("deep, few multiples", 1), ("deep, few multiples", -1)}, seen


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
