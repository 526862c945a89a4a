"""The algebraic side: predicted prime factorization of the CM-value invariant.

For even k and a valid principal part, the averaged Green's function value
satisfies  kappa * G = -Delta^{(1-k)/2} log|gamma/gamma'|  for an element
gamma of F supported on split primes with chi = -1.  The exponent of such a
prime l is an explicit finite sum over totally positive trace slices of the
inverse different, weighted by the odd Legendre polynomial P_{k-1} (exact
rationals, from the three-term recurrence greens uses for Q_{k-1}) and the
ideal count rho_{K/F}.

The raw slice sum is antisymmetric under conjugation (ord_l = -ord_l'); the
report clears conjugates by the rational rescaling gamma -> n*gamma, leaving
the exponent 2e on the member of each pair where the raw value e is positive.
This matches the presentation with nonnegative exponents and untouched
log|gamma/gamma'|.  The unit power is fitted numerically against
L(eps) = log|eps/eps'| and rounded to a bounded-denominator rational.

The slice sum uses integers only: each mu0 = u + v*omega contributes
rho_{K/F}((mu0) l)(1 + ord_l(mu0)), and both factors are read from (u, v) and
one factorisation of Nm(mu0) (integer_exponent_vector).  The ideal route,
rho_exponent_vector and alt_exponent_check, is kept as the independent oracle
the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod

import mpmath
from mpmath import mpf

from .qfield import (
    FieldElem,
    FracIdeal,
    InvalidInputError,
    QuadField,
    factorint,
    field,
    ideal_divisors,
    kronecker,
)
from .finquad import GenusChar, rho_KF
from .greens import _legendre_p_values
from .mforms import check_cycle_input


# ---------------------------------------------------------------------------
# trace slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSlice:
    """mu0 in O_F with tr(mu0/sqrt(Delta)) = m and mu0/sqrt(Delta) >> 0.

    Exactly the elements (n + m*sqrt(Delta))/2 over integers n with
    |n| < m*sqrt(Delta) and the parity making mu0 integral.
    """

    m: int
    Delta: int
    elements: tuple


def trace_slice(m: int, Delta: int) -> TraceSlice:
    if m < 1:
        raise InvalidInputError("trace parameter m must be >= 1")
    F = field(Delta)
    out = []
    n0 = (m * Delta) % 2  # parity making (n + m sqrt(D))/2 integral
    nmax_sq = m * m * Delta
    bound = isqrt(nmax_sq) + 1
    for n in range(-bound, bound + 1):
        # n = m*Delta mod 2 makes mu0 integral; n^2 < m^2 Delta makes
        # lambda = mu0/sqrt(Delta) = (m + n/sqrt(Delta))/2 totally positive
        if (n - n0) % 2 or n * n >= nmax_sq:
            continue
        out.append(F.elem(Fraction(n, 2), Fraction(m, 2)))
    return TraceSlice(m, Delta, tuple(out))


# ---------------------------------------------------------------------------
# exponent engine
# ---------------------------------------------------------------------------

@dataclass
class FactorReport:
    """Predicted factorization data for gamma, plus the reconciliation fields."""

    Delta: int
    k: int
    chi: GenusChar
    exponents: dict          # (ell, hnf b) -> Fraction, conjugate-cleared
    raw_exponents: dict      # (ell, hnf b) -> Fraction, antisymmetric slice sums
    kappa: int
    unit_power: float | None = None
    unit_power_rational: Fraction | None = None
    residual: float | None = None
    rhs_value: float | None = None
    verified: bool | None = None
    residual_threshold: float | None = None


def _slice_weight(k: int, n: int, m: int, Delta: int) -> Fraction:
    """((sqrt(D) m)^{k-1}/2) P_{k-1}(n/(sqrt(D) m)), exact.

    That is H_{k-1}(n, y)/2 for the homogeneous y^j P_j(x/y) at y^2 = m^2 Delta.
    """
    return _legendre_p_values(k - 1, Fraction(n), m * m * Delta)[k - 1] / 2


def _ord(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@lru_cache(maxsize=4096)
def _split_roots(Delta: int, p: int) -> tuple:
    """HNF b of the primes [p, b + omega] above a split p, in primes_above order."""
    return tuple(pr.b for pr in field(Delta).primes_above(p))


def _rho_local(chi_p: int, exps) -> int:
    """Factor of rho_{K/F} at one rational prime: exps holds the exponents at
    the primes above it, all with the character value chi_p."""
    if chi_p == 1:
        return prod(e + 1 for e in exps)
    return int(all(e % 2 == 0 for e in exps))


@lru_cache(maxsize=4096)
def prime_character(chi: GenusChar, p: int) -> tuple:
    """(kronecker(Delta, p), chi at the primes above p) for a rational prime p:
    an inert p has chi = +1, a ramified p the value read from its narrow
    class, a split p kronecker(Delta1, p)."""
    kind = kronecker(chi.Delta, p)
    if kind == -1:
        return kind, 1
    if kind == 0:
        return kind, chi(chi.F.prime_above(p))
    return kind, kronecker(chi.Delta1, p)


def _local_exponents(kind: int, e: int, ec: int) -> tuple:
    """Exponents of (mu0) at the primes above p, for p^e || Nm(mu0) and
    p^ec || c = gcd(u, v) with mu0 = u + v*omega.

    An inert p has exponent e/2 and a ramified p exponent e.  At a split p
    the primitive part mu0/c lies in at most one of the two primes, so the
    exponents are (e - ec, ec), the prime that holds mu0/c first.
    """
    if kind == -1:
        return (e // 2,)
    if kind == 0:
        return (e,)
    return (e - ec, ec)


@lru_cache(maxsize=None)
def rho_factor(kind: int, chi_p: int, e: int, ec: int) -> int:
    """Factor of rho_{K/F}((mu0)) at a rational prime p of kind and character
    value chi_p (see prime_character), p^e || Nm(mu0), p^ec || gcd(u, v).

    rho is the product of these factors over p | Nm(mu0); the n-sum of the
    numeric side reads rho from them, integer_exponent_vector reads the same
    exponents.
    """
    return _rho_local(chi_p, _local_exponents(kind, e, ec))


def integer_exponent_vector(mu0: FieldElem, chi: GenusChar) -> dict:
    """{(l, b): rho((mu0) l)(1 + ord_l(mu0))} over split chi = -1 primes l | (mu0).

    The same vector as rho_exponent_vector, read from mu0 = u + v*omega and
    the factorisation of Nm = |Nm(mu0)| with integers only.  With c =
    gcd(u, v), the primitive part mu0/c lies in at most one of the primes
    l = [p, b + omega] and l' above a split p, so
        ord_l(mu0) = ord_p(c) + [p | u/c - (v/c) b] (ord_p(Nm) - 2 ord_p(c)).
    rho is multiplicative over p | Nm, with the local exponents and
    characters of _local_exponents and prime_character.
    """
    uv = mu0.integral_uv()
    if uv is None or mu0.is_zero():
        raise InvalidInputError("integer_exponent_vector needs integral mu0 != 0")
    u, v = uv
    Delta = chi.Delta
    c = gcd(u, v)
    local = []      # (p, kind, chi at the primes above p, their exponents)
    for p, e in factorint(abs(u * u + Delta * u * v + chi.F.psi * v * v)).items():
        kind, x = prime_character(chi, p)
        local.append((p, kind, x, _local_exponents(kind, e, _ord(c, p))))
    factors = [_rho_local(x, exps) for _, _, x, exps in local]
    out = {}
    for i, (ell, kind, x, exps) in enumerate(local):
        if kind != 1 or x != -1:
            continue
        rest = prod(factors[:i]) * prod(factors[i + 1:])
        if not rest:
            continue
        # times l itself the exponents at chi = -1 are (e_l + 1, e_l'): rho
        # survives only for e_l odd and e_l' even
        for b in _split_roots(Delta, ell):
            e_l, e_conj = exps if (u // c - (v // c) * b) % ell == 0 else exps[::-1]
            if e_l % 2 == 1 and e_conj % 2 == 0:
                out[(ell, b)] = rest * (1 + e_l)
    return out


def gamma_exponents(k: int, pp, d1: int, d2: int) -> FactorReport:
    """Exponent map of gamma for the cycle (d1, d2) and principal part pp.

    Support lies on split primes l with chi(l) = -1; the raw slice sums are
    antisymmetric under conjugation and the reported exponents clear the
    conjugate entries.  kappa is the lcm of the cleared denominators.
    """
    check_cycle_input(k, pp, d1, d2)
    Delta = d1 * d2
    chi = GenusChar(d1, d2)
    raw = {}
    for m, cf in sorted(pp.items()):
        cf = Fraction(cf)
        if cf == 0:
            continue
        for mu0 in trace_slice(m, Delta).elements:
            vec = integer_exponent_vector(mu0, chi)
            if not vec:
                continue
            w = cf * _slice_weight(k, int(mu0.trace()), m, Delta)
            for key, r in vec.items():
                raw[key] = raw.get(key, Fraction(0)) + w * r
    raw = {key: v for key, v in raw.items() if v}
    # conjugate clearing: pairs carry (e, -e); keep 2e at the positive member
    cleared = {}
    seen = set()
    for (ell, b), v in raw.items():
        if (ell, b) in seen:
            continue
        b0, b1 = _split_roots(Delta, ell)
        bb = b1 if b0 == b else b0
        seen.add((ell, b))
        seen.add((ell, bb))
        vc = raw.get((ell, bb), Fraction(0))
        if v != -vc:
            raise RuntimeError(
                f"slice sums at the primes above {ell} are not conjugate-antisymmetric:"
                f" {v} and {vc}"
            )
        if v > 0:
            cleared[(ell, b)] = 2 * v
        elif v < 0:
            cleared[(ell, bb)] = -2 * v
    kappa = 1
    for v in cleared.values():
        kappa = lcm(kappa, v.denominator)
    return FactorReport(Delta, k, chi, cleared, raw, kappa)


def _prime_key(pr: FracIdeal):
    """Stable key for a prime ideal: (rational prime, hnf b, inert flag).

    Inert primes all share the HNF shape p*[1, 0], so the bare (a, b) pair
    would collide across them; the rational prime disambiguates.
    """
    if pr.a == 1:                # inert: norm p^2, scale p
        return (pr.num, 0, "inert")
    return (pr.a, pr.b)          # split or ramified: scale 1, norm a


def alt_exponent_check(mu0: FieldElem, chi: GenusChar) -> dict:
    """Exponent vector of prod over integral divisors a | (mu0) of a^{chi(a)}.

    Returns {prime key: integer exponent}; equals -1/2 times the rho-weighted
    vector  l^{rho((mu0) l)(1 + ord_l((mu0)))}  at split primes with
    chi(l) = -1 (checked in tests).
    """
    if not mu0.is_integral() or mu0.is_zero():
        raise InvalidInputError("alt_exponent_check needs integral mu0 != 0")
    F = chi.F
    I = FracIdeal.from_generators(F.D, [mu0])
    out = {}
    for J in ideal_divisors(F, I):
        c = chi(J)
        for pr, e in F.factor_ideal(J):
            key = _prime_key(pr)
            out[key] = out.get(key, 0) + c * e
    return {k: v for k, v in out.items() if v}


def rho_exponent_vector(mu0: FieldElem, chi: GenusChar) -> dict:
    """{prime key: rho((mu0) l)(1 + ord_l((mu0)))} over split chi = -1 primes l | (mu0)."""
    F = chi.F
    I = FracIdeal.from_generators(F.D, [mu0])
    out = {}
    for pr, e in F.factor_ideal(I):
        if pr.a > 1 and chi(pr) == -1 and pr != pr.conj():
            rho = rho_KF(chi, I * pr)
            if rho:
                out[_prime_key(pr)] = rho * (1 + e)
    return out


# ---------------------------------------------------------------------------
# reconciliation against the numeric side
# ---------------------------------------------------------------------------

def _log_ratio(F: QuadField, e: FieldElem) -> mpf:
    """log |e / e'| at the current mpmath precision.

    For e = (a + b sqrt(Delta))/n,
    |e/e'| = (|a| + |b| sqrt(Delta))^2 / |a^2 - b^2 Delta|; only the larger of
    |e|, |e'| is formed, since the other one cancels (to 0 for a large unit)
    in floating point.  e is the larger one exactly when a*b > 0.
    """
    a, b = e.a, e.b
    sign = (a * b > 0) - (a * b < 0)
    if not sign:
        return mpf(0)
    big = mpf(abs(a)) + mpf(abs(b)) * mpmath.sqrt(F.D)
    return sign * (2 * mpmath.log(big) - mpmath.log(abs(a * a - b * b * F.D)))


def reconcile(report: FactorReport, lhs, tol: float, digits: int = 30) -> FactorReport:
    """Fit the unit power so that -kappa Delta^{(k-1)/2} lhs matches the exponents.

    S = sum of (kappa * exponent / h_F) * log|mu_l / mu_l'| over the support,
    with mu_l a fixed generator of l^{h_F} (conjugate-compatibly); then
    r = (-kappa Delta^{(k-1)/2} lhs - S) / log|eps/eps'| is the fitted power of
    eps_F, reported with its nearest rational of denominator <= 2 h_F kappa.
    Success means residual < 10 * tol * Delta^{(k-1)/2}.
    """
    F = field(report.Delta)
    hF = F.narrow_class_group().class_number_wide()
    with mpmath.mp.workdps(digits):
        lhs = mpf(lhs)
        target = -report.kappa * mpf(report.Delta) ** Fraction(report.k - 1, 2) * lhs
        S = mpf(0)
        eps = F.fundamental_unit()
        gens = {}
        for (ell, b) in report.exponents:
            pr, prc = F.primes_above(ell)
            if (ell, pr.b) not in gens:
                mu = F.generator_of(pr ** hF)
                if mu is None:
                    raise RuntimeError(f"{pr}^h_F is not principal, h_F = {hF}")
                # positive generators differ by powers of eps_F and their
                # |mu/mu'| are spaced by eps_F^2: the balanced window pins the
                # one with the smallest coefficients, and it is (up to its
                # boundary) conjugation-stable, so mu_l' = (mu_l)' fits it
                mu = abs(F.unit_orbit_rep(mu, eps, eps.inverse()))
                gens[(ell, pr.b)] = mu
                gens[(ell, prc.b)] = mu.conj()
        for key, e in report.exponents.items():
            mu = gens[key]
            S += (mpf((report.kappa * e).numerator) / (report.kappa * e).denominator
                  / hF * _log_ratio(F, mu))
        Leps = _log_ratio(F, eps)
        r = (target - S) / Leps
        max_den = 2 * hF * report.kappa
        r_rat = Fraction(float(r)).limit_denominator(max_den)
        residual = abs(target - S - (mpf(r_rat.numerator) / r_rat.denominator) * Leps)
        report.unit_power = float(r)
        report.unit_power_rational = r_rat
        report.residual = float(residual)
        report.rhs_value = float(
            -(S + (mpf(r_rat.numerator) / r_rat.denominator) * Leps)
            / (report.kappa * mpf(report.Delta) ** Fraction(report.k - 1, 2))
        )
        threshold = 10 * tol * float(report.Delta) ** ((report.k - 1) / 2)
        report.verified = float(residual) < threshold
        report.residual_threshold = threshold
    return report

