"""Numerical evaluation of higher Green's functions at CM points.

g_k(z1, z2) = -2 Q_{k-1}(cosh d(z1, z2)) is summed over PSL_2(Z)-translates of
the second variable; Hecke translates sum the same kernel over integral
matrices of determinant m modulo +-1, organized as upper-triangular coset
representatives composed with the full PSL_2(Z) sum.

Truncation is adaptive, on one doubling ladder `_ladder` per value on both
routes: T starts at INITIAL_T = 25, doubled until it is at least four times
the upgrade bound below (so 25 at tol >= 1e-12 and 400 below), and doubles,
over at most MAX_DOUBLINGS = 32 rungs, until the error estimate of the
corrected value falls below tol, from the
third rung on: twice the largest of its last three moves, each carried to
the current T along the envelope T^-(k - 1/2) of the remainder.  Each route
supplies one step per rung; the orbit route's steps every orbit sum of the
value times its coefficient, so tol bounds the cycle value, not each orbit
sum, and the two routes stop on the same rung and agree to rounding.  Each
doubling enumerates only its new
shell T/2 < cosh <= T and adds it to running sums of the term count and the
float sum; the shells use the same float windows as a full enumeration, so
the count at every T is the one a full enumeration from cosh = 1 gives.  The
sum at T weights each term by psi(cosh/T), a C^infinity step that is 1 up to
T/2 and 0 from T on, so only the newest shell carries weights.  The terms it
leaves out are replaced by the main term of the orbit count: around every
point PSL_2(Z) has 6 = 2 pi / (pi/3) elements per unit of cosh distance
(pi/3 is the area of the modular surface), so the tail is
6 [int_{T/2}^T (1 - psi(t/T)) Q_{k-1}(t) dt + int_T^oo Q_{k-1}].  The count
strays from 6T by O(T^{2/3}) at a sharp cutoff; against the smooth weight
that fluctuation averages out.  The first integral is a fixed 64-node
Gauss-Legendre rule in floats, the second the exact series, summed in
integer fixed point (q_tail_fixed).

Arithmetic is hybrid: orbit enumeration and the bulk of the sum run in IEEE
doubles (descending-series evaluation of Q, no cancellation for cosh > 2),
while every term with cosh distance up to an upgrade bound is summed at the
working precision by upgrade_sum from the integer n = m sqrt(Delta) cosh d
(points are roots of integral forms; Gross-Zagier, "On singular moduli",
1985).  Since t = cosh d = n/(m sqrt(Delta)), that pass runs on Python
integers (q_fixed; Brent-Zimmermann, "Modern Computer Arithmetic", 2010,
ch. 4): rational arithmetic in x = m^2 Delta/n^2 for t > 2, and for t <= 2
the closed form with one integer logarithm per n (_log_fixed).  The sums
of a value are decimal.Decimal, in one context per value at the working
digits and GUARD_DIGITS more (_context); a float term enters them only
through Decimal(float), which is exact.  legendre_Q stays the mpmath
reference at any real t, for g_k and the tests, and imports mpmath on call,
as do g_k and CMPoint.z: no cycle value loads it.  The bound is 4 for
tol >= 1e-12, where on [4, 64] the float series is within 1.8e-14 relative
of Q_n for n <= 7, 4.6e-14 at n = 9 and 1.1e-13 at n = 11 (at most 1.4e-17
absolute, reached at n = 1), and 64 below that tol.  The first T is at least
four times the bound, so all of these terms lie in the first shell and the
upgrade pass runs once per orbit sum.

Every orbit sum of a cycle meets the same n, the same rungs of T
and the same d^-1 mod c, so that work is done once per process: the
fixed-point Q value of each distinct (k, m, Delta, n, digits), the tail at
each (k, T, digits), the float Q series of each k, and one read-only table
of d^-1 mod c that grows with the largest c seen.  The cosets of one T come
from whole-array numpy passes: the d-ranges of every c at once, expanded
with repeat/cumsum and gathered from the flat inverse table.  They stream in
blocks of consecutive c, each reduced to its plain and psi-weighted Q sums
before the next is built, so memory is bounded by one block, not by a shell.

The cycle value has a second route, nsum.cycle_nsum: the same terms grouped
by the integer n = m sqrt(Delta) cosh d.  cycle_value picks it for k >= 4 and
a short span of n.  The float Q series, psi, the taper rule and the tail
integral serve both routes on plain floats; only the orbit enumeration
imports numpy.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt

from .qfield import InvalidInputError, is_fundamental_discriminant
from .mforms import check_cycle_input
from .factor import _slice_g


class SingularConfigurationError(ValueError):
    """The evaluation point lies on (or too close to) the singular locus."""


# ---------------------------------------------------------------------------
# CM points
# ---------------------------------------------------------------------------

class CMPoint(namedtuple("CMPoint", "A B C")):
    """Integral positive definite form (A, B, C), root z = (-B + i sqrt|d|)/(2A)."""

    __slots__ = ()

    def __new__(cls, A: int, B: int, C: int):
        self = super().__new__(cls, A, B, C)
        if A <= 0 or self.disc >= 0:
            raise InvalidInputError(f"{self!r} is not positive definite")
        return self

    @property
    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    def z(self):
        """The root as an mpmath mpc at the current mpmath precision."""
        import mpmath

        return mpmath.mpc(-self.B, mpmath.sqrt(-self.disc)) / (2 * self.A)

    def __repr__(self):
        return f"CM({self.A},{self.B},{self.C})"


def _float_root(P: CMPoint) -> complex:
    """The root of P in floats, each part correctly rounded from integers:
    -B/(2A) is one int division, sqrt|d|/(2A) one of isqrt(|d| 4^128)."""
    return complex(-P.B / (2 * P.A), isqrt(-P.disc << 256) / (2 * P.A << 128))


def unit_weight(d: int) -> int:
    """Number of units of the imaginary quadratic order: 4, 6, or 2."""
    if d == -4:
        return 4
    if d == -3:
        return 6
    return 2


def cm_points(d: int):
    """All reduced primitive forms of fundamental discriminant d < 0."""
    if d >= 0 or not is_fundamental_discriminant(d):
        raise InvalidInputError(f"{d} is not a negative fundamental discriminant")
    out = []
    b = d % 2
    while b * b <= -d // 3:
        t = b * b - d
        if t % 4 == 0:
            ac = t // 4
            a = max(b, 1)
            while a * a <= ac:
                if a >= b and ac % a == 0:
                    c = ac // a
                    if gcd(gcd(a, b), c) == 1:
                        out.append(CMPoint(a, b, c))
                        if 0 < b < a < c:
                            out.append(CMPoint(a, -b, c))
                a += 1
        b += 2
    return sorted(out, key=lambda P: (P.A, P.B, P.C))


# ---------------------------------------------------------------------------
# Legendre function of the second kind
# ---------------------------------------------------------------------------

T_SWITCH = 2.0


def _legendre_p_values(n: int, t, y2=1):
    """[H_0, ..., H_n] with H_j = y^j P_j(t/y) and y2 = y^2, by the three-term
    recurrence (mp, float, numpy or Fraction).  y2 = 1 gives [P_0(t), ..., P_n(t)]."""
    vals = [t * 0 + 1]
    if n >= 1:
        vals.append(t)
    for j in range(1, n):
        vals.append(((2 * j + 1) * t * vals[j] - j * y2 * vals[j - 1]) / (j + 1))
    return vals


def _q_series_coeffs(n: int, terms: int):
    """a_j of the descending expansion Q_n(t) = lead * t^{-n-1} sum a_j t^{-2j},
    each as (numerator, denominator) in lowest terms, by the ratio
    a_{j+1}/a_j = (n+2+2j)(n+1+2j) / (2(2n+3+2j)(j+1))."""
    p, q = 1, 1
    out = [(p, q)]
    for j in range(terms - 1):
        p *= (n + 2 + 2 * j) * (n + 1 + 2 * j)
        q *= 2 * (2 * n + 3 + 2 * j) * (j + 1)
        g = gcd(p, q)
        p, q = p // g, q // g
        out.append((p, q))
    return out


def _q_lead(n: int) -> Fraction:
    return Fraction(2 ** n * math.factorial(n) ** 2, math.factorial(2 * n + 1))


def _q_series_upto(n: int, bound: int):
    """_q_series_coeffs(n, 16 * 2^i) for the least i whose last a_j has
    a_j T_SWITCH^{-2j} < 1/bound."""
    exact = _q_series_coeffs(n, 16)
    # the last a_j = p/q against the bound, with T_SWITCH^2 = 4
    while exact[-1][0] * bound >= exact[-1][1] * 4 ** (len(exact) - 1):
        exact = _q_series_coeffs(n, 2 * len(exact))
    return exact


@functools.cache
def _q_coeffs_mpf(n: int, dps: int):
    """(coeffs, lead): the series coefficients a_j of Q_n as mpf at dps digits,
    on to a j with a_j T_SWITCH^{-2j} < 10^-(dps+5) a_0 (a_0 = 1): all that
    legendre_Q and legendre_Q_integral take at any t, T > T_SWITCH."""
    from mpmath import mp, mpf

    exact = _q_series_upto(n, 10 ** (dps + 5))
    lead = _q_lead(n)
    with mp.workdps(dps):
        return [mpf(p) / q for p, q in exact], mpf(lead.numerator) / lead.denominator


def legendre_Q(n: int, t, dps: int | None = None):
    """Q_n(t) for real t > 1 at the current (or given) mpmath precision.

    Closed form  Q_n = (P_n/2) log((t+1)/(t-1)) - sum_{m=1}^n P_{m-1}P_{n-m}/m
    for t <= 2; descending series in 1/t^2 beyond (the closed form cancels
    catastrophically for large t while the series loses accuracy near 1).
    """
    from mpmath import log, mp as ctx, mpc, mpf

    if n < 0:
        raise InvalidInputError("legendre_Q needs n >= 0")
    with ctx.workdps(dps or ctx.dps):
        t = mpf(t) if not isinstance(t, (mpf, mpc)) else t
        if t <= 1:
            raise SingularConfigurationError(f"legendre_Q needs t > 1, got {t}")
        if t <= T_SWITCH:
            pv = _legendre_p_values(n, t)
            s = pv[n] / 2 * log((t + 1) / (t - 1))
            for m in range(1, n + 1):
                s -= pv[m - 1] * pv[n - m] / m
            return +s
        # number of series terms: (1/t^2)^j < 10^-dps with t > 2
        inv2 = 1 / (t * t)
        need = int(ctx.dps / (2 * math.log10(float(t)))) + 4
        coeffs, lead = _q_coeffs_mpf(n, ctx.dps)
        acc = mpf(0)
        for a in reversed(coeffs[:need]):
            acc = acc * inv2 + a
        return +(lead * t ** (-(n + 1)) * acc)


def legendre_Q_integral(n: int, T):
    """Integral of Q_n over [T, infinity) for T > T_SWITCH, by termwise series."""
    from mpmath import mp, mpf

    dps = mp.dps
    T = mpf(T)
    if not T > T_SWITCH:
        raise ValueError(f"Q tail integral needs T > {T_SWITCH}, got {T}")
    eps = mpf(10) ** (-(dps + 5))
    coeffs, lead = _q_coeffs_mpf(n, dps)
    acc = mpf(0)
    for j, a in enumerate(coeffs):
        p = n + 2 * j  # integral of t^{-n-1-2j} is T^{-n-2j}/(n+2j)
        term = a * T ** (-p) / p
        acc += term
        if abs(term) < eps * abs(acc):
            return +(lead * acc)
    raise RuntimeError("Q tail integral did not converge")


def _fixed_bits(dps: int) -> int:
    """Working bits of the fixed-point Q at dps digits: the digits and 64 guard bits."""
    return math.ceil(dps * math.log2(10)) + 64


def _to_bits(num: int, den: int, e: int, bits: int):
    """(man, e') with man 2^e' = (num/den) 2^e, man the floor to about bits bits."""
    shift = bits - num.bit_length() + den.bit_length()
    if shift >= 0:
        return (num << shift) // den, e - shift
    return num // (den << -shift), e - shift


@functools.cache
def _q_coeffs_fixed(n: int, bits: int):
    """A_j = floor(a_j 2^bits) of the series of Q_n, on to a j with
    a_j 4^-j < 2^-(bits+4), and the bits of the largest a_j (at least 1):
    what a sum over x = 1/t^2 < 1/4 takes to 2^-bits."""
    coeffs = tuple((p << bits) // q for p, q in _q_series_upto(n, 1 << (bits + 4)))
    return coeffs, max(coeffs).bit_length() - bits


def _series_fixed(coeffs, head: int, num: int, den: int, bits: int) -> int:
    """floor(2^bits sum c_j x^j) to a few units, c_j = coeffs[j] 2^-bits, by
    Horner in fixed point over x = num/den < 1/4, as many terms as 2^-bits of
    relative error needs (c_j below 2^head)."""
    x = (num << bits) // den
    steps = min(len(coeffs), int((bits + head + 4) / math.log2(den / num)) + 1)
    acc = 0
    for c in reversed(coeffs[:steps]):
        acc = (acc * x >> bits) + c
    return acc


def _log_fixed(num: int, den: int, bits: int) -> int:
    """log(num/den) 2^bits to a few units, for integers num >= den > 0.

    After j square roots, with j 8 more than the bits of log2(num/den), the
    root x is below 2^(1/256), and log = 2^(j+1) atanh(z) with z =
    (x - 1)/(x + 1) < 2^-9.5, so each term of the series sum z^(2i+1)/(2i+1)
    gains 19 bits; j + 16 guard bits absorb the floors.
    """
    j = 8 + (num.bit_length() - den.bit_length()).bit_length()
    g = bits + j + 16
    x = (num << g) // den
    for _ in range(j):
        x = isqrt(x << g)
    z = ((x - (1 << g)) << g) // (x + (1 << g))
    z2 = z * z >> g
    acc, term, i = 0, z, 1
    while term:
        acc += term // i
        term = term * z2 >> g
        i += 2
    return acc << (j + 1) >> (g - bits)


def q_fixed(k: int, n: int, y2: int, bits: int):
    """(man, e) with man 2^e = Q_{k-1}(n / y) to about 2^-bits relative, for
    k >= 1 and integers n, y2 = y^2 > 0 with n^2 > y2, on Python integers;
    an odd k needs y itself an integer (a square y2).

    t > 2: lead t^-k sum a_j x^j over x = y2/n^2 (_series_fixed), the factor
    lead y^k/n^k exact.  1 < t <= 2: the closed form of legendre_Q times
    (k-1)! y^k, which is G_{k-1} y L/2 - y2 sum_{j=1}^{k-1} C(k-1, j)
    G_{j-1} G_{k-1-j} with L = log((n+y)/(n-y)) (_log_fixed) and the
    integers G_j = j! y^j P_j(t) of the slice weights (factor._slice_g).  The
    two parts cancel to Q, by up to 3.8 (k - 1) bits at t = 2 (41 at
    k = 12), so y and L carry p = bits + 4k + 64 bits.
    """
    nn = n * n
    if nn <= y2:
        raise SingularConfigurationError(f"Q needs n^2 > y2, got n = {n}, y2 = {y2}")
    yk = y2 ** (k // 2)
    if k % 2:
        y = isqrt(y2)
        if y * y != y2:
            raise ValueError(f"odd k = {k} needs a square y2, got {y2}")
        yk *= y
    if nn > 4 * y2:
        coeffs, head = _q_coeffs_fixed(k - 1, bits)
        acc = _series_fixed(coeffs, head, y2, nn, bits)
        lead = _q_lead(k - 1)
        return _to_bits(acc * lead.numerator * yk, lead.denominator * n ** k, -bits, bits)
    g = [1] + [_slice_g(j + 1, n, y2) for j in range(1, k)]
    rest = sum(math.comb(k - 1, j) * g[j - 1] * g[k - 1 - j] for j in range(1, k))
    p = bits + 4 * k + 64
    s = isqrt(y2 << 2 * p)                  # y 2^p
    # (n + y)/(n - y) = (n + y)^2/(n^2 - y2), without the difference n - y
    ns = (n << p) + s
    L = _log_fixed(ns * ns, (nn - y2) << 2 * p, p)
    return _to_bits(g[k - 1] * s * L - ((y2 * rest) << (2 * p + 1)),
                    (math.factorial(k - 1) * yk) << (2 * p + 1), 0, bits)


def q_tail_fixed(n: int, T, bits: int):
    """(man, e) with man 2^e = int_T^oo Q_n to about 2^-bits relative, for
    T > 2 a float or Fraction: lead T^-n sum a_j/(n + 2j) T^-2j, the sum by
    _series_fixed over floor(a_j 2^bits)/(n + 2j), the factor exact."""
    T = Fraction(T)
    if not T > T_SWITCH:
        raise ValueError(f"Q tail integral needs T > {T_SWITCH}, got {T}")
    coeffs, head = _q_coeffs_fixed(n, bits)
    p, q = T.numerator, T.denominator
    acc = _series_fixed([c // (n + 2 * j) for j, c in enumerate(coeffs)], head,
                        q * q, p * p, bits)
    lead = _q_lead(n)
    return _to_bits(acc * lead.numerator * q ** n, lead.denominator * p ** n, -bits, bits)


@functools.cache
def _q_float_coeffs(n: int):
    """(coeffs, lead): the 12 float coefficients a_j and the factor lead of
    the descending series Q_n(t) = lead t^{-n-1} sum a_j t^{-2j}."""
    return tuple(p / q for p, q in _q_series_coeffs(n, 12)), float(_q_lead(n))


@functools.cache
def _q_float_factory(n: int):
    """Float64 Q_n(t) for t >= 4 (every caller's range: the upgrade bound and
    up), on a float or elementwise on a float array, from the 12 terms of
    _q_float_coeffs.  The relative error at t = 4 is 6e-16 at n = 1 up to
    1.1e-13 at n = 11, and falls like t^-24; at t = T_SWITCH = 2 the
    truncation errs by 7e-9 (n = 1) to 1.2e-6 (n = 11)."""
    coeffs, lead = _q_float_coeffs(n)

    def qf(t):
        if isinstance(t, float):
            inv2 = 1.0 / (t * t)
            acc = coeffs[-1]
            for c in coeffs[-2::-1]:
                acc = acc * inv2 + c
        else:
            import numpy as np

            # in place: t may hold millions of terms
            inv2 = t * t
            np.divide(1.0, inv2, out=inv2)
            acc = np.full_like(t, coeffs[-1])
            for c in coeffs[-2::-1]:
                acc *= inv2
                acc += c
        # lead * t^{-n-1} as powers of 1/t^2
        for _ in range((n + 1) // 2):
            acc *= inv2
        if n % 2 == 0:
            acc /= t
        acc *= lead
        return acc

    return qf


def _psi(x):
    """psi(x) for a float or a float array: the exp(-1/x) step, 1 for x <= 1/2,
    0 for x >= 1."""
    # psi = f(1-s) / (f(1-s) + f(s)) with f(y) = exp(-1/y); the ends give
    # exp(-inf) = 0 and exp(inf) = inf, which are the right limits
    if isinstance(x, float):
        s = 2 * x - 1
        if not 0 < s < 1:
            return 1.0 if s <= 0 else 0.0
        try:
            return 1 / (1 + math.exp((2 * s - 1) / (s * (1 - s))))
        except OverflowError:
            return 0.0
    import numpy as np

    s = np.clip(2 * x - 1, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        return 1 / (1 + np.exp((2 * s - 1) / (s * (1 - s))))


# The 32 positive roots x of P_64 and their Gauss-Legendre weights
# 2 / ((1 - x^2) P_64'(x)^2), Newton-polished in floats from the guesses
# cos(pi (i - 1/4) / 64.5), i = 1 .. 32 (the tests repeat the polish)
_GL64 = (
    ("0x1.ffa4e911f7533p-1", "0x1.d379f18460134p-10"),
    ("0x1.fe204ab274eccp-1", "0x1.0fc7ac3ac326cp-8"),
    ("0x1.fb661ac8c85a9p-1", "0x1.aa46b24145a08p-8"),
    ("0x1.f777d976cfadap-1", "0x1.21e400109d472p-7"),
    ("0x1.f257e4db5aabcp-1", "0x1.6df524de84e06p-7"),
    ("0x1.ec09586b58faap-1", "0x1.b9283b35dfad2p-7"),
    ("0x1.e490081f2891bp-1", "0x1.01a7c0a5c9893p-6"),
    ("0x1.dbf07d935a5afp-1", "0x1.261ef40a7a2e5p-6"),
    ("0x1.d22ff5221288ap-1", "0x1.49e391bd21462p-6"),
    ("0x1.c7545aa8c0dadp-1", "0x1.6cdfe10bba3b4p-6"),
    ("0x1.bb6445eadae2dp-1", "0x1.8efea346845c5p-6"),
    ("0x1.ae66f68eedbc7p-1", "0x1.b02b2071c0c29p-6"),
    ("0x1.a0644fb6d8db8p-1", "0x1.d05133c3af930p-6"),
    ("0x1.9164d335425e2p-1", "0x1.ef5d57d53b493p-6"),
    ("0x1.81719c62ec68ep-1", "0x1.069e593b92378p-5"),
    ("0x1.70945a96f12c4p-1", "0x1.14ee9010d92c9p-5"),
    ("0x1.5ed74b4532f83p-1", "0x1.22969f7b5c8c5p-5"),
    ("0x1.4c4533c68b412p-1", "0x1.2f8e3ca7574e0p-5"),
    ("0x1.38e95ace7b3c3p-1", "0x1.3bcd87e50de18p-5"),
    ("0x1.24cf81925487fp-1", "0x1.474d117092816p-5"),
    ("0x1.1003dca600f34p-1", "0x1.5205ddf5a36dep-5"),
    ("0x1.f52619257c3a1p-2", "0x1.5bf16accdf433p-5"),
    ("0x1.c9142c5898fc5p-2", "0x1.6509b1efb8df1p-5"),
    ("0x1.9becb55272c9dp-2", "0x1.6d492da0c2512p-5"),
    ("0x1.6dcb1f0620fffp-2", "0x1.74aadbc614fb0p-5"),
    ("0x1.3ecb6c46c76cbp-2", "0x1.7b2a40f3ccdd7p-5"),
    ("0x1.0f0a26c56e49cp-2", "0x1.80c36b24bdd15p-5"),
    ("0x1.bd489b79ec83bp-3", "0x1.8572f41fbb52ep-5"),
    ("0x1.5b6e88ad5c00ep-3", "0x1.89360387fe3acp-5"),
    ("0x1.f182ff48e8a27p-4", "0x1.8c0a5097676b2p-5"),
    ("0x1.2afad5ee95ad0p-4", "0x1.8dee238192ccbp-5"),
    ("0x1.8ef487a8cbc33p-6", "0x1.8ee0567ee2e53p-5"),
)


@functools.cache
def _taper_rule():
    """Nodes x in (1/2, 1) and weights w with sum w f(x) ~ int_{1/2}^1 (1 - psi) f.

    64-node Gauss-Legendre (_GL64 and the mirror images of its roots, P_64
    being even), 1 - psi folded into the weights; relative error ~1e-15 for
    f = Q_n(T x), n <= 5.
    """
    roots = [(float.fromhex(x), float.fromhex(w)) for x, w in _GL64]
    nodes, weights = [], []
    # descending: the positive roots, then their negatives
    for x, w in roots + [(-x, w) for x, w in reversed(roots)]:
        # [-1, 1] -> [1/2, 1]
        x = 0.75 + x / 4
        nodes.append(x)
        weights.append(w / 4 * (1 - _psi(x)))
    return tuple(nodes), tuple(weights)


def _taper_integral(qf, T: float) -> float:
    """int_{T/2}^T (1 - psi(t/T)) Q(t) dt for the float Q `qf`; needs T/2 > T_SWITCH."""
    return T * math.fsum(w * qf(T * x) for x, w in zip(*_taper_rule()))


# ---------------------------------------------------------------------------
# the hyperbolic kernel
# ---------------------------------------------------------------------------

def g_k(z1, z2, k: int):
    """g_k(z1, z2) = -2 Q_{k-1}(cosh d(z1, z2)); symmetric, singular on z1=z2."""
    from mpmath import mpc, mpf

    z1, z2 = mpc(z1), mpc(z2)
    t = 1 + abs(z1 - z2) ** 2 / (2 * z1.imag * z2.imag)
    if t <= 1 + mpf(10) ** -10:
        raise SingularConfigurationError("g_k evaluated on the diagonal")
    return -2 * legendre_Q(k - 1, t)


# ---------------------------------------------------------------------------
# orbit sums
# ---------------------------------------------------------------------------

# Largest working precision accepted, in decimal digits.  The work of the
# upgrade pass and the tail grows faster than the digits: on a 2-core Xeon
# with Python 3.11 the (-7, -23) k = 4 `greens` takes 0.23-0.25 s at 1000
# digits in a fresh process (0.25-0.27 s with the mpmath logarithm and sums
# that _log_fixed and Decimal replaced; 0.37-0.41 s with the mpmath pass that
# q_fixed replaced, which took 29 s at 4000).
MAX_DIGITS = 1000


class GreenParams(namedtuple("GreenParams", "tol digits", defaults=(1e-8, 30))):
    """Evaluation parameters; tolerance must respect the working precision."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.digits < 15:
            raise InvalidInputError("working precision must be >= 15 digits")
        if self.digits > MAX_DIGITS:
            raise InvalidInputError(
                f"digits = {self.digits} beyond supported range {MAX_DIGITS}")
        if not math.isfinite(self.tol):
            # a nan tol never stops the doublings, an infinite one is not JSON
            raise InvalidInputError(f"tolerance must be finite, got {self.tol}")
        if self.tol <= 0:
            raise InvalidInputError(f"tolerance must be positive, got {self.tol}")
        if self.tol < 10.0 ** (1 - self.digits):
            raise InvalidInputError("tolerance below working precision")
        return self

    @property
    def upgrade_cosh(self) -> float:
        """Terms with cosh at most this are summed at the working precision
        (upgrade_sum), the rest in floats."""
        return 4.0 if self.tol >= 1e-12 else 64.0


# The doubling ladder of T that both routes climb: the first T (doubled until
# it is at least four times the upgrade bound: 25 at tol >= 1e-12, 400 below)
# and the most rungs before a value is reported as not converged.  From
# T = 25 the 32 rungs end at 400 * 2^27.
INITIAL_T = 25.0
MAX_DOUBLINGS = 32
# The error estimate (see _ladder): the moves it looks back over and its
# safety factor.  Measured at tol 1e-10 (first rung 25) by running ladders at
# 40 digits to a fixed last rung and taking the error against its value, on
# every rung from the third on that lies at least four rungs below it: the
# ratio of error to estimate stayed at most 0.88 (at T = 100) over 4158 rungs
# of 140 k = 2 orbit sums (random pairs of CM points of discriminant >= -24,
# m <= 3; 378 coset ladders to T = 1638400), with one exception, 0.19 over
# 273 rungs of 24 k = 4, 6 orbit sums and 0.11 over 192 rungs of 50 n-sum
# cycles (k = 4, 6; both to T = 25600), counting only rungs whose estimate is
# above 1e-14 of the value.  The exception, 1.32 at T = 3200 in the sum of
# CM(2,-1,3) x CM(2,0,3), m = 3, coset (1, 1, 3), is a rung whose three moves
# start from T = 400, so a first rung of 400 gives it the same estimate.  On
# ladders from T = 400 a second rung, with one move behind it, erred by up
# to 31 times its estimate at k = 2 and 8.7 times at k = 4, where the error
# at T = 800 had hardly moved from T = 400; so the ladder stops from the
# third rung on.
ESTIMATE_WINDOW = 3
ESTIMATE_SAFETY = 2.0


def _ladder(step, params: GreenParams, k: int):
    """(value, history, converged) of a sum truncated at a doubling T.

    step(T, T_prev) adds the terms T_prev < cosh <= T (every term up to T on
    the first rung, T_prev None) and returns (partial, tail, record): the sum
    at T, the estimate of what it leaves out, and the route's counters for
    the history.  The value partial + tail is converged on the first rung,
    from the third on, whose error estimate is below tol.

    The error after the tail correction is the smoothed remainder of the
    orbit count against Q_{k-1}: an envelope C T^-alpha, alpha = k - 1/2,
    times a function of log T that oscillates (the hyperbolic circle
    problem; Iwaniec, Spectral Methods of Automorphic Forms, 2002, ch. 12),
    so it can grow between two rungs and a single move can be accidentally
    small where the error crosses zero.  A move delta_i into rung T_i, carried
    along the envelope to T_j, is delta_i (T_i/T_j)^alpha.  The estimate is
    ESTIMATE_SAFETY times the largest of these over the last ESTIMATE_WINDOW
    moves: for an error that falls monotonically on the envelope it is
    2 (2^alpha - 1) times the error.  The first rung has no move and no
    estimate (None).
    """
    alpha = k - 0.5
    T = INITIAL_T
    while T < params.upgrade_cosh * 4:
        T *= 2
    T_prev = prev = estimate = None
    moves = []      # (T_i, delta_i) of the last ESTIMATE_WINDOW moves
    history = []
    for _ in range(MAX_DOUBLINGS):
        partial, tail, record = step(T, T_prev)
        value = partial + tail
        if prev is not None:
            moves = (moves + [(T, float(abs(value - prev)))])[-ESTIMATE_WINDOW:]
            estimate = ESTIMATE_SAFETY * max(d * (Ti / T) ** alpha for Ti, d in moves)
        history.append({"T": T, **record, "partial": float(partial), "tail": float(tail),
                        "estimate": estimate})
        if len(history) >= 3 and estimate < params.tol:
            return value, history, True
        prev = value
        T_prev, T = T, T * 2
    return value, history, False


# Elements of PSL_2(Z) per unit of cosh d(z1, gamma w), for every z1 and w:
# 2 pi / (pi/3), pi/3 the area of the modular surface.
ORBIT_DENSITY = 6


# a cycle at Delta ~ 1e6, m <= 2 and the upgrade bound 64 has ~94,500 n
@functools.lru_cache(maxsize=1 << 17)
def _q_term(k: int, m: int, Delta: int, n: int, dps: int):
    """Q_{k-1}(n / (m sqrt(Delta))) as (man, e) at dps digits (q_fixed)."""
    return q_fixed(k, n, m * m * Delta, _fixed_bits(dps))


# digits a value carries beyond its working precision
GUARD_DIGITS = 5


def _context(dps: int) -> Context:
    """The decimal context of a value at dps digits, with the default traps."""
    return Context(prec=dps + GUARD_DIGITS)


def _from_bits(man: int, e: int) -> Decimal:
    """man 2^e as a Decimal, rounded once to the current context."""
    return +Decimal(man << e) if e >= 0 else Decimal(man) / (1 << -e)


def upgrade_sum(k: int, m: int, Delta: int, weights, dps: int) -> Decimal:
    """sum w Q_{k-1}(n / (m sqrt(Delta))) over the pairs (n, w) of weights at dps
    digits, each Q once per distinct (k, m, Delta, n, dps) in the process: one
    integer over the smallest exponent of the terms, rounded to a Decimal once."""
    terms = [(w, *_q_term(k, m, Delta, n, dps)) for n, w in weights]
    if not terms:
        return Decimal(0)
    low = min(e for _, _, e in terms)
    with localcontext(_context(dps)):
        return _from_bits(sum((w * man) << (e - low) for w, man, e in terms), low)


@functools.lru_cache(maxsize=1 << 10)
def _tail_integral(n: int, T: float, dps: int):
    """int_{T/2}^T (1 - psi(t/T)) Q_n + int_T^oo Q_n at dps digits: the terms
    the sum at T leaves out, per unit of term density.

    Every orbit sum, and every m of the n-sum, climbs the same doubling ladder
    of T, so the integrals repeat.
    """
    with localcontext(_context(dps)):
        series = _from_bits(*q_tail_fixed(n, T, _fixed_bits(dps)))
        return Decimal(_taper_integral(_q_float_factory(n), T)) + series


# d^-1 mod c for every c <= _inv_rows, shared by all orbit sums; see _inverse_table
_inv_flat = None
_inv_rows = 0


def _inverse_rows(c_lo: int, c_hi: int):
    """Rows c_lo..c_hi of the inverse table as one int64 array.

    Vectorized extended Euclid over every pair (c, r), r > 0, at once:
    a = x r and b = y r mod c throughout, a pair leaves when b reaches 0 with
    a = gcd(c, r), and all values stay within c in size.
    """
    import numpy as np

    cs = np.arange(c_lo, c_hi + 1, dtype=np.int64)
    c = np.repeat(cs, cs)
    r = np.arange(c.size, dtype=np.int64) - np.repeat(np.cumsum(cs) - cs, cs)
    out = np.zeros_like(c)
    live = np.flatnonzero(r)
    a, b = c.take(live), r.take(live)
    x, y = np.zeros_like(a), np.ones_like(a)
    while live.size:
        q = a // b
        a, b = b, a - q * b
        x, y = y, x - q * y
        going = b != 0
        if not going.all():
            done = np.flatnonzero(~going)
            done = done[a.take(done) == 1]      # units: x = r^-1 mod c
            out[live.take(done)] = x.take(done)
            keep = np.flatnonzero(going)
            live, a, b, x, y = (v.take(keep) for v in (live, a, b, x, y))
    out %= c
    return out


def _inverse_table(cmax: int):
    """Read-only int32 array whose entry c(c-1)/2 + r is r^-1 mod c for the
    units r, 0 elsewhere (row c holds r = 0 .. c-1), for at least c <= cmax.

    One table serves every orbit sum of the process and grows only when cmax
    does; the new rows are built about 2^15 entries at a time.
    """
    import numpy as np

    global _inv_flat, _inv_rows
    if not 1 <= cmax < 2 ** 31:
        raise ValueError(f"inverse table needs 1 <= cmax < 2^31, got {cmax}")
    if cmax > _inv_rows:
        parts = [] if _inv_flat is None else [_inv_flat]
        c = _inv_rows + 1
        while c <= cmax:
            # rows c .. last hold at most 2^15 entries, or the one row c
            last = max(c, min(cmax, math.isqrt(c * c + 2 ** 16)))
            parts.append(_inverse_rows(c, last).astype(np.int32))
            c = last + 1
        flat = np.concatenate(parts)
        flat.flags.writeable = False
        _inv_flat, _inv_rows = flat, cmax
    return _inv_flat


# candidate d per block of _coset_blocks: numpy calls amortise over many c,
# and a block's terms are summed before the next block is built.  Measured on
# G_2(i, (-1 + sqrt(-7))/2) at tol 1e-7, 2-core Xeon, Python 3.11: the
# `verify` process peaks at 40.9 MB RSS with 2^15, 38.6 MB with 2^14 and
# 38.8 MB with 2^13; a warm orbit sum takes 0.058 s at 2^14 and 2^13 and
# 0.075 s at 2^12.
COSET_BLOCK = 2 ** 14


class _PairOrbitSum:
    """Sum of g_k(z1, gamma*w) over gamma in PSL_2(Z) for the roots of P1 and
    W, a Hecke translate of index m (discriminant m^2 d2) of a point P2.

    Enumerates Gamma_infinity-cosets (c, d) and integer translates; for each
    term the cosh distance depends on the coset through u = Re(gamma*w) mod 1
    and v = Im(gamma*w).  Each doubling of the cosh bound enumerates only its
    new shell of terms; the terms up to the upgrade bound, all in the first
    shell, are summed once by upgrade_sum from n = m sqrt(Delta) cosh.  Each
    call of step adds one rung of the ladder of the value the sum is part of.
    """

    def __init__(self, P1: CMPoint, W: CMPoint, k: int, params: GreenParams, m: int = 1):
        import numpy as np

        self.np = np
        self.k = k
        self.m = m
        self.params = params
        self.Delta = P1.disc * W.disc // (m * m)
        self.msD = m * math.sqrt(self.Delta)
        z1, w = _float_root(P1), _float_root(W)
        self.x1f, self.y1f = z1.real, z1.imag
        self.uf, self.vf = w.real, w.imag
        self.qf = _q_float_factory(k - 1)
        # running sums of step, and the value at its last rung
        self.terms = self.upgraded = 0
        self.q_up = self.value = None
        self.qsum = 0.0

    # -- coset data ---------------------------------------------------------
    def _coset_bound(self, T: float):
        """(X, cmax): terms with cosh <= T have |c w + d|^2 <= X and c <= cmax."""
        # v-window: terms need Im(gamma w) >= vmin = y1 (T - sqrt(T^2 - 1)),
        # written without the cancellation of that difference at large T
        vmin = self.y1f / (T + math.sqrt(T * T - 1))
        X = self.vf / vmin
        return X, int(math.sqrt(X) / self.vf) + 1

    def _d_ranges(self, c, X: float):
        """(dlo, dhi) arrays: the integer d with (c*u0 + d)^2 <= X - (c*v0)^2
        for each c; dlo > dhi if there is none."""
        np = self.np
        # float_power squares with the C pow, like float ** 2 (x * x can
        # round the other way): the windows match scalar arithmetic bit for bit
        rad2 = X - np.float_power(c * self.vf, 2)
        ok = rad2 > 0
        rad = np.sqrt(np.where(ok, rad2, 0.0))
        cu = -c * self.uf
        dlo = np.where(ok, np.ceil(cu - rad), 1).astype(np.int64)
        dhi = np.where(ok, np.floor(cu + rad), 0).astype(np.int64)
        return dlo, dhi

    def _coset_window(self, table, c, dlo, lens, lo, hi):
        """Columns (c, d, a, u, v, inner) of the unit cosets in the d-ranges of c."""
        np = self.np
        u0, v0 = self.uf, self.vf
        row = np.repeat(np.arange(c.size), lens)
        d = np.repeat(dlo - (np.cumsum(lens) - lens), lens)
        d += np.arange(d.size, dtype=np.int64)
        cc = np.repeat(c, lens)
        a = table.take(np.repeat(c * (c - 1) // 2, lens) + d % cc)     # d^-1 mod c
        unit = a != 0
        if c[0] == 1:
            unit[:lens[0]] = True     # every d is a unit mod 1
        # index arrays, not boolean masks: numpy filters an irregular mask slowly
        keep = np.flatnonzero(unit)
        row, d, a, cc = row.take(keep), d.take(keep), a.take(keep), cc.take(keep)
        inner = (d >= lo.take(row)) & (d <= hi.take(row))
        cd = cc * u0 + d
        denom2 = cd ** 2 + np.float_power(c * v0, 2).take(row)
        v = v0 / denom2
        u = a / cc - cd / (cc * denom2)
        return cc, d, a, u, v, inner

    def _coset_blocks(self, T: float, T_lo: float | None):
        """Blocks (c, d, a, u, v, inner) of the cosets in the d-ranges at T.

        u + i v = gamma w for the representative gamma = (a, *; c, d) of the
        coset (c, d), a = d^-1 mod c; `inner` marks the cosets that were in
        the d-ranges at T_lo.  The d-ranges of all c come from one pass; a
        block is the identity coset, or the unit cosets of consecutive c whose
        d-ranges hold at most COSET_BLOCK candidate d together, or of one c.
        Cosets come in order of (c, d).
        """
        np = self.np
        X, cmax = self._coset_bound(T)
        c = np.arange(1, cmax + 1, dtype=np.int64)
        dlo, dhi = self._d_ranges(c, X)
        lo, hi = np.ones_like(c), np.zeros_like(c)
        if T_lo is not None:
            X_lo, cmax_lo = self._coset_bound(T_lo)
            lo[:cmax_lo], hi[:cmax_lo] = self._d_ranges(c[:cmax_lo], X_lo)
        lens = np.maximum(dhi - dlo + 1, 0)
        ends = np.cumsum(lens)
        table = _inverse_table(cmax)
        # the coset c = 0 of the identity
        yield (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64),
               np.ones(1, dtype=np.int64), np.array([self.uf]),
               np.array([self.vf]), np.array([T_lo is not None]))
        first = 0
        while first < cmax:
            # c[first:last]: at most COSET_BLOCK candidate d, or one c
            before = int(ends[first] - lens[first])
            last = max(first + 1,
                       int(np.searchsorted(ends, before + COSET_BLOCK, side="right")))
            sl = slice(first, last)
            yield self._coset_window(table, c[sl], dlo[sl], lens[sl], lo[sl], hi[sl])
            first = last

    def _terms_below(self, T: float, T_lo: float | None = None):
        """(count, qsum, weighted_qsum, upgrade_list) over the terms T_lo < cosh <= T.

        Without T_lo this is every term with cosh <= T.  A term belongs to the
        shell when its translate lies in the coset's window at T but not in
        the window at T_lo, or its coset was outside the d-ranges at T_lo:
        the same float windows decide both bounds, so the shells of a doubling
        sequence add up exactly to the count at its last T.  Each coset block
        is reduced to its float sums before the next is built: Q is evaluated
        once per term and summed twice, plainly and weighted by psi(cosh/T).
        upgrade_list holds the integer n = m sqrt(Delta) cosh of each term with
        cosh <= upgrade bound.
        """
        count = 0
        sums = self.np.zeros(2)
        upgrades = []
        for block in self._coset_blocks(T, T_lo):
            n, t = self._accumulate(*block, T, T_lo, upgrades)
            if n:
                count += n
                sums += self._q_sums(t, T)
        return count, float(sums[0]), float(sums[1]), upgrades

    def _q_sums(self, t, T: float):
        """[sum Q(t), sum psi(t/T) Q(t)] for a float array of cosh values."""
        q = self.qf(t)
        w = _psi(t / T)
        w *= q      # not q @ w: the BLAS dot maps more resident memory
        return self.np.array([q.sum(), w.sum()])

    def _accumulate(self, c, d, a, u, v, inner, T, T_lo, upgrades):
        """New translates at T for the cosets (c[i], d[i]), fully vectorized.

        A coset marked `inner` was enumerated at T_lo, so only its translates
        outside that window are new.  Returns the term count and the float
        array of the cosh values above the upgrade threshold; the terms at or
        below it are recorded by their integer n for the upgrade pass.
        """
        np = self.np
        x1, y1 = self.x1f, self.y1f
        up = self.params.upgrade_cosh
        gap = (y1 - v) ** 2
        r2 = 2 * y1 * v * (T - 1) - gap
        ok = r2 > 0
        center = x1 - u
        r = np.sqrt(np.where(ok, r2, 0.0))
        jlo = np.ceil(center - r)
        jhi = np.floor(center + r)
        lens = np.where(ok, jhi - jlo + 1, 0).astype(np.int64)
        seg = np.arange(v.size)
        if T_lo is not None:
            # windows only grow with T: an inner coset's new translates are
            # the ends [jlo, ilo - 1] and [ihi + 1, jhi] of its window at T
            r2_in = 2 * y1 * v * (T_lo - 1) - gap
            had = inner & (r2_in > 0)
            r_in = np.sqrt(np.where(had, r2_in, 0.0))
            ilo = np.ceil(center - r_in)
            ihi = np.floor(center + r_in)
            had &= ihi >= ilo
            lens = np.where(had, ilo - jlo, lens).astype(np.int64)
            right = np.flatnonzero(had)
            seg = np.concatenate((seg, right))
            jlo = np.concatenate((jlo, ihi.take(right) + 1))
            lens = np.concatenate((lens, (jhi - ihi).take(right).astype(np.int64)))
        keep = np.flatnonzero(lens > 0)
        seg, jlo, lens = seg.take(keep), jlo.take(keep), lens.take(keep)
        total = int(lens.sum())
        if total == 0:
            return 0, None
        starts = np.cumsum(lens) - lens
        flat = np.repeat(jlo - starts, lens)
        flat += np.arange(total, dtype=np.float64)
        # per-coset values spread over their translates (repeat is cheaper than a gather)
        t = np.repeat(center.take(seg), lens)
        t -= flat
        t *= t
        t += np.repeat(gap.take(seg), lens)
        t /= np.repeat(2 * y1 * v.take(seg), lens)
        t += 1
        small = t <= up
        if small.any():
            if T_lo is not None:
                # the single upgrade pass sees the first shell only
                raise RuntimeError(
                    f"shell ({T_lo}, {T}] holds a term with cosh "
                    f"{float(t[small].min())} <= upgrade bound {up}"
                )
            # 4e-11 from n at Delta ~ 1e6 and the bound 64 (measured)
            x = t[small] * self.msD
            n = np.rint(x)
            off = float(np.abs(x - n).max())
            if not off < 0.25 or x.max() >= 2.0 ** 50:
                raise RuntimeError(f"m sqrt(Delta) cosh up to {float(x.max()):.6g} "
                                   f"lies {off:.3g} from an integer n")
            ns = n.astype(np.int64).tolist()
            if min(ns) ** 2 <= self.m * self.m * self.Delta:
                pos = int(np.flatnonzero(small)[ns.index(min(ns))])
                i = np.repeat(seg, lens)[pos]
                raise SingularConfigurationError(
                    f"singular configuration at coset ({int(c[i])}, {int(d[i])}), "
                    f"translate {int(flat[pos])}"
                )
            upgrades += ns
            t = t[~small]
        return total, t

    def _upgrade_sum(self, upgrades):
        """The sum over the upgrade set, a list of n: Q once per distinct n."""
        return upgrade_sum(self.k, self.m, self.Delta, Counter(upgrades).items(),
                           self.params.digits)

    # -- one rung of the ladder (_ladder) --------------------------------------
    def step(self, T: float, T_prev: float | None):
        """(partial, tail) of the sum at T, after adding the shell T_prev < cosh
        <= T (every term up to T on the first rung, T_prev None)."""
        n, q, qw, upgrades = self._terms_below(T, T_prev)
        self.terms += n
        if T_prev is None:
            # every term with cosh <= upgrade bound lies in the first shell
            # (_accumulate raises otherwise): one upgrade pass; its terms lie
            # below T/2, where psi is 1
            self.upgraded = len(upgrades)
            self.q_up = self._upgrade_sum(upgrades)
        # psi(cosh/T) is 1 on the earlier shells and weights this one
        partial = -2 * (self.q_up + Decimal(self.qsum + qw))
        self.qsum += q
        tail = -2 * ORBIT_DENSITY * _tail_integral(self.k - 1, T, self.params.digits)
        self.value = partial + tail
        return partial, tail


def _hecke_sums(P1: CMPoint, P2: CMPoint, k: int, m: int, params: GreenParams):
    """[(coset, orbit sum)] of G_k | T_m (z1, z2): a _PairOrbitSum for each
    upper-triangular coset (a, b, d), ad = m, 0 <= b < d."""
    out = []
    for a in range(1, m + 1):
        if m % a:
            continue
        d = m // a
        for b in range(d):
            # the form of (a z2 + b)/d, discriminant m^2 d2
            W = CMPoint(P2.A * d * d, d * (a * P2.B - 2 * P2.A * b),
                        P2.A * b * b - a * b * P2.B + a * a * P2.C)
            out.append(((a, b, d), _PairOrbitSum(P1, W, k, params, m)))
    return out


def _orbit_ladder(weighted, params: GreenParams, k: int):
    """(value, diagnostics) of sum c S over the pairs (c, S) of coefficients
    and orbit sums, on one ladder (_ladder): every rung steps every orbit sum,
    and the ladder stops on the error estimate of the weighted sum."""
    def step(T, T_prev):
        partial = tail = Decimal(0)
        for c, s in weighted:
            p, t = s.step(T, T_prev)
            partial += c * p
            tail += c * t
        return partial, tail, {"terms": sum(s.terms for _, s in weighted)}

    value, history, converged = _ladder(step, params, k)
    return value, {
        "T": history[-1]["T"],
        "terms": history[-1]["terms"],
        "upgraded": sum(s.upgraded for _, s in weighted),
        "history": history,
        "estimate": history[-1]["estimate"],
        "converged": converged,
    }


def G_k_hecke(P1: CMPoint, P2: CMPoint, k: int, m: int, params: GreenParams | None = None):
    """G_k | T_m (z1, z2) at the roots z1, z2 of P1, P2: the sum over integral
    matrices of determinant m mod +-1.

    Returns (value, diagnostics), the value a Decimal.  For m = 1 this is
    G_k(z1, z2).  The sigma(m) coset sums climb one ladder, which stops on
    the estimate of their total; `cosets` gives each coset's terms and
    upgraded terms.  No command calls it (cycle values group the pairs
    themselves), but it stays public API: the benchmark tracer wraps it and
    the tests call it at 29 places, for values at single pairs of points.
    """
    params = params or GreenParams()
    if k < 2 or k % 2 != 0:
        raise InvalidInputError("k must be an even integer >= 2")
    if m < 1:
        raise InvalidInputError("Hecke index m must be >= 1")
    with localcontext(_context(params.digits)):
        sums = _hecke_sums(P1, P2, k, m, params)
        value, diag = _orbit_ladder([(1, s) for _, s in sums], params, k)
        diag["cosets"] = [{"coset": list(coset), "terms": s.terms, "upgraded": s.upgraded}
                          for coset, s in sums]
        return value, diag


def _mirror(P: CMPoint) -> CMPoint:
    """The reduced form of the CM point -conj(z) of P.

    That point is the root of (A, -B, C), which is reduced itself when
    0 < |B| < A < C and otherwise equivalent to P.
    """
    return CMPoint(P.A, -P.B, P.C) if 0 < abs(P.B) < P.A < P.C else P


def G_kf_at_cycle(k: int, pp, d1: int, d2: int,
                  params: GreenParams | None = None):
    """G_{k,f}(Z_chi) = (4/(w1 w2)) sum over CM pairs and principal part terms.

    pp maps m to c_f(-m), and an m with c_f(-m) = 0 costs no orbit sum; the
    cycle runs over all pairs of reduced CM points of the coprime
    fundamental discriminants d1, d2 < 0.  Every coset sum of every pair
    climbs one ladder with coefficient 4/(w1 w2) c_f(-m) m^{k-1}, and the
    ladder stops on the error estimate of the cycle value, as the n-sum's
    does.  G_k | T_m (z1, z2) = G_k | T_m (-conj z1, -conj z2), since
    conjugating by diag(-1, 1) permutes the matrices of determinant m, so a
    pair whose mirror pair is already summed adds its coefficient to that
    pair's sums; its per-pair record repeats that pair's value and counts
    and is marked "reused".  The records not reused are the G_k | T_m sums
    evaluated ("orbit_sums"), and their terms add up to the work done.
    Returns (value, diagnostics), the value a Decimal.
    """
    check_cycle_input(k, pp, d1, d2)
    params = params or GreenParams()
    pts1 = cm_points(d1)
    pts2 = cm_points(d2)
    weight = Fraction(4, unit_weight(d1) * unit_weight(d2))
    with localcontext(_context(params.digits)):
        groups = {}     # (P1, P2, m) summed -> [coefficient, its coset sums]
        pairs = []      # (P1, P2, m, key of its group, reused)
        for P1 in pts1:
            for P2 in pts2:
                for m, c in sorted(pp.items()):
                    if not c:
                        continue
                    key = (_mirror(P1), _mirror(P2), m)
                    reused = key in groups
                    if not reused:
                        key = (P1, P2, m)
                        groups[key] = [0, [s for _, s in _hecke_sums(P1, P2, k, m, params)]]
                    groups[key][0] += weight * Fraction(c) * m ** (k - 1)
                    pairs.append((P1, P2, m, key, reused))
        value, diag = _orbit_ladder(
            [(Decimal(c.numerator) / c.denominator, s) for c, sums in groups.values()
             for s in sums],
            params, k)
        per_pair = []
        for P1, P2, m, key, reused in pairs:
            sums = groups[key][1]
            per_pair.append({"pair": [repr(P1), repr(P2)], "m": m,
                             "value": float(sum(s.value for s in sums)),
                             "terms": sum(s.terms for s in sums),
                             "upgraded": sum(s.upgraded for s in sums),
                             "reused": reused})
        return value, {
            "pairs": len(pts1) * len(pts2),
            "orbit_sums": len(groups),
            "weight": float(weight),
            **diag,
            "per_pair": per_pair,
        }


# The n-sum (nsum.cycle_nsum) serves k >= 4 while its span
# sum_{m in pp} m sqrt(Delta) is at most this.  Its work is the number of n,
# about span * T/2, where the orbit route pays the numpy import and then
# counts terms in whole arrays.  Measured: time of one cycle value in a fresh
# process after `import hgreen.cli`, best of 5, the two routes alternating,
# n-sum / orbit route, 2-core Xeon, Python 3.11, pp {1: 1} at k = 4,
# {1: 24, 2: 1} at k = 6, {1: -216, 2: 1} at k = 8:
#   span  k  Delta   tol 1e-10   tol 1e-8
#   12.7  4    161     0.24        0.16
#   17.3  4    301     0.17        0.18
#   32.4  4   1048     0.48        0.25
#   32.9  4   1081     0.46        0.51
#   38.1  6    161     0.29        0.27     k = 8: 0.64, 0.48
#   45.1  4   2033     1.29        0.70
#   52.0  6    301     0.70        0.70     k = 8: 0.49, 0.69
#   56.5  4   3193     0.75        0.81
#   67.8  4   4601     1.82        1.05
#   77.3  4   5969     1.59        0.94
#   97.1  6   1048     1.05        1.01     k = 8: 0.96, 1.01
#  100.2  4  10033     4.51        1.23
#  107.6  4  11573     5.59        1.37
#  135.3  6   2033     1.47        1.43     k = 8: 1.46, 1.45
# Up to 40 the n-sum takes at most 0.64 of the orbit route's time; at 45.1
# (k = 4, tol 1e-10) it takes 1.29, the nearest point above 40, and beyond
# 60 it is slower at most points, up to 5.6 times at span 107.6.  The table
# was measured while the ladder started at T = 400 and stopped on two
# consecutive moves below tol/10, which stopped both routes on the same rung
# as the error estimate or a higher one; it is not measured again under the
# estimate or the first rung T = 25, which shortens both routes.  Both
# routes stop on the same rung with values equal to rounding, so the switch
# changes only the time, not the value.  k = 2
# stays on the orbit route: Q_1 decays like t^-2, so T runs to ~1e5 and the
# n-sum would sieve about as many n as the orbit route sums terms.
NSUM_MAX_SPAN = 40


def cycle_value(k: int, pp, d1: int, d2: int, params: GreenParams | None = None):
    """G_{k,f}(Z_chi), a Decimal, and its diagnostics from the route that suits
    the input.

    k >= 4 with sum_m m sqrt(Delta) <= NSUM_MAX_SPAN, over the m with
    c(-m) != 0, takes the sum over n (nsum.cycle_nsum): its cost grows with
    the span of n, while Q_{k-1} decays fast enough that a short span
    converges.  Everything else takes the orbit route G_kf_at_cycle.  The
    diagnostics name the route.
    """
    Delta = d1 * d2
    m_sum = sum(m for m, c in pp.items() if c)
    if k >= 4 and Delta > 0 and m_sum * math.sqrt(Delta) <= NSUM_MAX_SPAN:
        from .nsum import cycle_nsum

        return cycle_nsum(k, pp, d1, d2, params)
    value, diag = G_kf_at_cycle(k, pp, d1, d2, params)
    return value, {"route": "orbit", **diag}
