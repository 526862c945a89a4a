"""The algebraic side: predicted prime factorization of the CM-value invariant.

For even k and a valid principal part, the averaged Green's function value
satisfies  kappa * G = -Delta^{(1-k)/2} log|gamma/gamma'|  for an element
gamma of F supported on split primes with chi = -1.  The exponent of such a
prime l is an explicit finite sum over totally positive trace slices of the
inverse different, weighted by the odd Legendre polynomial P_{k-1} and the
ideal count rho_{K/F}.

The raw slice sum is antisymmetric under conjugation (ord_l = -ord_l'); the
report clears conjugates by the rational rescaling gamma -> n*gamma, leaving
the exponent 2e on the member of each pair where the raw value e is positive.
This matches the presentation with nonnegative exponents and untouched
log|gamma/gamma'|.  The unit power is fitted numerically against
L(eps) = log|eps/eps'| and rounded to a bounded-denominator rational.

The slice sum uses integers only.  Each mu0 = (n + m sqrt(Delta))/2
contributes rho_{K/F}((mu0) l)(1 + ord_l(mu0)) times the integer weight
G_{k-1}(n) = (k-1)! H_{k-1}, read from one block sieve over n (_sieve_block)
that the n-sum of the numeric side (n > m sqrt(Delta)) shares.  The sieve
leaves a cofactor q || Nm(mu0), 1 or a split prime, and chi at q is read from
a table mod |d|: on the slice Nm(mu0) < 0, so chi_q = -1 occurs.  The local
factors are finquad's rule (prime_character, rho_factor); the oracles that the
tests compare against live with the tests.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, isqrt, lcm

import mpmath
from mpmath import mpf

from .qfield import (
    FieldElem,
    InvalidInputError,
    QuadField,
    _ord,
    factorint,
    field,
    kronecker,
    primes_upto,
    sqrt_mod,
)
from .finquad import GenusChar, prime_character, rho_factor
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
    # n = m*Delta mod 2 makes mu0 integral; n^2 < m^2 Delta, i.e. |n| <= r
    # (Delta is not a square), makes lambda = mu0/sqrt(Delta) =
    # (m + n/sqrt(Delta))/2 totally positive
    r = isqrt(m * m * Delta)
    ns = range(-r + (r + m * Delta) % 2, r + 1, 2)
    return TraceSlice(m, Delta, tuple(F.elem(Fraction(n, 2), Fraction(m, 2)) for n in ns))


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


def _slice_g(k: int, n: int, y2: int) -> int:
    """G_{k-1} = (k-1)! H_{k-1}(n, y) for the homogeneous H_j = y^j P_j(n/y) at
    y^2 = y2, by G_{j+1} = (2j+1) n G_j - j^2 y2 G_{j-1}: an integer.  The
    slice weight ((sqrt(Delta) m)^{k-1}/2) P_{k-1}(n/(sqrt(Delta) m)) is
    G_{k-1}/(2 (k-1)!) at y2 = m^2 Delta."""
    g0, g1 = 1, n
    for j in range(1, k - 1):
        g0, g1 = g1, (2 * j + 1) * n * g1 - j * j * y2 * g0
    return g1


def _entry(Delta: int, u: int, v: int, r: int, p: int, e: int, ec: int):
    """((p, b), r (1 + e_l)), the entry (l, b): rho((mu0) l)(1 + ord_l(mu0)) of
    mu0 = u + v*omega whose one zero factor of rho is at the split p, with r
    the product of the other factors; None where there is none.

    The exponents (e_l, e_l') at l = [p, b + omega] and its conjugate
    [p, -Delta - b + omega] must be (odd, even).  They are (e - ec, ec), the
    first at the prime that holds mu0/c: b = u/v mod p, p^ec divided out.
    """
    if (e - ec) % 2 == ec % 2:
        return None
    pe = p ** ec
    b = u // pe * pow(v // pe, -1, p) % p
    if ec % 2:
        return (p, (-Delta - b) % p), r * (1 + ec)
    return (p, b), r * (1 + e - ec)


# ---------------------------------------------------------------------------
# the sieve over n, shared with the numeric side (nsum.cycle_nsum)
# ---------------------------------------------------------------------------

# values of n per sieve block: bounds the lists one block holds
BLOCK = 1 << 16
# a split prime with at most this many multiples in a block is struck by a
# plain loop over them; one with more, by whole slices (_strike)
FEW = 32


class _Primes:
    """The split primes up to a bound for the character chi, grown on demand.

    An entry (p, root, chi_p, once) has p odd and prime to Delta with Delta a
    square mod p, root a square root of Delta mod p, chi_p the character at
    both primes above p and once the factor of rho at p || Nm(mu0).  The other
    primes that can divide Nm(mu0) = (n^2 - m^2 Delta)/4 are those of
    2 m Delta: an inert p divides it only where p | m.

    At a split p, chi_p = (d1/p) = (d2/p) (prime_character), and the Kronecker
    symbol (d/.) of a fundamental d is a character mod |d|, so chi_p is read
    from the table chi_mod over the residues mod the smaller |d|.  An odd p
    prime to Delta splits exactly where (d1/p) = (d2/p); once an extension
    tests at least 8 |d| numbers for the other d, a table of (d/.) for it
    (other_mod) rejects the inert p without a modular square root.
    """

    def __init__(self, chi: GenusChar):
        self.chi = chi
        self.split = []
        self.limit = 2
        d = max(chi.Delta1, chi.Delta2)
        self.chi_mod = [kronecker(d, r) for r in range(-d)]
        self.other_mod = None

    def upto(self, bound: int):
        if bound > self.limit:
            self._extend(bound)
        return self.split[:bisect_right(self.split, (bound + 1,))]

    def _extend(self, new: int):
        D = self.chi.Delta
        chi_mod, split = self.chi_mod, self.split
        mod = len(chi_mod)
        other = min(self.chi.Delta1, self.chi.Delta2)
        if self.other_mod is None and 8 * -other <= new - self.limit:
            self.other_mod = [kronecker(other, r) for r in range(-other)]
        other_mod = self.other_mod
        once = {x: rho_factor(1, x, 1, 0) for x in (1, -1)}
        for p in primes_upto(new, self.limit):
            x = chi_mod[p % mod]
            if other_mod is None:
                root = sqrt_mod(D, p) if D % p else None
                if root is None:
                    continue
            elif other_mod[p % len(other_mod)] == x:
                root = sqrt_mod(D, p)
            else:
                # inert, or p | Delta, where exactly one symbol is 0
                continue
            split.append((p, root, x, once[x]))
        self.limit = new


def _strike(rest, rho, zero, i0: int, p: int, kind: int, x: int, ec: int, once: int,
            ecs=None) -> None:
    """Divide p out of rest[i], all multiples of p, for i = i0, i0 + p, ...,
    and fold the factor of rho at p (once where p || Nm; p^ec || c, or
    p^ecs[j] at the j-th i) into rho[i].  With chi_p = -1 the factors are 1
    or 0, and a 0 goes to zero[i] instead: 0 while no factor is 0, the prime
    of the one 0 factor, -1 for two or more.

    At an odd split p prime to m (ec = 0) the n with p^2 | Nm on this root
    lift to one class mod p^2 (Hensel) and recur with period p over the
    multiples, so a scan of the first p finds them all.
    """
    at = slice(i0, None, p)
    factors = None
    if p == 2:
        # p^2 | Nm is no exception at 2: divide out the 2-part of every
        # multiple at once, its lowest set bit
        ys = rest[at]
        lows = [y & -y for y in ys]
        ys = [y // b for y, b in zip(ys, lows)]
        if ecs:
            factors = [rho_factor(kind, x, b.bit_length() - 1, c)
                       for b, c in zip(lows, ecs)]
        else:
            table = {1 << e: rho_factor(kind, x, e, ec)
                     for e in range(1, max(lows).bit_length())}
            factors = [table[b] for b in lows]
    else:
        ys = [y // p for y in rest[at]]
        if kind == 1 and not ec:
            first = next((j for j, y in enumerate(ys[:p]) if not y % p), len(ys))
            deep = range(first, len(ys), p)
        else:
            deep = [j for j, y in enumerate(ys) if not y % p]
        for j in deep:
            # p^2 | Nm: the one place e > 1
            if factors is None:
                factors = [once] * len(ys)
            e = 1 + _ord(ys[j], p)
            ys[j] //= p ** (e - 1)
            factors[j] = rho_factor(kind, x, e, ecs[j] if ecs else ec)
    rest[at] = ys
    if x == 1:
        if factors:
            rho[at] = [r * f for r, f in zip(rho[at], factors)]
        elif once != 1:
            rho[at] = [r * once for r in rho[at]]
    elif factors:
        zero[at] = [z if f else -1 if z else p for z, f in zip(zero[at], factors)]
    elif not once:
        zero[at] = [-1 if z else p for z in zero[at]]


def _sieve_block(primes: _Primes, m: int, n0: int, count: int):
    """(rho, zero, rest) for mu0 = (n + m sqrt(Delta))/2 at n = n0, n0 + 2, ...,
    count values of the parity making mu0 integral, all above the slice
    (n0 > m sqrt(Delta)) or all on it (|n| < m sqrt(Delta)): rho[i] the product
    of the nonzero factors of rho_{K/F}((mu0)) (rho_factor), zero[i] the mark
    of _strike, and rest[i] the cofactor of |Nm(mu0)| left over, 1 or a split
    prime q || Nm whose factor 1 + chi_q each reader takes from primes.chi_mod.
    """
    chi = primes.chi
    D = chi.Delta
    mmD = m * m * D
    # |Nm| = s (n^2 - m^2 Delta)/4 grows by s (n + 1) from n to n + 2
    s = 1 if n0 > 0 and n0 * n0 > mmD else -1
    rest = list(accumulate(range(s * (n0 + 1), s * (n0 + 2 * count - 1), 2 * s),
                           initial=s * (n0 * n0 - mmD) >> 2))
    bound = isqrt(rest[-1] if s > 0 else max(rest))
    rho = [1] * count
    zero = [0] * count
    # the primes of 2 m Delta: Nm has period 2 in i mod 2, and an odd
    # p | m Delta divides it where p | n.  For p | m, Nm = u^2 mod p, so
    # p | u wherever p | Nm: p | c = gcd(u, m), once exactly when p || m, and
    # for p^2 | m each multiple of p has its own p^ec || c
    u0 = (n0 - m * D) >> 1      # mu0 = u + m omega with u = u0 + i
    for p in factorint(2 * m * D):
        kind, x = prime_character(chi, p)
        if p == 2:
            starts = [i for i in (0, 1) if i < count and rest[i] % 2 == 0]
        else:
            starts = [-n0 * ((p + 1) >> 1) % p]
        ec = 0 if m % p else 1
        for i0 in starts:
            ecs = None if m % (p * p) else [
                _ord(gcd(u0 + i, m), p) for i in range(i0, count, p)]
            _strike(rest, rho, zero, i0, p, kind, x, ec, rho_factor(kind, x, 1, ec), ecs)
    # a split p divides Nm at n = +-m root mod p, i.e. i = (n - n0)/2 mod p;
    # one with at most FEW multiples in the block is struck one at a time
    for p, root, x, once in primes.upto(bound):
        if m % p == 0:
            continue
        r = m * root % p
        half = (p + 1) >> 1
        for i0 in ((r - n0) * half % p, (-r - n0) * half % p):
            if i0 + FEW * p < count:
                _strike(rest, rho, zero, i0, p, 1, x, 0, once)
                continue
            for i in range(i0, count, p):
                y, f = rest[i] // p, once
                if not y % p:
                    e = 1 + _ord(y, p)
                    y //= p ** (e - 1)
                    f = rho_factor(1, x, e, 0)
                rest[i] = y
                if f:
                    rho[i] *= f
                else:
                    zero[i] = -1 if zero[i] else p
    # no prime up to sqrt(Nm) and none of 2 m Delta is left in rest
    return rho, zero, rest


def _slice_entries(primes: _Primes, m: int, n0: int, count: int) -> list:
    """[(i, (ell, b), r)]: the trace-slice elements mu0 = (n + m sqrt(Delta))/2,
    n = n0 + 2i, |n| < m sqrt(Delta), of the block whose exponent vector is
    {(ell, b): r}, read from the sieve by the same rule (_entry)."""
    rho, zero, rest = _sieve_block(primes, m, n0, count)
    D = primes.chi.Delta
    chi_mod = primes.chi_mod
    mod = len(chi_mod)
    mmD = m * m * D
    u0 = (n0 - m * D) >> 1
    out = []
    for i, (r, p, q) in enumerate(zip(rho, zero, rest)):
        if q > 1:
            # the leftover q || Nm: its factor is 2 at chi_q = +1, else 0
            if chi_mod[q % mod] == 1:
                r *= 2
            else:
                p = -1 if p else q
        if p > 0 and D % p:
            n, u = n0 + 2 * i, u0 + i
            entry = _entry(D, u, m, r, p, _ord((mmD - n * n) >> 2, p), _ord(gcd(u, m), p))
            if entry:
                out.append((i, *entry))
    return out


def gamma_exponents(k: int, pp, d1: int, d2: int) -> FactorReport:
    """Exponent map of gamma for the cycle (d1, d2) and principal part pp.

    Support lies on split primes l with chi(l) = -1; the raw slice sums are
    antisymmetric under conjugation and the reported exponents clear the
    conjugate entries.  kappa is the lcm of the cleared denominators.

    The sieve (_slice_entries) reads n > 0 only: mu0 at -n is -(mu0 at n)',
    with the vector on the conjugate primes and the opposite weight (P_{k-1}
    is odd), so the sums at (l, b) and (l, b') are v and -v, kept at the
    smaller b.  v adds the integers G_{k-1}(n) r times c(-m)/(2 (k-1)!) over
    their common denominator: one Fraction per prime at the end.  The walk
    runs down the slice, so primes come in the order an ascending walk over
    all n first meets them.
    """
    check_cycle_input(k, pp, d1, d2)
    Delta = d1 * d2
    primes = _Primes(GenusChar(d1, d2))
    cfs = {m: Fraction(c) / (2 * factorial(k - 1)) for m, c in sorted(pp.items())}
    den = lcm(*(cf.denominator for cf in cfs.values()))
    sums = {}                   # (ell, smaller b) -> den * v, an integer
    for m, cf in cfs.items():
        if not cf:
            continue
        w = cf.numerator * (den // cf.denominator)
        mmD = m * m * Delta
        n_lo = 2 - m * Delta % 2
        n_end = n_lo + 2 * ((isqrt(mmD) - n_lo) // 2 + 1)
        for start in reversed(range(n_lo, n_end, 2 * BLOCK)):
            size = min(BLOCK, (n_end - start) // 2)
            for i, (ell, b), r in reversed(_slice_entries(primes, m, start, size)):
                g = w * r * _slice_g(k, start + 2 * i, mmD)
                bc = (-Delta - b) % ell
                key = (ell, min(b, bc))
                sums[key] = sums.get(key, 0) + (g if b < bc else -g)
    raw, cleared = {}, {}
    for (ell, b), v in sums.items():
        if v:
            bc = (-Delta - b) % ell
            raw[(ell, b)], raw[(ell, bc)] = Fraction(v, den), Fraction(-v, den)
            # conjugate clearing: keep 2|v| at the member where the sum is positive
            cleared[(ell, b) if v > 0 else (ell, bc)] = Fraction(2 * abs(v), den)
    kappa = lcm(*(v.denominator for v in cleared.values()))
    return FactorReport(Delta, k, primes.chi, cleared, raw, kappa)


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

