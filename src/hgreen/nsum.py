"""The cycle value G_{k,f}(Z_chi) as an arithmetic sum over n.

For coprime negative fundamental d1, d2, Delta = d1 d2, and a principal part
pp = {m: c(-m)},

    G_{k,f}(Z_chi) = sum_m c(-m) (-2) m^{k-1}
        sum_{n > m sqrt(Delta), n = m Delta mod 2} rho_{K/F}((mu0)) Q_{k-1}(n / (m sqrt(Delta)))

with mu0 = (n + m sqrt(Delta))/2 (Gross-Kohnen-Zagier, Math. Ann. 278
(1987), ch. II; Gross-Zagier, "On singular moduli", 1985).  Every term of the
orbit route (greens.G_kf_at_cycle) has cosh d = n/(m sqrt(Delta)) for an
integer n, and grouping the terms of all CM pairs and Hecke cosets by n gives
this sum; the exponent engine (factor.gamma_exponents) sums over the same mu0
on the complementary range |n| < m sqrt(Delta).

rho is read, over each new shell of n, from the integer sieve of Nm(mu0) =
(n^2 - m^2 Delta)/4 that the exponent engine shares (factor._sieve_block).
The cofactor it leaves, 1 or a split prime q || Nm, has the factor 1 + chi_q
with chi_q read from the table _Primes.chi_mod, as on the trace slice; here
mu0 >> 0 makes chi_q = +1 wherever rho is not already 0.

The numerics are the orbit route's: each principal-part term is one summand
(_Slice) of greens._weighted_ladder, which steps the orbit sums too, with
coefficient -2 c(-m) m^(k-1); so one doubling ladder greens._ladder (T from
25 at tol >= 1e-12 and from 400 below, at most MAX_DOUBLINGS rungs) stops
on the error estimate of the cycle value, the two routes stop on the same T
and agree to rounding, and one function writes the diagnostics of both.  A
slice's step adds its new shell of n with psi(t/T) weights on it, the float
series above the upgrade bound and, up to it, the fixed-point pass
greens.upgrade_sum with the weights rho(n): one loop over the nonzero rho
(_Slice._float_pass) that calls no Python function per n, Horner over the
coefficients of greens._q_float_coeffs, as many as the shell's smallest t
needs for 1e-17 relative (12 on the first shell, at most 9 from t = 12.5 on
and 4 from t = 200 on), and psi inline where t > T/2.  Sum rho per unit of t
has mean ORBIT_DENSITY h1 h2 sigma(m) 4/(w1 w2), the orbit density of the
h1 h2 CM pairs with sigma(m) Hecke cosets each times the cycle weight; so the
tail, that density times the orbit route's tail integral, is the sum of its tails.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain, compress
from math import isqrt

from .factor import BLOCK, _Primes, _sieve_block
from .finquad import GenusChar
from .greens import (
    ORBIT_DENSITY,
    GreenParams,
    _context,
    _q_float_coeffs,
    _tail_integral,
    _weighted_ladder,
    cm_points,
    unit_weight,
    upgrade_sum,
)
from .mforms import _sigma, check_cycle_input

def _rho_block(primes: _Primes, m: int, n0: int, count: int):
    """[rho_{K/F}((mu0)) for mu0 = (n + m sqrt(Delta))/2, n = n0, n0 + 2, ...]:
    count values, n0 > m sqrt(Delta) of the parity making mu0 integral."""
    chi_mod = primes.chi_mod
    mod = len(chi_mod)
    rho, zero, rest = _sieve_block(primes, m, n0, count)
    return [0 if z else r * (1 + chi_mod[q % mod]) if q > 1 else r
            for r, z, q in zip(rho, zero, rest)]


def _q_horner(n: int, t: float):
    """(a_{J-1}, (a_{J-2}, ..., a_0), lead): the float series of Q_n
    (greens._q_float_coeffs) cut to the first J terms, the fewest whose
    dropped terms add up to at most 1e-17 of the sum at t and above."""
    coeffs, lead = _q_float_coeffs(n)
    inv2 = 1 / (t * t)
    J, dropped = len(coeffs), 0.0
    while J > 2 and dropped + coeffs[J - 1] * inv2 ** (J - 1) <= 1e-17:
        J -= 1
        dropped += coeffs[J] * inv2 ** J
    return coeffs[J - 1], coeffs[J - 2::-1], lead


class _Slice:
    """The n-sum of one principal-part term c(-m) q^-m, shell by shell, at dps
    digits: a summand of greens._weighted_ladder of coefficient -2 c(-m)
    m^(k-1), built and stepped in the decimal context of the value."""

    def __init__(self, m: int, k: int, D: int, primes: _Primes, density: Fraction,
                 params: GreenParams):
        self.m = m
        self.k = k
        self.D = D
        self.primes = primes
        self.dps = params.digits
        self.mmD = m * m * D
        self.msD = m * math.sqrt(D)
        self.density = Decimal(density.numerator) / density.denominator
        up = Fraction(params.upgrade_cosh)
        # n <= n_up: the terms with t up to the upgrade bound
        self.n_up = isqrt(up.numerator ** 2 * self.mmD // up.denominator ** 2)
        n = isqrt(self.mmD) + 1
        self.next_n = n + (n - m * D) % 2     # n > m sqrt(D), n = m D mod 2
        self.q_up = Decimal(0)
        self.qsum = 0.0
        # running counts of step
        self.n_values = self.terms = self.upgraded = 0

    def step(self, T: float, T_prev: float | None):
        """(partial, tail) at T, after adding the new n with t = n/(m sqrt(Delta))
        <= T: the sum of psi(t/T) rho Q_{k-1}(t), with the terms up to the
        upgrade bound at the working precision and the rest in floats, and
        the density times the tail integral.  The slice resumes at the n after
        its last shell, so T_prev is not needed."""
        Tf = Fraction(T)
        n_hi = isqrt(Tf.numerator ** 2 * self.mmD // Tf.denominator ** 2)
        first = self.next_n
        count = max(0, (n_hi - first) // 2 + 1)
        self.next_n = first + 2 * count
        upgrades, terms, plain, weighted = self._float_pass(self.primes, first, count, T)
        self.q_up += upgrade_sum(self.k, self.m, self.D, upgrades, self.dps)
        self.n_values += count
        self.terms += len(upgrades) + terms
        self.upgraded += len(upgrades)
        # psi(t/T) is 1 on the earlier shells and weights this one
        partial = self.q_up + Decimal(self.qsum + weighted)
        self.qsum += plain
        return partial, self.density * _tail_integral(self.k - 1, T, self.dps)

    def _float_pass(self, primes: _Primes, first: int, count: int, T: float):
        """(upgrades, terms, plain, weighted) over n = first, first + 2, ...,
        count values: the pairs (n, rho) with t up to the upgrade bound, and
        over the other nonzero rho their number, the sum of rho Q_{k-1}(t)
        and the sum of psi(t/T) rho Q_{k-1}(t).

        One loop over the nonzero rho: Q_{k-1}(t) = lead t^-k sum a_j t^-2j
        by Horner over the terms that the smallest t needs (_q_horner), and
        psi(t/T), the step of greens._psi, for t > T/2 only, where it is not 1.
        """
        m, msD = self.m, self.msD
        n_up = self.n_up
        # t <= T/2 up to n_half; above it s = 2 t/T - 1 = n c2 - 1 is in (0, 1]
        n_half = math.floor(T / 2 * msD)
        c2 = 2 / (msD * T)
        top, cs, lead = _q_horner(self.k - 1, max(first, n_up + 1) / msD)
        h = self.k // 2             # t^-k = (t^-2)^h, k even
        exp = math.exp
        upgrades, low, high, weighted = [], [], [], []
        for start in range(first, first + 2 * count, 2 * BLOCK):
            block = min(BLOCK, (first + 2 * count - start) // 2)
            rho = _rho_block(primes, m, start, block)
            for n, r in compress(zip(range(start, start + 2 * block, 2), rho), rho):
                if n <= n_up:
                    upgrades.append((n, r))
                    continue
                u = msD / n             # 1/t
                inv2 = u * u
                acc = top
                for c in cs:
                    acc = acc * inv2 + c
                q = r * acc * inv2 ** h
                if n <= n_half:
                    low.append(q)
                    continue
                high.append(q)
                s = n * c2 - 1
                w = 0.0
                if s < 1:
                    try:
                        w = 1 / (1 + exp((2 * s - 1) / (s * (1 - s))))
                    except OverflowError:
                        pass
                weighted.append(q * w)
        # fsum is exact-rounded, so the order of the terms does not matter
        return (upgrades, len(low) + len(high), lead * math.fsum(chain(low, high)),
                lead * math.fsum(chain(low, weighted)))


def cycle_nsum(k: int, pp, d1: int, d2: int, params: GreenParams | None = None):
    """(G_{k,f}(Z_chi), diagnostics) from the sum over n, the value a Decimal.

    G_kf_at_cycle's value (its oracle) to rounding, on the same last T, from
    no orbit enumeration: one _Slice per principal-part term climbs the
    ladder of greens._weighted_ladder, each rung adding its new shell of n,
    and the ladder stops on the error estimate of the cycle value.
    """
    check_cycle_input(k, pp, d1, d2)
    params = params or GreenParams()
    D = d1 * d2
    primes = _Primes(GenusChar(d1, d2))
    # the orbit density over the h1 h2 CM pairs, times the weight 4/(w1 w2)
    cycle_density = Fraction(4 * ORBIT_DENSITY * len(cm_points(d1)) * len(cm_points(d2)),
                             unit_weight(d1) * unit_weight(d2))
    with localcontext(_context(params.digits)):
        weighted = []
        for m, c in sorted(pp.items()):
            if c:
                coeff = -2 * Fraction(c) * m ** (k - 1)
                density = cycle_density * _sigma(1, m)     # sigma(m) cosets per pair
                weighted.append((Decimal(coeff.numerator) / coeff.denominator,
                                 _Slice(m, k, D, primes, density, params)))
        value, diag = _weighted_ladder(weighted, params, k, ("n_values", "terms"))
        return value, {"route": "nsum", **diag}
