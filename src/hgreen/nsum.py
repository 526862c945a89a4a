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

The numerics are the orbit route's: the one doubling ladder greens._ladder
(T from INITIAL_T, at most MAX_DOUBLINGS rungs), psi(t/T) weights on the
newest shell, the float series above the upgrade bound and, up to it, the
mpmath pass greens.upgrade_sum with the weights rho(n).  Sum rho per unit of
t has mean 24 h1 h2 sigma(m)/(w1 w2), the orbit density 6 of the h1 h2 CM
pairs with sigma(m) Hecke cosets each, times the cycle weight 4/(w1 w2); so
the tail is that density times the orbit route's tail integral, and equals
the sum of the orbit route's tails.  The witness (a change below tol/10
twice) applies to the cycle value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt

import mpmath
from mpmath import mpf

from .factor import BLOCK, _Primes, _sieve_block
from .finquad import GenusChar
from .greens import (
    GreenParams,
    _ladder,
    _psi,
    _q_float_factory,
    _tail_integral,
    cm_points,
    unit_weight,
    upgrade_sum,
)
from .mforms import check_cycle_input

def _rho_block(primes: _Primes, m: int, n0: int, count: int):
    """[rho_{K/F}((mu0)) for mu0 = (n + m sqrt(Delta))/2, n = n0, n0 + 2, ...]:
    count values, n0 > m sqrt(Delta) of the parity making mu0 integral."""
    chi_mod = primes.chi_mod
    mod = len(chi_mod)
    rho, zero, rest = _sieve_block(primes, m, n0, count)
    return [0 if z else r * (1 + chi_mod[q % mod]) if q > 1 else r
            for r, z, q in zip(rho, zero, rest)]


class _Slice:
    """The n-sum of one principal-part term c(-m) q^-m, shell by shell."""

    def __init__(self, m: int, cf: Fraction, k: int, D: int, cycle_density: Fraction,
                 upgrade_cosh: float):
        self.m = m
        self.k = k
        self.D = D
        self.mmD = m * m * D
        self.msD = m * math.sqrt(D)
        self.coeff = -2 * mpf(cf.numerator) / cf.denominator * mpf(m) ** (k - 1)
        # sum rho per unit of t: sigma(m) Hecke cosets per CM pair
        density = cycle_density * sum(a for a in range(1, m + 1) if m % a == 0)
        self.density = mpf(density.numerator) / density.denominator
        up = Fraction(upgrade_cosh)
        self.up_n2 = up.numerator ** 2 * self.mmD // up.denominator ** 2
        n = isqrt(self.mmD) + 1
        self.next_n = n + (n - m * D) % 2     # n > m sqrt(D), n = m D mod 2
        self.q_up = mpf(0)
        self.qsum = 0.0
        self.upgraded = 0

    def shell(self, primes: _Primes, T: float):
        """(n values, nonzero terms, sum of psi(t/T) rho Q_{k-1}(t)) over the
        new n with t = n/(m sqrt(Delta)) <= T; the terms with t up to the
        upgrade bound are summed in mpmath, the rest in floats."""
        Tf = Fraction(T)
        n_hi = isqrt(Tf.numerator ** 2 * self.mmD // Tf.denominator ** 2)
        first = self.next_n
        count = max(0, (n_hi - first) // 2 + 1)
        self.next_n = first + 2 * count
        qf = _q_float_factory(self.k - 1)
        msD, half_T = self.msD, T / 2
        plain, weighted, upgrades = [], [], []
        nonzero = 0
        for start in range(first, first + 2 * count, 2 * BLOCK):
            block = min(BLOCK, (first + 2 * count - start) // 2)
            for i, r in enumerate(_rho_block(primes, self.m, start, block)):
                if not r:
                    continue
                nonzero += 1
                n = start + 2 * i
                if n * n <= self.up_n2:
                    upgrades.append((n, r))
                    continue
                t = n / msD
                q = r * qf(t)
                plain.append(q)
                weighted.append(q * _psi(t / T) if t > half_T else q)
        self.q_up += upgrade_sum(self.k, self.m, self.D, upgrades, mpmath.mp.dps)
        self.upgraded += len(upgrades)
        # psi(t/T) is 1 on the earlier shells and weights this one
        S = self.q_up + (self.qsum + math.fsum(weighted))
        self.qsum += math.fsum(plain)
        return count, nonzero, S


def cycle_nsum(k: int, pp, d1: int, d2: int, params: GreenParams | None = None):
    """(G_{k,f}(Z_chi), diagnostics) from the sum over n.

    The same value as G_kf_at_cycle (its oracle) from no orbit enumeration:
    on each rung of greens._ladder every principal-part term sums its new
    shell of n, and the ladder's witness applies to the cycle value.
    """
    check_cycle_input(k, pp, d1, d2)
    params = params or GreenParams()
    D = d1 * d2
    primes = _Primes(GenusChar(d1, d2))
    # orbit density 6 over the h1 h2 CM pairs, times the weight 4/(w1 w2)
    cycle_density = Fraction(24 * len(cm_points(d1)) * len(cm_points(d2)),
                             unit_weight(d1) * unit_weight(d2))
    with mpmath.mp.workdps(params.digits):
        dps = mpmath.mp.dps
        slices = [_Slice(m, Fraction(c), k, D, cycle_density, params.upgrade_cosh)
                  for m, c in sorted(pp.items()) if c]
        n_values = nonzero = 0

        def step(T, T_prev):
            nonlocal n_values, nonzero
            partial = tail = mpf(0)
            tail_integral = _tail_integral(k - 1, T, dps)
            for s in slices:
                count, nz, S = s.shell(primes, T)
                n_values += count
                nonzero += nz
                partial += s.coeff * S
                tail += s.coeff * s.density * tail_integral
            return partial, tail, {"n_values": n_values, "terms": nonzero}

        value, history, converged = _ladder(step, params)
        return +value, {
            "route": "nsum",
            "T": history[-1]["T"],
            "n_values": n_values,
            "terms": nonzero,
            "upgraded": sum(s.upgraded for s in slices),
            "history": history,
            "converged": converged,
        }
