"""The cycle value G_{k,f}(Z_chi) as an arithmetic sum over n.

For coprime negative fundamental d1, d2, Delta = d1 d2, and a principal part
pp = {m: c(-m)},

    G_{k,f}(Z_chi) = sum_m c(-m) (-2) m^{k-1}
        sum_{n > m sqrt(Delta), n = m Delta mod 2} rho_{K/F}((mu0)) Q_{k-1}(n / (m sqrt(Delta)))

with mu0 = (n + m sqrt(Delta))/2 (Gross-Kohnen-Zagier, Math. Ann. 278
(1987), ch. II; Gross-Zagier, "On singular moduli", 1985).  Every term of the
orbit route (greens.G_kf_at_cycle) has cosh d = n/(m sqrt(Delta)) for an
integer n, and grouping the terms of all CM pairs and Hecke cosets by n gives
this sum; the exponent engine (factor.trace_slice) sums over the same mu0 on
the complementary range |n| < m sqrt(Delta).

rho is multiplicative in Nm(mu0) = (n^2 - m^2 Delta)/4, with the local factors
of factor.rho_factor.  Nm is sieved over each new shell of n in plain Python:
a split prime p up to sqrt(max Nm) divides it exactly at the n with
n^2 = m^2 Delta mod p, the primes of 2 m Delta are struck one progression at
a time, and the cofactor left over is 1 or a split prime q of exponent 1.
Its factor needs no test: chi is trivial on the totally positive mu0, so
where rho is not already 0, chi = +1 at the prime above q that divides mu0.

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
from bisect import bisect_right
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt

import mpmath
from mpmath import mpf

from .factor import _ord, prime_character, rho_factor
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
from .qfield import factorint, kronecker, sqrt_mod

# values of n per sieve block: bounds the lists one block holds
BLOCK = 1 << 16


class _Primes:
    """The split primes up to a bound for the character chi, grown on demand.

    An entry (p, root, chi_p, once) has p odd and prime to Delta with Delta a
    square mod p, root a square root of Delta mod p, chi_p the character at
    both primes above p and once the factor of rho at p || Nm(mu0).  The other
    primes that can divide Nm(mu0) = (n^2 - m^2 Delta)/4 are those of
    2 m Delta: an inert p divides it only where p | m.

    At a split p, chi_p = (d1/p) = (d2/p) (factor.prime_character), and the
    Kronecker symbol (d/.) of a fundamental d is a character mod |d|, so
    chi_p is read from a table over the residues mod the smaller |d|.
    """

    def __init__(self, chi: GenusChar):
        self.chi = chi
        self.ps = []
        self.split = []
        self.limit = 2
        d = max(chi.Delta1, chi.Delta2)
        self.chi_mod = [kronecker(d, r) for r in range(-d)]

    def upto(self, bound: int):
        if bound > self.limit:
            self._extend(bound)
        return self.split[:bisect_right(self.ps, bound)]

    def _extend(self, new: int):
        flags = bytearray([1]) * (new + 1)
        for q in range(2, isqrt(new) + 1):
            if flags[q]:
                flags[q * q::q] = bytes(len(range(q * q, new + 1, q)))
        D = self.chi.Delta
        mod = len(self.chi_mod)
        lo = self.limit + 1
        for p in compress(range(lo, new + 1), flags[lo:]):
            root = sqrt_mod(D, p) if D % p else None
            if root is not None:
                x = self.chi_mod[p % mod]
                self.ps.append(p)
                self.split.append((p, root, x, rho_factor(1, x, 1, 0)))
        self.limit = new


def _strike(rest, rho, i0: int, p: int, kind: int, x: int, ec: int, once: int) -> None:
    """Divide p out of rest[i], all multiples of p, for i = i0, i0 + p, ...,
    and multiply rho[i] by the factor of rho at p, p^ec || c for each i (once
    where p || Nm)."""
    ys = [y // p for y in rest[i0::p]]
    deep = [j for j, y in enumerate(ys) if not y % p]
    if deep:
        # p^2 | Nm: the one place e > 1
        factors = [once] * len(ys)
        for j in deep:
            y, e = ys[j] // p, 2
            while y % p == 0:
                y //= p
                e += 1
            ys[j] = y
            factors[j] = rho_factor(kind, x, e, ec)
        rho[i0::p] = [r * f for r, f in zip(rho[i0::p], factors)]
    elif once != 1:
        rho[i0::p] = [r * once for r in rho[i0::p]]
    rest[i0::p] = ys


def _rho_block(primes: _Primes, m: int, n0: int, count: int):
    """[rho_{K/F}((mu0)) for mu0 = (n + m sqrt(Delta))/2, n = n0, n0 + 2, ...]:
    count values, n0 > m sqrt(Delta) of the parity making mu0 integral."""
    chi = primes.chi
    D = chi.Delta
    mmD = m * m * D
    rest = [(n * n - mmD) >> 2 for n in range(n0, n0 + 2 * count, 2)]
    rho = [1] * count
    bound = isqrt(rest[-1])
    # the primes of 2 m Delta: Nm has period 2 in i mod 2, and an odd
    # p | m Delta divides it where p | n.  For p | m, Nm = u^2 mod p, so
    # p | u wherever p | Nm: p | c = gcd(u, m), once exactly when p || m
    u0 = (n0 - m * D) >> 1      # mu0 = u + m omega with u = u0 + i
    for p in factorint(2 * m * D):
        kind, x = prime_character(chi, p)
        if p == 2:
            starts = [i for i in (0, 1) if i < count and rest[i] % 2 == 0]
        else:
            starts = [-n0 * ((p + 1) >> 1) % p]
        for i0 in starts:
            if m % (p * p):
                ec = 0 if m % p else 1
                _strike(rest, rho, i0, p, kind, x, ec, rho_factor(kind, x, 1, ec))
                continue
            for i in range(i0, count, p):
                y, e = rest[i] // p, 1
                while y % p == 0:
                    y //= p
                    e += 1
                rest[i] = y
                rho[i] *= rho_factor(kind, x, e, _ord(gcd(u0 + i, m), p))
    # a split p divides Nm at n = +-m root mod p, i.e. i = (n - n0)/2 mod p
    for p, root, x, once in primes.upto(bound):
        if m % p == 0:
            continue
        r = m * root % p
        half = (p + 1) >> 1
        for i0 in ((r - n0) * half % p, (-r - n0) * half % p):
            if i0 + p < count:
                _strike(rest, rho, i0, p, 1, x, 0, once)
            elif i0 < count:
                # the one multiple of p in the block
                y, e = rest[i0] // p, 1
                while y % p == 0:
                    y //= p
                    e += 1
                rest[i0] = y
                rho[i0] *= once if e == 1 else rho_factor(1, x, e, 0)
    # no prime up to sqrt(Nm) and none of 2 m Delta is left: q is a split
    # prime with exponent 1.  chi is trivial on (mu0), mu0 >> 0, and where
    # rho != 0 every prime with chi = -1 met so far has an even exponent, so
    # chi = +1 at the prime above q that divides mu0
    once = rho_factor(1, 1, 1, 0)
    return [r * once if r and q > 1 else r for r, q in zip(rho, rest)]


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
