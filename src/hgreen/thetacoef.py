"""Fourier coefficients of Hecke's weight-one theta series by two routes.

Route one enumerates lattice points on norm hyperbolas through the reduction
window of the unit action (all integer arithmetic, no floating point).  Route
two runs over integral ideals of the right norm and evaluates genus characters
on sqrt supports.  Their agreement on a full coefficient grid is the module's
main correctness guarantee, together with the counting identity
C_chi(mu0) = 2*rho_{K/F}((mu0)) for totally positive mu0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .qfield import (
    FieldElem,
    FracIdeal,
    InvalidInputError,
    QuadField,
    _canon,
    field,
    integral_content,
)
from .finquad import FQM, GenusChar, fqm as fqm_of, s_h, sqrt_support_engine

ENUMERATION_CAP = 10 ** 9  # window heights beyond this are refused, not attempted


def _window_height(F: QuadField, t_abs: float, den: int, margin: int) -> int:
    """ceil(2 den sqrt(|t| eps_plus / Delta)) + margin, via logs, with a cap.

    Tr(eps_plus) = eps_plus + 1/eps_plus stands in for eps_plus: an integer
    whose log is exact at any size, and an overestimate by at most 15%.  The
    cap trips when |t| Tr(eps_plus) 4 den^2 / Delta passes 1e18; the height
    grows with eps_Delta^(1/4), so only units about the square of those an
    eps_Delta box would refuse are refused.
    """
    if t_abs <= 0:
        return margin
    log_v = (math.log(t_abs) + math.log(int(F.eps_plus().trace()))) / 2 \
        + math.log(2 * den) - math.log(F.D) / 2
    if log_v > math.log(ENUMERATION_CAP):
        raise InvalidInputError(
            "lattice enumeration window exceeds the supported size "
            f"(log height {log_v:.1f}); the fundamental unit is too large"
        )
    return int(math.exp(log_v)) + margin


def solve_norm_in_coset(F: QuadField, lattice: FracIdeal, offset: FieldElem,
                        lo: Fraction, hi: Fraction | None = None,
                        window_margin: int = 2):
    """All mu in C = offset + lattice with lo <= Nm(mu) <= hi, one per <eps_Delta>-orbit.

    hi defaults to lo, a single target norm; the interval may be negative but
    must not contain 0.  Since eps_Delta = eps_plus^2, an eps_plus-orbit of
    norm t is two eps_Delta-orbits, O and eps_plus*O, and it has a member in
    the balanced window |mu|, |mu'| <= sqrt(|t| * eps_plus).  So the window is
    enumerated in C and in eps_plus*C (one enumeration when they are equal):
    each x found in C is kept, and x/eps_plus for each x found in eps_plus*C.
    The results are canonicalized to 1 <= |mu/mu'| < eps_Delta^2 and
    deduplicated.  Enumeration walks integer coordinate pairs: for each
    admissible omega-coordinate the norm interval pins the complementary
    coordinate to a run of square roots (one exact square test for a single
    target), so the cost is linear in the window height.
    """
    D = F.D
    lo = Fraction(lo)
    hi = lo if hi is None else Fraction(hi)
    if lo <= 0 <= hi:
        raise InvalidInputError("norm interval contains 0")
    ep, epsD, one = F.eps_plus(), F.eps_Delta(), F.one
    ep_inv = ep.conj()  # Nm(eps_plus) = 1
    shifted = ep * offset
    if lattice.contains(shifted - offset):
        passes = [(offset, (one, ep_inv))]
    else:
        passes = [(offset, (one,)), (shifted, (ep_inv,))]
    # mu = (U + V*omega)/den with (U, V) integral; eps_plus*offset, an
    # O_F-multiple of offset, has the same den.  The lattice s*(a*Z + (b +
    # omega)*Z) is already in HNF: with k = s*den, V runs over V0 + k*Z and U
    # over U0 + (V - V0)*b + k*a*Z.  offset = (A + B*sqrt(Delta))/n has the
    # coordinates u = (A - B*Delta)/n and v = 2B/n.
    A, B, n = offset.a, offset.b, offset.n
    den = math.lcm(lattice.den, n // gcd(A - B * D, 2 * B, n))
    k = lattice.num * den // lattice.den
    # Nm(U + V*omega) = ((2U + D*V)^2 - D*V^2) / 4, so with s = |2U + D*V|
    # the interval reads t_lo <= s^2 - D*V^2 <= t_hi
    t_lo = math.ceil(4 * den * den * lo)
    t_hi = math.floor(4 * den * den * hi)
    if t_lo > t_hi:
        return []  # no integer s^2 - D*V^2 in the interval
    exact = t_lo == t_hi
    # window bound: |V| * sqrt(D) / den = |mu - mu'| <= 2 sqrt(|t| eps_plus)
    vmax = _window_height(F, float(max(abs(lo), abs(hi))), den, window_margin)
    out = {}
    for base, mults in passes:
        A, B, n = base.a, base.b, base.n
        U0, V0 = (A - B * D) * den // n, 2 * B * den // n
        # V runs over the progression V0 mod k covering [-vmax, vmax]
        for V in range(V0 % k + (-vmax - V0 % k) // k * k, vmax + 1, k):
            dv2 = D * V * V
            top = t_hi + dv2
            if top < 0:
                continue
            s_hi = isqrt(top)
            if exact:
                if s_hi * s_hi != top:
                    continue
                s_lo = s_hi
            else:
                bot = t_lo + dv2
                s_lo = isqrt(bot - 1) + 1 if bot > 0 else 0
            U_shift = U0 + (V - V0) * lattice.b
            for s in range(s_lo, s_hi + 1):
                for sgn in ((s, -s) if s else (s,)):
                    twoU = sgn - D * V
                    if twoU % 2 or (twoU // 2 - U_shift) % (k * lattice.a):
                        continue
                    # (twoU/2 + V*omega)/den = (sgn + V*sqrt(Delta))/(2*den)
                    x = _canon(D, sgn, V, 2 * den)
                    for m in mults:
                        mu = F.unit_orbit_rep(x * m, epsD, one)
                        out[(mu.a, mu.b, mu.n)] = mu
    return list(out.values())


# ---------------------------------------------------------------------------
# route one: lattice coefficients
# ---------------------------------------------------------------------------

class LatticeRoute:
    """c_chi(n/Delta, h) by direct lattice enumeration.

    For each class representative b (integral, norm n_b coprime to Delta) the
    lattice sum over Nm^-(b) + h is rescaled by n_b: beta = n_b * lambda *
    sqrt(Delta) runs over beta in b^2 with beta = sqrt(Delta) * lift(n_b * h)
    mod d, Nm(beta) = n * n_b^2, counted with sgn(beta) modulo <eps_Delta>.
    One sweep per class finds every beta up to a norm bound at once, in the
    window of the eps_plus-orbits (b^2 is eps_plus-stable, so it is one
    enumeration); c_chi reads a per-character table of these sweeps, rebuilt
    at twice the bound when a larger n is asked for.

    The representative set S_F is an explicit input; coefficients of theta_chi
    do not depend on it (tested), the default is the canonical one.
    """

    def __init__(self, Delta: int, reps=None):
        self.F = field(Delta)
        self.fqm = FQM(self.F)
        self.ncg = self.F.narrow_class_group()
        if reps is None:
            reps = self.ncg.reps
        else:
            covered = sorted(self.ncg.resolve(b) for b in reps)
            if covered != list(range(self.ncg.h_plus)):
                raise InvalidInputError("S_F must represent every narrow class once")
            reps = sorted(reps, key=self.ncg.resolve)
            for b in reps:
                n = b.norm()
                if not b.is_integral() or gcd(int(n), self.F.D) != 1:
                    raise InvalidInputError(
                        "S_F members must be integral and coprime to the different"
                    )
        self.reps = list(reps)
        self._tables = {}   # chi -> (n_max, c_chi_table(chi, n_max))

    def class_sweep(self, i: int, n_max: int):
        """Signed lambda-counts {(n, h): count} of class index i, 1 <= n <= n_max.

        Enumerates all beta in b^2 with 0 < Nm(beta) <= n_max * n_b^2 in the
        eps_plus-balanced window, then buckets by (n, class of beta/sqrt(Delta)).
        """
        F = self.F
        fqm = self.fqm
        b = self.reps[i]
        nb = int(b.norm())
        nb_inv = pow(nb, -1, fqm.exponent)
        cap = n_max * nb * nb
        counts = {}
        for beta in solve_norm_in_coset(F, b * b, F.elem(0), 1, cap):
            # Nm(beta) = nm / n^2
            nm, n2 = beta.a * beta.a - beta.b * beta.b * F.D, beta.n * beta.n
            if not 0 < nm <= cap * n2:
                raise RuntimeError(f"enumerated {beta} has norm outside (0, {cap}]")
            if nm % (n2 * nb * nb):
                continue
            key = (nm // (n2 * nb * nb), fqm.smul(nb_inv, fqm.from_numerator(beta)))
            counts[key] = counts.get(key, 0) + beta.sign()
        return counts

    def c_chi_table(self, chi: GenusChar, n_max: int):
        """Full table {(n, h): c} for 1 <= n <= n_max, one sweep per class."""
        table = {}
        for i, rep in enumerate(self.reps):
            cv = chi(rep)
            for key, c in self.class_sweep(i, n_max).items():
                table[key] = table.get(key, 0) + cv * c
        return {k: v for k, v in table.items() if v}

    def c_chi(self, chi: GenusChar, n: int, h) -> int:
        if n <= 0:
            raise InvalidInputError("coefficient index n must be positive")
        n_max, table = self._tables.get(chi, (0, None))
        if n > n_max:
            n_max = max(n, 2 * n_max)
            table = self.c_chi_table(chi, n_max)
            self._tables[chi] = (n_max, table)
        return table.get((n, h), 0)


# ---------------------------------------------------------------------------
# route two: ideal-sum coefficients
# ---------------------------------------------------------------------------

class IdealRoute:
    """c_chi(n/Delta, h) = 2 * s_h * sum over ideals of norm n of chi(sqrt(a, h))."""

    def __init__(self, Delta: int):
        self.F = field(Delta)
        self.fqm = FQM(self.F)
        self.engine = sqrt_support_engine(Delta)

    @lru_cache(maxsize=None)
    def _ideals(self, n: int):
        return tuple(self.F.ideals_of_norm(n))

    def c_chi(self, chi: GenusChar, n: int, h) -> int:
        if n <= 0:
            raise InvalidInputError("coefficient index n must be positive")
        if not chi.odd:
            return 0
        if (self.fqm.DQ(h) + n) % self.F.D:
            return 0  # Q(h) + n/Delta is not an integer
        sh = s_h(self.fqm, h)
        if sh == 0:
            return 0
        tot = 0
        for a in self._ideals(n):
            tot += self.engine.chi_of_support(chi, a, h)
        return 2 * sh * tot


@lru_cache(maxsize=None)
def lattice_route(Delta: int) -> LatticeRoute:
    return LatticeRoute(Delta)


@lru_cache(maxsize=None)
def ideal_route(Delta: int) -> IdealRoute:
    return IdealRoute(Delta)


# ---------------------------------------------------------------------------
# the divisor sum C_chi
# ---------------------------------------------------------------------------

def C_chi(chi: GenusChar, mu0: FieldElem) -> int:
    """Sum over t | (mu0), t in N, of c_chi(Nm(mu0/t)/Delta, (mu0/t)/sqrt(Delta))."""
    if not mu0.is_integral() or mu0.is_zero():
        raise InvalidInputError("C_chi needs a nonzero integral mu0")
    F = chi.F
    fqm = fqm_of(chi.Delta)
    route = ideal_route(chi.Delta)
    c = integral_content(mu0)
    total = 0
    for t in range(1, c + 1):
        if c % t:
            continue
        mu = mu0 / t
        n, n2 = mu.a * mu.a - mu.b * mu.b * F.D, mu.n * mu.n   # Nm(mu) = n / n2
        if n <= 0 or n % n2:
            continue  # cusp form: only positive indices contribute
        h = fqm.from_numerator(mu)
        total += route.c_chi(chi, n // n2, h)
    return total

