"""Numerical evaluation of higher Green's functions at CM points.

g_k(z1, z2) = -2 Q_{k-1}(cosh d(z1, z2)) is summed over PSL_2(Z)-translates of
the second variable; Hecke translates sum the same kernel over integral
matrices of determinant m modulo +-1, organized as upper-triangular coset
representatives composed with the full PSL_2(Z) sum.

Truncation is adaptive: T doubles until the corrected sums stabilize to the
requested tolerance (witnessed twice).  Each doubling enumerates only its new
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
Gauss-Legendre rule in floats, the second the exact series.

Arithmetic is hybrid: orbit enumeration and the bulk of the sum run in IEEE
doubles (descending-series evaluation of Q, no cancellation for cosh > 2),
while every term with cosh distance below an upgrade bound is recomputed
with mpmath at the configured working precision.  The bound is 4 for
tol >= 1e-12, where the float series is within 2e-14 relative (1.4e-17
absolute) of Q_n for n <= 7, and 64 below that tol.  The first T is at least
four times the bound, so all of these terms lie in the first shell and the
mpmath pass runs once per orbit sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

import mpmath
from mpmath import mpf, mpc

from .qfield import InvalidInputError, factorint, is_fundamental_discriminant
from .mforms import check_cycle_input


class SingularConfigurationError(ValueError):
    """The evaluation point lies on (or too close to) the singular locus."""


# ---------------------------------------------------------------------------
# CM points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMPoint:
    """Reduced positive definite form (A, B, C), root z = (-B + i sqrt|d|)/(2A)."""

    A: int
    B: int
    C: int

    @property
    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    def z(self) -> mpc:
        d = -self.disc
        return mpc(mpf(-self.B), mpmath.sqrt(mpf(d))) / (2 * self.A)

    def __repr__(self):
        return f"CM({self.A},{self.B},{self.C})"


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


def _legendre_p_values(n: int, t):
    """[P_0(t), ..., P_n(t)] by the three-term recurrence (mp or float)."""
    vals = [t * 0 + 1]
    if n >= 1:
        vals.append(t)
    for j in range(1, n):
        vals.append(((2 * j + 1) * t * vals[j] - j * vals[j - 1]) / (j + 1))
    return vals


def _q_series_coeffs(n: int, terms: int):
    """Fractions a_j of the descending expansion Q_n(t) = lead * t^{-n-1} sum a_j t^{-2j}."""
    out = [Fraction(1)]
    for j in range(terms - 1):
        num = (Fraction(n, 2) + 1 + j) * (Fraction(n + 1, 2) + j)
        den = (Fraction(n) + Fraction(3, 2) + j) * (j + 1)
        out.append(out[-1] * num / den)
    return out


def _q_lead(n: int) -> Fraction:
    return Fraction(2 ** n * math.factorial(n) ** 2, math.factorial(2 * n + 1))


_MP_COEFF_CACHE = {}


def _q_coeffs_mpf(n: int, dps: int, count: int):
    """At least `count` series coefficients of Q_n as mpf at dps digits."""
    key = (n, dps)
    have = _MP_COEFF_CACHE.get(key)
    if have is None or len(have[0]) < count:
        fracs = _q_series_coeffs(n, max(count, 16))
        with mpmath.mp.workdps(dps):
            vals = [mpf(a.numerator) / a.denominator for a in fracs]
            lead = mpf(_q_lead(n).numerator) / _q_lead(n).denominator
        have = (vals, lead)
        _MP_COEFF_CACHE[key] = have
    return have


def legendre_Q(n: int, t, dps: int | None = None):
    """Q_n(t) for real t > 1 at the current (or given) mpmath precision.

    Closed form  Q_n = (P_n/2) log((t+1)/(t-1)) - sum_{m=1}^n P_{m-1}P_{n-m}/m
    for t <= 2; descending series in 1/t^2 beyond (the closed form cancels
    catastrophically for large t while the series loses accuracy near 1).
    """
    if n < 0:
        raise InvalidInputError("legendre_Q needs n >= 0")
    ctx = mpmath.mp
    with ctx.workdps(dps or ctx.dps):
        t = mpf(t) if not isinstance(t, (mpf, mpc)) else t
        if t <= 1:
            raise SingularConfigurationError(f"legendre_Q needs t > 1, got {t}")
        if t <= T_SWITCH:
            pv = _legendre_p_values(n, t)
            s = pv[n] / 2 * mpmath.log((t + 1) / (t - 1))
            for m in range(1, n + 1):
                s -= pv[m - 1] * pv[n - m] / m
            return +s
        # number of series terms: (1/t^2)^j < 10^-dps with t > 2
        inv2 = 1 / (t * t)
        need = int(ctx.dps / (2 * math.log10(float(t)))) + 4
        coeffs, lead = _q_coeffs_mpf(n, ctx.dps, need)
        acc = mpf(0)
        for a in reversed(coeffs[:need]):
            acc = acc * inv2 + a
        return +(lead * t ** (-(n + 1)) * acc)


def legendre_Q_integral(n: int, T):
    """Integral of Q_n over [T, infinity) for T > T_SWITCH, by termwise series."""
    dps = mpmath.mp.dps
    T = mpf(T)
    if not T > T_SWITCH:
        raise ValueError(f"Q tail integral needs T > {T_SWITCH}, got {T}")
    eps = mpf(10) ** (-(dps + 5))
    coeffs, lead = _q_coeffs_mpf(n, dps, 16)
    acc = mpf(0)
    for j in range(10001):
        if j == len(coeffs):
            coeffs, lead = _q_coeffs_mpf(n, dps, 2 * j)
        p = n + 2 * j  # integral of t^{-n-1-2j} is T^{-n-2j}/(n+2j)
        term = coeffs[j] * T ** (-p) / p
        acc += term
        if abs(term) < eps * abs(acc):
            return +(lead * acc)
    raise RuntimeError("Q tail integral did not converge")


def _q_float_factory(n: int):
    """Vectorized float64 Q_n(t) for t > T_SWITCH: 12 terms of the descending series."""
    import numpy as np

    coeffs = [float(a) for a in _q_series_coeffs(n, 12)]
    lead = float(_q_lead(n))

    def qf(t):
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
    """psi(x) for a float array: the exp(-1/x) step, 1 for x <= 1/2, 0 for x >= 1."""
    import numpy as np

    s = np.clip(2 * x - 1, 0.0, 1.0)
    # psi = f(1-s) / (f(1-s) + f(s)) with f(y) = exp(-1/y); the ends give
    # exp(-inf) = 0 and exp(inf) = inf, which are the right limits
    with np.errstate(divide="ignore", over="ignore"):
        return 1 / (1 + np.exp((2 * s - 1) / (s * (1 - s))))


@functools.cache
def _taper_rule():
    """Nodes x in (1/2, 1) and weights w with sum w f(x) ~ int_{1/2}^1 (1 - psi) f.

    64-node Gauss-Legendre, 1 - psi folded into the weights; relative error
    ~1e-15 for f = Q_n(T x), n <= 5.  The nodes are Newton-polished roots of
    P_64 (elementwise numpy: a LAPACK eigensolver would map ~1 MB more).
    """
    import numpy as np

    n = 64
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    # from this guess Newton reaches rounding level in 4 steps
    for _ in range(6):
        p = _legendre_p_values(n, x)
        dp = n * (x * p[n] - p[n - 1]) / (x * x - 1)
        x = x - p[n] / dp
    w = 2 / ((1 - x * x) * dp * dp)
    # [-1, 1] -> [1/2, 1]
    x = 0.75 + x / 4
    w = w / 4 * (1 - _psi(x))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _taper_integral(qf, T: float) -> float:
    """int_{T/2}^T (1 - psi(t/T)) Q(t) dt for the float Q `qf`; needs T/2 > T_SWITCH."""
    x, w = _taper_rule()
    return T * float((w * qf(T * x)).sum())


# ---------------------------------------------------------------------------
# the hyperbolic kernel
# ---------------------------------------------------------------------------

def cosh_distance(z1: mpc, z2: mpc):
    return 1 + abs(z1 - z2) ** 2 / (2 * z1.imag * z2.imag)


def g_k(z1, z2, k: int):
    """g_k(z1, z2) = -2 Q_{k-1}(cosh d(z1, z2)); symmetric, singular on z1=z2."""
    t = cosh_distance(mpc(z1), mpc(z2))
    if t <= 1 + mpf(10) ** -10:
        raise SingularConfigurationError("g_k evaluated on the diagonal")
    return -2 * legendre_Q(k - 1, t)


# ---------------------------------------------------------------------------
# orbit sums
# ---------------------------------------------------------------------------

@dataclass
class GreenParams:
    """Evaluation parameters; tolerance must respect the working precision."""

    k: int = 2
    tol: float = 1e-8
    digits: int = 30
    initial_T: float = 400.0
    max_doublings: int = 28

    def __post_init__(self):
        if self.k < 2 or self.k % 2 != 0:
            raise InvalidInputError("k must be an even integer >= 2")
        if self.digits < 15:
            raise InvalidInputError("working precision must be >= 15 digits")
        if self.tol < 10.0 ** (1 - self.digits):
            raise InvalidInputError("tolerance below working precision")

    @property
    def upgrade_cosh(self) -> float:
        """Terms with cosh at most this are summed in mpmath, the rest in floats."""
        return 4.0 if self.tol >= 1e-12 else 64.0


# Elements of PSL_2(Z) per unit of cosh d(z1, gamma w), for every z1 and w:
# 2 pi / (pi/3), pi/3 the area of the modular surface.
ORBIT_DENSITY = 6


def _inverse_table(c: int):
    """int64 array whose entry r is r^-1 mod c for the units r, 0 elsewhere.

    Vectorized square-and-multiply r^(phi(c) - 1) mod c (Euler); products of
    two residues stay below c^2, so int64 holds them for c < 2^31.
    """
    import numpy as np

    if not 1 <= c < 2 ** 31:
        raise ValueError(f"inverse table needs 1 <= c < 2^31, got {c}")
    phi = c
    for p in factorint(c):
        phi -= phi // p
    r = np.arange(c, dtype=np.int64)
    out = np.full(c, 1 % c, dtype=np.int64)
    base, e = r.copy(), phi - 1
    while e:
        if e & 1:
            out *= base
            out %= c
        base *= base
        base %= c
        e >>= 1
    # a non-unit r has no inverse: r * out is not 1 mod c
    out[out * r % c != 1 % c] = 0
    return out


class _PairOrbitSum:
    """Sum of g_k(z1, gamma*w) over gamma in PSL_2(Z) for one point pair.

    Enumerates Gamma_infinity-cosets (c, d) and integer translates; for each
    term the cosh distance depends on the coset through u = Re(gamma*w) mod 1
    and v = Im(gamma*w).  Each doubling of the cosh bound enumerates only its
    new shell of terms; matrices realizing small cosh values, all of them in
    the first shell, are retained so the dominant terms can be recomputed at
    full precision once.
    """

    def __init__(self, z1: mpc, w: mpc, k: int, params: GreenParams):
        import numpy as np

        self.np = np
        self.z1 = z1
        self.w = w
        self.k = k
        self.params = params
        self.x1f, self.y1f = float(z1.real), float(z1.imag)
        self.uf, self.vf = float(w.real), float(w.imag)
        self.qf = _q_float_factory(k - 1)
        self._inv_cache = {}

    # -- coset data ---------------------------------------------------------
    def _inv_table(self, c: int):
        """`_inverse_table(c)`, kept for every later doubling."""
        tab = self._inv_cache.get(c)
        if tab is None:
            tab = _inverse_table(c)
            self._inv_cache[c] = tab
        return tab

    def _coset_bound(self, T: float):
        """(X, cmax): terms with cosh <= T have |c w + d|^2 <= X and c <= cmax."""
        # v-window: terms need Im(gamma w) >= vmin = y1 (T - sqrt(T^2 - 1)),
        # written without the cancellation of that difference at large T
        vmin = self.y1f / (T + math.sqrt(T * T - 1))
        X = self.vf / vmin
        return X, int(math.sqrt(X) / self.vf) + 1

    def _d_range(self, c: int, X: float):
        """Integer d with (c*u0 + d)^2 <= X - (c*v0)^2, as (dlo, dhi); dlo > dhi if none."""
        rad2 = X - (c * self.vf) ** 2
        if rad2 <= 0:
            return 1, 0
        rad = math.sqrt(rad2)
        return math.ceil(-c * self.uf - rad), math.floor(-c * self.uf + rad)

    def _coset_blocks(self, T: float, T_lo: float | None):
        """Blocks (c, d, u, v, inner) of the cosets in the d-ranges at T.

        u + i v = gamma w for the representative gamma of the coset (c, d)
        with upper-left entry d^-1 mod c; `inner` marks the cosets that were
        in the d-ranges at T_lo.  A block holds consecutive c and at least
        2^15 cosets, so its numpy calls amortise over many c.
        """
        np = self.np
        u0, v0 = self.uf, self.vf
        X, cmax = self._coset_bound(T)
        X_lo, cmax_lo = self._coset_bound(T_lo) if T_lo is not None else (0.0, -1)
        block = [(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64),
                  np.array([u0]), np.array([v0]), np.array([T_lo is not None]))]
        size = 1
        for c in range(1, cmax + 1):
            dlo, dhi = self._d_range(c, X)
            if dlo > dhi:
                continue
            d = np.arange(dlo, dhi + 1, dtype=np.int64)
            a = np.take(self._inv_table(c), d, mode="wrap")   # d^-1 mod c
            if c > 1:
                unit = a != 0
                d, a = d[unit], a[unit]
            lo, hi = self._d_range(c, X_lo) if c <= cmax_lo else (1, 0)
            cd = c * u0 + d
            denom2 = cd ** 2 + (c * v0) ** 2
            v = v0 / denom2
            u = a / c - cd / (c * denom2)
            block.append((np.full(d.size, c, dtype=np.int64), d, u, v,
                          (d >= lo) & (d <= hi)))
            size += d.size
            if size >= 2 ** 15:
                yield tuple(np.concatenate(col) for col in zip(*block))
                block, size = [], 0
        if block:
            yield tuple(np.concatenate(col) for col in zip(*block))

    def _terms_below(self, T: float, T_lo: float | None = None):
        """(count, qsum, weighted_qsum, upgrade_list) over the terms T_lo < cosh <= T.

        Without T_lo this is every term with cosh <= T.  A term belongs to the
        shell when its translate lies in the coset's window at T but not in
        the window at T_lo, or its coset was outside the d-ranges at T_lo:
        the same float windows decide both bounds, so the shells of a doubling
        sequence add up exactly to the count at its last T.  The float terms
        are summed twice from one evaluation: plainly, and weighted by
        psi(cosh/T).  upgrade_list holds (coset c, d, translate j) for
        cosh <= upgrade bound.
        """
        np = self.np
        count = 0
        sums = np.zeros(2)
        pending = 0
        upgrades = []
        chunks = []
        for block in self._coset_blocks(T, T_lo):
            n = self._accumulate(*block, T, T_lo, upgrades, chunks)
            count += n
            pending += n
            # flush the Q evaluation periodically to bound memory
            if pending > 2 ** 21:
                sums += self._q_sums(np.concatenate(chunks), T)
                chunks.clear()
                pending = 0
        if chunks:
            sums += self._q_sums(np.concatenate(chunks), T)
        return count, float(sums[0]), float(sums[1]), upgrades

    def _q_sums(self, t, T: float):
        """[sum Q(t), sum psi(t/T) Q(t)] for a float array of cosh values."""
        q = self.qf(t)
        w = _psi(t / T)
        w *= q      # not q @ w: the BLAS dot maps more resident memory
        return self.np.array([q.sum(), w.sum()])

    def _accumulate(self, c, d, u, v, inner, T, T_lo, upgrades, chunks) -> int:
        """New translates at T for the cosets (c[i], d[i]), fully vectorized.

        A coset marked `inner` was enumerated at T_lo, so only its translates
        outside that window are new.  Returns the term count; arguments above
        the upgrade threshold go to `chunks` for a batched Q evaluation, the
        rest are recorded with their matrix data for the mpmath pass.
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
            seg = np.concatenate((seg, np.nonzero(had)[0]))
            jlo = np.concatenate((jlo, ihi[had] + 1))
            lens = np.concatenate((lens, (jhi - ihi)[had].astype(np.int64)))
        keep = lens > 0
        seg, jlo, lens = seg[keep], jlo[keep], lens[keep]
        total = int(lens.sum())
        if total == 0:
            return 0
        starts = np.cumsum(lens) - lens
        flat = np.repeat(jlo - starts, lens)
        flat += np.arange(total, dtype=np.float64)
        owner = np.repeat(seg, lens)
        t = 1 + ((center[owner] - flat) ** 2 + gap[owner]) / (2 * y1 * v[owner])
        small = t <= up
        if small.any():
            if T_lo is not None:
                # the single mpmath pass sees the first shell only
                raise RuntimeError(
                    f"shell ({T_lo}, {T}] holds a term with cosh "
                    f"{float(t[small].min())} <= upgrade bound {up}"
                )
            if float(t[small].min()) <= 1 + 1e-10:
                bad = int(np.argmin(t))
                i = owner[bad]
                raise SingularConfigurationError(
                    f"singular configuration at coset ({int(c[i])}, {int(d[i])}), "
                    f"translate {int(flat[bad])}"
                )
            for pos in np.nonzero(small)[0]:
                i = owner[pos]
                upgrades.append((int(c[i]), int(d[i]), int(flat[pos])))
            t = t[~small]
        if t.size:
            chunks.append(t)
        return total

    # -- precise evaluation of retained terms --------------------------------
    def _upgrade_sum(self, upgrades):
        z1 = self.z1
        w = self.w
        k = self.k
        total = mpf(0)
        for (c, d, j) in upgrades:
            if c == 0:
                mat = (1, j, 0, 1)
                gz = w + j
            else:
                a = pow(d % c, -1, c)
                b = (a * d - 1) // c
                mat = (a + j * c, b + j * d, c, d)
                gz = (a * w + b) / (c * w + d) + j
            t = cosh_distance(z1, gz)
            if t <= 1 + mpf(10) ** -10:
                raise SingularConfigurationError(
                    f"singular configuration at matrix "
                    f"({mat[0]},{mat[1]};{mat[2]},{mat[3]})"
                )
            total += legendre_Q(k - 1, t)
        return total

    # -- adaptive evaluation ---------------------------------------------------
    def evaluate(self):
        """(value, diagnostics) with the doubling convergence witness."""
        p = self.params
        T = max(p.initial_T, p.upgrade_cosh * 4)
        prev_S = None
        prev_count = 0
        prev_T = 1.0
        stable = 0
        history = []
        count = 0
        qsum_f = 0.0
        upgraded = 0
        for it in range(p.max_doublings):
            n, q, qw, upgrades = self._terms_below(T, None if it == 0 else prev_T)
            count += n
            if it == 0:
                # every term with cosh <= upgrade bound lies in the first
                # shell (_accumulate raises otherwise): one mpmath pass; its
                # terms lie below T/2, where psi is 1
                upgraded = len(upgrades)
                q_up = self._upgrade_sum(upgrades)
            # psi(cosh/T) is 1 on the earlier shells and weights this one
            S = -2 * (q_up + (qsum_f + qw))
            qsum_f += q
            tail = -2 * ORBIT_DENSITY * (_taper_integral(self.qf, T)
                                         + legendre_Q_integral(self.k - 1, T))
            S_corr = S + tail
            history.append(
                {"T": T, "terms": count, "partial": float(S), "tail": float(tail)}
            )
            if prev_S is not None and abs(S_corr - prev_S) < p.tol / 10:
                stable += 1
                if stable >= 2:
                    return S_corr, {
                        "pair_T": T,
                        "terms": count,
                        "upgraded": upgraded,
                        "history": history,
                        "converged": True,
                    }
            else:
                stable = 0
            prev_S = S_corr
            prev_count = count
            prev_T = T
            T *= 2
        return prev_S, {
            "pair_T": T / 2,
            "terms": prev_count,
            "upgraded": upgraded,
            "history": history,
            "converged": False,
        }


def _hecke_cosets(m: int):
    """Upper-triangular representatives (a, b, d), ad = m, 0 <= b < d."""
    out = []
    for a in range(1, m + 1):
        if m % a:
            continue
        d = m // a
        for b in range(d):
            out.append((a, b, d))
    return out


def G_k_hecke(z1, z2, k: int, m: int, params: GreenParams | None = None):
    """G_k | T_m (z1, z2): sum over integral matrices of determinant m mod +-1.

    Returns (value, diagnostics).  For m = 1 this is G_k(z1, z2).
    """
    params = params or GreenParams(k=k)
    if params.k != k:
        params = replace(params, k=k)
    if m < 1:
        raise InvalidInputError("Hecke index m must be >= 1")
    with mpmath.mp.workdps(params.digits):
        z1 = mpc(z1)
        z2 = mpc(z2)
        total = mpf(0)
        diag = {"cosets": [], "converged": True}
        for (a, b, d) in _hecke_cosets(m):
            w = (a * z2 + b) / d
            val, pd = _PairOrbitSum(z1, w, k, params).evaluate()
            total += val
            diag["cosets"].append({"coset": [a, b, d], **pd})
            diag["converged"] = diag["converged"] and pd["converged"]
        return +total, diag


def G_kf_at_cycle(k: int, pp, d1: int, d2: int,
                  params: GreenParams | None = None):
    """G_{k,f}(Z_chi) = (4/(w1 w2)) sum over CM pairs and principal part terms.

    pp maps m to c_f(-m); the cycle runs over all pairs of reduced CM points of
    the coprime fundamental discriminants d1, d2 < 0.
    """
    check_cycle_input(k, pp, d1, d2)
    params = params or GreenParams(k=k)
    pts1 = cm_points(d1)
    pts2 = cm_points(d2)
    w1 = unit_weight(d1)
    w2 = unit_weight(d2)
    with mpmath.mp.workdps(params.digits):
        weight = mpf(4) / (w1 * w2)
        total = mpf(0)
        diags = []
        converged = True
        for P1 in pts1:
            for P2 in pts2:
                zz1, zz2 = P1.z(), P2.z()
                for m, c in sorted(pp.items()):
                    val, pd = G_k_hecke(zz1, zz2, k, m, params)
                    cf = Fraction(c)
                    total += (mpf(cf.numerator) / cf.denominator
                              * mpf(m) ** (k - 1) * val)
                    converged = converged and pd["converged"]
                    diags.append({
                        "pair": [repr(P1), repr(P2)], "m": m,
                        "value": float(val),
                        "converged": pd["converged"],
                        "terms": sum(cd["terms"] for cd in pd["cosets"]),
                        "upgraded": sum(cd["upgraded"] for cd in pd["cosets"]),
                    })
        return +(weight * total), {
            "pairs": len(pts1) * len(pts2),
            "weight": float(weight),
            "converged": converged,
            "per_pair": diags,
        }
