"""Exact q-expansions of level-one modular forms over the rationals.

Provides Eisenstein series, the discriminant cusp form, echelonized bases of
cusp spaces, and the residue-theorem obstruction check for principal parts of
weakly holomorphic forms of negative weight.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .qfield import InvalidInputError, QuadField, is_fundamental_discriminant

# Largest principal-part index m accepted.  Both engines grow with m.  On a
# 2-core Xeon with Python 3.11, at m = 100 check_principal_part(6, {m: 1})
# takes 0.4 s and `factor` on Delta = 999996 19 s (a trace slice of
# ~m*sqrt(Delta) = 1e5 elements); at m = 1000 the obstruction check alone
# takes 15.6 s.
MAX_PP_INDEX = 100


class QSeries:
    """Truncated q-expansion with exact rational coefficients.

    Coefficients are a dict {exponent: Fraction}; `prec` means coefficients are
    reliable for exponents < prec.
    """

    def __init__(self, coeffs, prec: int):
        self.prec = prec
        self.coeffs = {
            e: Fraction(c) for e, c in coeffs.items() if c != 0 and e < prec
        }

    def __getitem__(self, e: int) -> Fraction:
        if e >= self.prec:
            raise IndexError(f"coefficient {e} beyond precision {self.prec}")
        return self.coeffs.get(e, Fraction(0))

    def leading_exponent(self) -> int:
        if not self.coeffs:
            return self.prec
        return min(self.coeffs)

    def __add__(self, o: "QSeries") -> "QSeries":
        prec = min(self.prec, o.prec)
        out = dict(self.coeffs)
        for e, c in o.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return QSeries(out, prec)

    def __sub__(self, o: "QSeries") -> "QSeries":
        return self + o.scale(-1)

    def scale(self, c) -> "QSeries":
        c = Fraction(c)
        return QSeries({e: c * v for e, v in self.coeffs.items()}, self.prec)

    def __mul__(self, o: "QSeries") -> "QSeries":
        a1 = self.leading_exponent()
        a2 = o.leading_exponent()
        prec = min(self.prec + a2, o.prec + a1)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in o.coeffs.items():
                e = e1 + e2
                if e < prec:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return QSeries(out, prec)

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            raise ValueError(f"QSeries power needs n >= 0, got {n}")
        if n == 0:
            return QSeries({0: 1}, self.prec)
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, o):
        if not isinstance(o, QSeries):
            return NotImplemented
        prec = min(self.prec, o.prec)
        return all(self[e] == o[e] for e in range(min(self.leading_exponent(), o.leading_exponent(), 0), prec))

    def __repr__(self):
        terms = [f"{c}*q^{e}" for e, c in sorted(self.coeffs.items())[:6]]
        return " + ".join(terms) + f" + O(q^{self.prec})"


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = -1/2, by the standard recurrence."""
    if k == 0:
        return Fraction(1)
    # sum_{j=0}^{k} C(k+1, j) B_j = 0
    from math import comb
    s = Fraction(0)
    for j in range(k):
        s += comb(k + 1, j) * bernoulli_number(j)
    return -s / (k + 1)


def _sigma(k: int, n: int) -> int:
    out = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            out += d ** k
            if d != n // d:
                out += (n // d) ** k
        d += 1
    return out


def eisenstein(k: int, prec: int) -> QSeries:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, exact."""
    if k < 4 or k % 2 != 0:
        raise InvalidInputError("eisenstein needs even k >= 4")
    if prec < 1:
        raise InvalidInputError("precision must be >= 1")
    c = Fraction(-2 * k) / bernoulli_number(k)
    coeffs = {0: Fraction(1)}
    for n in range(1, prec):
        coeffs[n] = c * _sigma(k - 1, n)
    return QSeries(coeffs, prec)


def delta_form(prec: int) -> QSeries:
    """Delta = q prod (1-q^n)^24, via eta^24 with the pentagonal number theorem."""
    if prec < 1:
        raise InvalidInputError("precision must be >= 1")
    # eta-quotient without the q^{1/24}: prod (1 - q^n) via pentagonal numbers
    euler = {0: Fraction(1)}
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 >= prec and g2 >= prec:
            break
        s = Fraction(-1) ** j
        if g1 < prec:
            euler[g1] = euler.get(g1, Fraction(0)) + s
        if g2 < prec:
            euler[g2] = euler.get(g2, Fraction(0)) + s
        j += 1
    e = QSeries(euler, prec)
    out = (e ** 24) * QSeries({1: 1}, prec + 1)
    return QSeries(out.coeffs, prec + 1)


def _dim_cusp(weight: int) -> int:
    """dim S_weight for level one, even weight >= 0."""
    if weight < 12 or weight % 2 == 1:
        return 0
    k = weight
    if k % 12 == 2:
        return k // 12 - 1
    return k // 12


def cusp_basis(weight: int, prec: int):
    """Echelonized basis of S_weight from monomials E4^a E6^b Delta^c."""
    if weight < 4 or weight % 2 != 0:
        raise InvalidInputError("cusp_basis needs even weight >= 4")
    dim = _dim_cusp(weight)
    if dim == 0:
        return []
    prec = max(prec, dim + 2)
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    dl = delta_form(prec)
    monomials = []
    for c in range(1, weight // 12 + 1):
        rem = weight - 12 * c
        for a in range(rem // 4 + 1):
            if (rem - 4 * a) % 6 == 0:
                b = (rem - 4 * a) // 6
                monomials.append((dl ** c) * (e4 ** a) * (e6 ** b))
    # row-reduce to echelon form with leading exponents 1..dim
    basis = []
    for lead in range(1, dim + 1):
        pivot = None
        for f in monomials:
            if all(f[e] == 0 for e in range(1, lead)) and f[lead] != 0:
                pivot = f.scale(Fraction(1) / f[lead])
                break
        if pivot is None:
            raise RuntimeError(f"no echelon pivot at q^{lead} in S_{weight}")
        monomials = [
            f - pivot.scale(f[lead]) for f in monomials if f is not pivot
        ]
        basis.append(pivot)
    # clear above-diagonal entries
    for i in range(dim):
        for j in range(i + 1, dim):
            basis[i] = basis[i] - basis[j].scale(basis[i][j + 1])
    return basis


# ---------------------------------------------------------------------------
# principal parts
# ---------------------------------------------------------------------------

def parse_principal_part(text: str):
    """Parse "m=c,m=c" with rational c ("p/q") into {m: Fraction}."""
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InvalidInputError(f"bad principal part term {chunk!r}")
        ms, cs = chunk.split("=", 1)
        try:
            m = int(ms)
            c = Fraction(cs)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad principal part term {chunk!r}: {exc}") from None
        if m < 1:
            raise InvalidInputError("principal part indices must be >= 1")
        if c != 0:
            out[m] = out.get(m, Fraction(0)) + c
    if not out or all(c == 0 for c in out.values()):
        raise InvalidInputError("principal part must have a nonzero entry")
    return out


def check_principal_part(k: int, pp):
    """Residue-theorem obstruction for f = sum c(-m) q^{-m} + O(1) in M^!_{2-2k}.

    Returns None when valid; otherwise the vector of pairings
    sum_m pp[m]*a_g(m) against the echelon basis g of S_{2k}.
    """
    if k < 2:
        raise InvalidInputError("weight parameter k must be >= 2")
    if not pp:
        raise InvalidInputError("empty principal part")
    m0 = max(pp)
    basis = cusp_basis(2 * k, 2 * m0 + 10)
    if not basis:
        return None
    obstruction = []
    for g in basis:
        obstruction.append(sum(Fraction(c) * g[m] for m, c in pp.items()))
    if any(obstruction):
        return obstruction
    return None


def check_cycle_input(k: int, pp, d1: int, d2: int) -> None:
    """Validate the input of a CM-cycle computation; the one check for both engines.

    Raises InvalidInputError unless k is even >= 2, d1 and d2 are coprime
    negative fundamental discriminants with Delta = d1*d2 inside the
    supported range, and the principal part pp has indices up to MAX_PP_INDEX
    and is unobstructed.  Both ranges are checked before anything is
    factored or expanded, so oversized input fails at once.
    """
    if k < 2 or k % 2 != 0:
        raise InvalidInputError("k must be an even integer >= 2")
    if d1 >= 0 or d2 >= 0:
        raise InvalidInputError(f"d1 = {d1}, d2 = {d2}: both must be negative")
    if d1 * d2 > QuadField.MAX_DELTA:
        raise InvalidInputError(f"Delta = {d1 * d2} beyond supported range 1e6")
    for d in (d1, d2):
        if not is_fundamental_discriminant(d):
            raise InvalidInputError(f"{d} is not a negative fundamental discriminant")
    if gcd(d1, d2) != 1:
        raise InvalidInputError("d1 and d2 must be coprime")
    if max(pp, default=0) > MAX_PP_INDEX:
        raise InvalidInputError(
            f"principal part index {max(pp)} beyond supported range {MAX_PP_INDEX}"
        )
    obstruction = check_principal_part(k, pp)
    if obstruction is not None:
        raise InvalidInputError(f"principal part obstructed by S_{2 * k}: {obstruction}")
