"""Exact arithmetic in a real quadratic field F = Q(sqrt(Delta)).

Elements are stored as exact rational pairs (x, y) meaning x + y*sqrt(Delta),
with sqrt(Delta) > 0 under the fixed real embedding.  Fractional ideals are
kept in scaled Hermite normal form and multiplied on its integer rows.
Class-group work (narrow equivalence, principality, generators) goes through
the reduction theory of indefinite binary quadratic forms of discriminant
Delta, so everything stays in exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt


class InvalidInputError(ValueError):
    """Raised when a precondition on user-facing input fails."""


# ---------------------------------------------------------------------------
# elementary number theory helpers
# ---------------------------------------------------------------------------

_TRIAL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, isqrt(p) + 1))]
_MR_BASES = _TRIAL_PRIMES[:12]  # deterministic Miller-Rabin below 3.3e24


def isprime(n: int) -> bool:
    """Primality by Miller-Rabin on the first twelve prime bases.

    Exact for n < 3.3e24, far beyond the integers this package factors.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def nextprime(n: int) -> int:
    """Smallest prime > n."""
    for m in count(max(n + 1, 2)):
        if isprime(m):
            return m


def _rho_divisor(n: int) -> int:
    """A nontrivial divisor of the odd composite n (Pollard's rho, Floyd cycle)."""
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d


def factorint(n: int) -> dict:
    """{prime: exponent} for n >= 1: trial division below 1000, then Pollard rho."""
    out = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        # no prime factor below 1000 is left, so m < 1000^2 is prime
        if m < 10 ** 6 or isprime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def sqrt_mod(a: int, p: int):
    """Smallest r >= 0 with r^2 = a mod the prime p (Tonelli-Shanks), or None."""
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        r, c, t, s = r * b % p, b * b % p, t * b * b % p, i
    return min(r, p - r)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), full extension to all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor of n > 0."""
    out = 1
    for p, e in factorint(n).items():
        if e % 2 == 1:
            out *= p
    return out


def is_fundamental_discriminant(D: int) -> bool:
    """True if D is a fundamental discriminant of a quadratic field (D != 1)."""
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return squarefree_part(abs(D)) == abs(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and squarefree_part(abs(m)) == abs(m)
    return False


def _xgcd(a: int, b: int):
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class FieldElem:
    """x + y*sqrt(Delta) with exact rational x, y."""

    __slots__ = ("D", "x", "y")

    def __init__(self, D: int, x, y):
        self.D = D
        self.x = Fraction(x)
        self.y = Fraction(y)

    @staticmethod
    def from_uv(D: int, u, v) -> "FieldElem":
        """Element u + v*omega with omega = (Delta + sqrt(Delta))/2."""
        u = Fraction(u)
        v = Fraction(v)
        return FieldElem(D, u + v * Fraction(D, 2), v / 2)

    def uv(self):
        """Coordinates (u, v) w.r.t. the integral basis (1, omega)."""
        v = 2 * self.y
        u = self.x - self.y * self.D
        return u, v

    def is_integral(self) -> bool:
        u, v = self.uv()
        return u.denominator == 1 and v.denominator == 1

    def _coerce(self, o):
        if isinstance(o, FieldElem):
            if o.D != self.D:
                raise ValueError("mixed discriminants")
            return o
        return FieldElem(self.D, o, 0)

    def __add__(self, o):
        o = self._coerce(o)
        return FieldElem(self.D, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._coerce(o)
        return FieldElem(self.D, self.x - o.x, self.y - o.y)

    def __rsub__(self, o):
        return self._coerce(o) - self

    def __neg__(self):
        return FieldElem(self.D, -self.x, -self.y)

    def __abs__(self):
        """The one of +-self that is positive under the fixed embedding."""
        return -self if self.sign() < 0 else self

    def __mul__(self, o):
        o = self._coerce(o)
        return FieldElem(
            self.D,
            self.x * o.x + self.y * o.y * self.D,
            self.x * o.y + self.y * o.x,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero element")
        return FieldElem(self.D, self.x / n, -self.y / n)

    def __truediv__(self, o):
        return self * self._coerce(o).inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = FieldElem(self.D, 1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "FieldElem":
        return FieldElem(self.D, self.x, -self.y)

    def norm(self) -> Fraction:
        return self.x * self.x - self.y * self.y * self.D

    def trace(self) -> Fraction:
        return 2 * self.x

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def sign(self) -> int:
        """Exact sign under the embedding sqrt(Delta) > 0."""
        x, y = self.x, self.y
        if y == 0:
            return (x > 0) - (x < 0)
        if x == 0:
            return (y > 0) - (y < 0)
        if x > 0 and y > 0:
            return 1
        if x < 0 and y < 0:
            return -1
        big_x = x * x > y * y * self.D
        if x > 0:
            return 1 if big_x else -1
        return -1 if big_x else 1

    def is_totally_positive(self) -> bool:
        return self.sign() > 0 and self.conj().sign() > 0

    def __gt__(self, o):
        return (self - self._coerce(o)).sign() > 0

    def __lt__(self, o):
        return (self - self._coerce(o)).sign() < 0

    def __ge__(self, o):
        return (self - self._coerce(o)).sign() >= 0

    def __le__(self, o):
        return (self - self._coerce(o)).sign() <= 0

    def __eq__(self, o):
        if not isinstance(o, FieldElem):
            if not isinstance(o, (int, Fraction)):
                return NotImplemented
            o = FieldElem(self.D, o, 0)
        return self.D == o.D and self.x == o.x and self.y == o.y

    def __hash__(self):
        return hash((self.D, self.x, self.y))

    def __float__(self):
        import math
        return float(self.x) + float(self.y) * math.sqrt(self.D)

    def __repr__(self):
        sgn = "+" if self.y >= 0 else "-"
        return f"({self.x} {sgn} {abs(self.y)}*sqrt{self.D})"


def integral_content(e: FieldElem) -> int:
    """Largest t in N with e/t integral (e itself integral, nonzero)."""
    u, v = e.uv()
    if u.denominator != 1 or v.denominator != 1:
        raise ValueError(f"integral_content needs an integral element, got {e}")
    return gcd(int(u), int(v))


# ---------------------------------------------------------------------------
# fractional ideals in scaled HNF
# ---------------------------------------------------------------------------

class FracIdeal:
    """Fractional O_F-ideal  s * ( Z*a + Z*(b + omega) ),  0 <= b < a.

    The general HNF shape s*[a, b + c*omega] always allows the content c to be
    pulled into the scale for an ideal, so c = 1 is the stored normal form.
    Products, conjugates and integrality work on the integers a, b and the
    rational scale s alone.
    """

    __slots__ = ("D", "s", "a", "b")

    def __init__(self, D: int, s, a: int, b: int):
        self.D = D
        self.s = Fraction(s)
        self.a = a
        self.b = b % a

    @staticmethod
    def from_hnf_rows(D: int, rows, scale=Fraction(1)) -> "FracIdeal":
        """HNF of the Z-module spanned by integer (u, v) rows, then scaled.

        Raises ValueError unless the module is an ideal: with c = 1 it is
        omega-stable iff a | Nm(b + omega) = b^2 + Delta*b + psi.
        """
        rows = [(u, v) for (u, v) in rows if u or v]
        if not rows:
            raise ValueError("zero module")
        cur = None
        rest = []
        for (u, v) in rows:
            if v == 0:
                rest.append(u)
                continue
            if cur is None:
                cur = (u, v)
                continue
            u0, v0 = cur
            g, p, q = _xgcd(v0, v)
            rest.append((v // g) * u0 - (v0 // g) * u)
            cur = (p * u0 + q * u, g)
        if cur is None:
            raise ValueError("module has rank < 2 (no omega component)")
        b0, c0 = cur
        if c0 < 0:
            b0, c0 = -b0, -c0
        a0 = 0
        for u in rest:
            a0 = gcd(a0, u)
        if a0 == 0:
            raise ValueError("module has rank < 2 (no rational component)")
        b0 %= a0
        if a0 % c0 != 0 or b0 % c0 != 0:
            raise ValueError("module is not an ideal (c does not divide a, b)")
        a, b = a0 // c0, (b0 // c0) % (a0 // c0)
        if (b * b + b * D + (D * D - D) // 4) % a:
            raise ValueError("module is not omega-stable, not an ideal")
        return FracIdeal(D, scale * c0, a, b)

    @staticmethod
    def from_generators(D: int, gens) -> "FracIdeal":
        """Ideal generated over O_F by the given field elements."""
        omega = FieldElem.from_uv(D, 0, 1)
        pairs = []
        den = 1
        for g in gens:
            for e in (g, g * omega):
                u, v = e.uv()
                pairs.append((u, v))
                d = u.denominator * v.denominator // gcd(u.denominator, v.denominator)
                den = den * d // gcd(den, d)
        rows = [(int(u * den), int(v * den)) for (u, v) in pairs]
        return FracIdeal.from_hnf_rows(D, rows, Fraction(1, den))

    def basis(self):
        """Z-basis as field elements: (s*a, s*(b + omega))."""
        s = FieldElem(self.D, self.s, 0)
        return (
            FieldElem(self.D, self.s * self.a, 0),
            FieldElem.from_uv(self.D, self.b, 1) * s,
        )

    def norm(self) -> Fraction:
        return self.s * self.s * self.a

    def contains(self, e: FieldElem) -> bool:
        u, v = (e / FieldElem(self.D, self.s, 0)).uv()
        if u.denominator != 1 or v.denominator != 1:
            return False
        return (int(u) - int(v) * self.b) % self.a == 0

    def is_integral(self) -> bool:
        return self.s.denominator == 1

    def __mul__(self, o: "FracIdeal") -> "FracIdeal":
        """HNF of the four products of the Z-bases, omega^2 = Delta*omega - psi."""
        if not isinstance(o, FracIdeal):
            return NotImplemented
        if self.D != o.D:
            raise ValueError("mixed discriminants")
        D, a1, b1, a2, b2 = self.D, self.a, self.b, o.a, o.b
        rows = [(a1 * a2, 0), (a1 * b2, a1), (a2 * b1, a2),
                (b1 * b2 - (D * D - D) // 4, b1 + b2 + D)]
        return FracIdeal.from_hnf_rows(D, rows, self.s * o.s)

    def __pow__(self, n: int):
        if n == 0:
            return FracIdeal(self.D, 1, 1, 0)
        if n < 0:
            return self.inverse() ** (-n)
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "FracIdeal":
        # omega' = Delta - omega, so (b + omega)' = -((-b - Delta) + omega)
        return FracIdeal(self.D, self.s, self.a, -self.b - self.D)

    def inverse(self) -> "FracIdeal":
        c = self.conj()
        n = self.norm()
        return FracIdeal(c.D, c.s / n, c.a, c.b)

    def __eq__(self, o):
        return (
            isinstance(o, FracIdeal)
            and (self.D, self.s, self.a, self.b) == (o.D, o.s, o.a, o.b)
        )

    def __hash__(self):
        return hash((self.D, self.s, self.a, self.b))

    def __repr__(self):
        return f"Ideal({self.s}*[{self.a}, {self.b}+w], D={self.D})"

    def valuation(self, prime: "FracIdeal") -> int:
        """ord_prime(self), by repeated exact division."""
        v = 0
        cur = self
        inv = prime.inverse()
        while True:
            nxt = cur * inv
            if not nxt.is_integral():
                return v
            v += 1
            cur = nxt
            if v > 200:
                raise RuntimeError("runaway valuation")

    def form(self):
        """Positively oriented integral form (A, B, C) of discriminant Delta.

        Oriented basis (b + omega, a):  A = Nm(b + omega)/a, B = 2b + Delta, C = a.
        """
        D, a, b = self.D, self.a, self.b
        psi = (D * D - D) // 4
        nm = b * b + b * D + psi
        if nm % a != 0:
            raise ValueError("not an ideal HNF")
        return (nm // a, 2 * b + D, a)


def ideal_divisors(F: "QuadField", I: FracIdeal):
    """All integral ideals containing the integral ideal I (its divisors)."""
    fact = F.factor_ideal(I)
    out = [F.O_F()]
    for pr, e in fact:
        powers = [pr ** i for i in range(e + 1)]
        out = [J * q for J in out for q in powers]
    return out


# ---------------------------------------------------------------------------
# indefinite form reduction
# ---------------------------------------------------------------------------

def _is_reduced(f, D: int) -> bool:
    """Reduced indefinite form: |sqrt(D) - 2|A|| < B < sqrt(D), tested exactly."""
    A, B, C = f
    if B <= 0 or B * B >= D:
        return False
    t = 2 * abs(A)
    if t - B >= 0 and (t - B) * (t - B) >= D:
        return False
    if (B + t) * (B + t) <= D:
        return False
    return True


def _rho_r(B: int, C: int, D: int, sq: int) -> int:
    """The unique r = -B mod 2|C| in the reduction window."""
    twoC = 2 * abs(C)
    r = (-B) % twoC
    if abs(C) > sq:
        if r > abs(C):
            r -= twoC
    else:
        r += ((sq - r) // twoC) * twoC
    return r


def _rho(f, D: int, sq: int):
    A, B, C = f
    r = _rho_r(B, C, D, sq)
    return (C, r, (r * r - D) // (4 * C))


def _rho_with_transform(f, U, D: int, sq: int):
    A, B, C = f
    r = _rho_r(B, C, D, sq)
    delta = (r + B) // (2 * C)
    u11, u12, u21, u22 = U
    # basis change (x, y) -> (-y, x + delta*y)
    U = (u12, -u11 + delta * u12, u22, -u21 + delta * u22)
    return (C, r, (r * r - D) // (4 * C)), U


def reduce_form(f, D: int):
    sq = isqrt(D)
    steps = 0
    while not _is_reduced(f, D):
        f = _rho(f, D, sq)
        steps += 1
        if steps > 100000:
            raise RuntimeError("form reduction did not terminate")
    return f


@lru_cache(maxsize=None)
def _cycle_of_reduced(f, D: int):
    """Full rho-cycle through a reduced form, rotated to start at its minimum."""
    sq = isqrt(D)
    cyc = [f]
    g = _rho(f, D, sq)
    while g != f:
        cyc.append(g)
        g = _rho(g, D, sq)
    m = min(range(len(cyc)), key=lambda i: cyc[i])
    return tuple(cyc[m:] + cyc[:m])


def cycle_key(f, D: int):
    """Canonical key of the proper equivalence class of an indefinite form."""
    return _cycle_of_reduced(reduce_form(f, D), D)[0]


# ---------------------------------------------------------------------------
# the field object
# ---------------------------------------------------------------------------

class QuadField:
    """Real quadratic field of fundamental discriminant Delta, Delta <= 1e6."""

    MAX_DELTA = 10 ** 6

    def __init__(self, Delta: int):
        if not isinstance(Delta, int) or Delta <= 1:
            raise InvalidInputError(f"Delta = {Delta} must be an integer > 1")
        if Delta > self.MAX_DELTA:
            raise InvalidInputError(f"Delta = {Delta} beyond supported range 1e6")
        if not is_fundamental_discriminant(Delta):
            raise InvalidInputError(f"Delta = {Delta} is not fundamental")
        self.D = Delta
        self.Delta0 = Delta if Delta % 2 == 1 else Delta // 4
        self.sqrt_isq = isqrt(Delta)
        self.psi = (Delta * Delta - Delta) // 4  # Nm(omega)
        self._eps = None
        self._ncg = None

    def __repr__(self):
        return f"QuadField({self.D})"

    # element constructors --------------------------------------------------
    def elem(self, x, y=0) -> FieldElem:
        return FieldElem(self.D, x, y)

    def from_uv(self, u, v) -> FieldElem:
        return FieldElem.from_uv(self.D, u, v)

    @property
    def omega(self) -> FieldElem:
        return self.from_uv(0, 1)

    @property
    def sqrtD(self) -> FieldElem:
        return self.elem(0, 1)

    @property
    def one(self) -> FieldElem:
        return self.elem(1, 0)

    def O_F(self) -> FracIdeal:
        return FracIdeal(self.D, 1, 1, 0)

    def different(self) -> FracIdeal:
        """The different ideal (sqrt(Delta))."""
        return FracIdeal.from_generators(self.D, [self.sqrtD])

    # fundamental unit --------------------------------------------------------
    def fundamental_unit(self) -> FieldElem:
        """eps_F > 1 generating O_F^x/{+-1}, from the CF expansion of omega."""
        if self._eps is not None:
            return self._eps
        D = self.D
        P, Q = D, 2  # omega = (D + sqrt(D))/2
        sq = self.sqrt_isq
        seen = {}
        mats = []
        M = (1, 0, 0, 1)
        idx = 0
        while True:
            key = (P, Q)
            if key in seen:
                Mj = mats[seen[key]]
                break
            seen[key] = idx
            mats.append(M)
            if Q > 0:
                a = (P + sq) // Q
            else:
                a = -((P + sq) // (-Q)) - 1
            p0, p1, q0, q1 = M
            M = (p0 * a + p1, p0, q0 * a + q1, q0)
            P = a * Q - P
            Q = (D - P * P) // Q
            idx += 1
            if idx > 10 ** 6:
                raise RuntimeError("CF period not found")
        a1, b1, c1, d1 = Mj
        det = a1 * d1 - b1 * c1  # +-1
        ia, ib, ic, id_ = d1 * det, -b1 * det, -c1 * det, a1 * det
        a2, b2, c2, d2 = M
        t21 = ic * a2 + id_ * c2
        t22 = ic * b2 + id_ * d2
        Pj, Qj = key
        eps = FieldElem(D, Fraction(t21 * Pj + t22 * Qj, Qj), Fraction(t21, Qj))
        if abs(eps.norm()) != 1:
            raise RuntimeError("CF unit has |norm| != 1")
        if eps.sign() < 0:
            eps = -eps
        if eps < self.one:
            eps = eps.inverse()
            if eps.sign() < 0:
                eps = -eps
        if not (eps.is_integral() and eps > self.one):
            raise RuntimeError("CF unit sanity check failed")
        self._eps = eps
        return eps

    def eps_plus(self) -> FieldElem:
        """Generator > 1 of the totally positive units."""
        eps = self.fundamental_unit()
        return eps if eps.norm() == 1 else eps * eps

    def eps_Delta(self) -> FieldElem:
        """Generator of the discriminant kernel: (eps_F^+)^2."""
        ep = self.eps_plus()
        return ep * ep

    def unit_norm(self) -> int:
        return int(self.fundamental_unit().norm())

    # prime ideals --------------------------------------------------------------
    def splitting(self, p: int) -> str:
        """'split' / 'inert' / 'ramified' for a rational prime p."""
        if not isprime(p):
            raise InvalidInputError(f"{p} is not prime")
        return {1: "split", -1: "inert", 0: "ramified"}[kronecker(self.D, p)]

    def primes_above(self, p: int):
        """Prime ideal(s) above p; a split pair is ordered by the HNF b value."""
        D = self.D
        typ = self.splitting(p)
        if typ == "inert":
            return (FracIdeal(D, p, 1, 0),)
        if typ == "ramified":
            roots = [(D // 4) % 2 if p == 2 else (-D * ((p + 1) // 2)) % p]
        elif p == 2:
            roots = [0, 1]
        else:
            r = sqrt_mod(D, p)
            inv2 = (p + 1) // 2
            roots = sorted({(inv2 * (-D + r)) % p, (inv2 * (-D - r)) % p})
        # each HNF b must be a root of Nm(b + omega) = b^2 + D b + psi mod p
        if len(roots) != (2 if typ == "split" else 1) or any(
                (b * b + b * D + self.psi) % p for b in roots):
            raise RuntimeError(
                f"HNF roots {roots} above p = {p} do not solve b^2 + D b + psi = 0 mod p"
            )
        return tuple(FracIdeal(D, 1, p, b) for b in roots)

    def prime_above(self, p: int) -> FracIdeal:
        return self.primes_above(p)[0]

    def factor_ideal(self, I: FracIdeal):
        """Factor an integral ideal: list of (prime FracIdeal, exponent)."""
        if not I.is_integral():
            raise InvalidInputError("factor_ideal needs an integral ideal")
        n = I.norm()
        if n.denominator != 1:
            raise RuntimeError(f"integral ideal {I} has non-integral norm {n}")
        out = []
        for p in sorted(factorint(int(n))):
            for pr in self.primes_above(p):
                e = I.valuation(pr)
                if e:
                    out.append((pr, e))
        return out

    def ideals_of_norm(self, n: int):
        """All integral ideals of norm n (possibly none)."""
        if n <= 0:
            return []
        out = [self.O_F()]
        for p, e in factorint(n).items():
            typ = self.splitting(p)
            if typ == "inert":
                if e % 2 == 1:
                    return []
                choices = [FracIdeal(self.D, p ** (e // 2), 1, 0)]
            elif typ == "ramified":
                choices = [self.prime_above(p) ** e]
            else:
                P, Pc = self.primes_above(p)
                choices = [(P ** i) * (Pc ** (e - i)) for i in range(e + 1)]
            out = [I * c for I in out for c in choices]
        return out

    # narrow class group -----------------------------------------------------
    def narrow_class_group(self) -> "NarrowClassGroup":
        if self._ncg is None:
            self._ncg = NarrowClassGroup(self)
        return self._ncg

    # principality and generators ----------------------------------------------
    def generator_of(self, I: FracIdeal):
        """A generator of I if I is principal (wide sense), else None."""
        D = self.D
        sq = self.sqrt_isq
        f = I.form()
        e1 = self.from_uv(I.b, 1)
        e2 = self.elem(I.a, 0)
        s = self.elem(I.s, 0)
        U = (1, 0, 0, 1)
        steps = 0
        first_reduced = None
        while True:
            A, _, _ = f
            if A in (1, -1):
                u11, _, u21, _ = U
                g = (e1 * u11 + e2 * u21) * s
                if abs(g.norm()) != I.norm() or not I.contains(g):
                    raise RuntimeError(f"reduction walk produced {g}, not a generator of {I}")
                return g
            f, U = _rho_with_transform(f, U, D, sq)
            if _is_reduced(f, D):
                if first_reduced is None:
                    first_reduced = f
                elif f == first_reduced:
                    return None
            steps += 1
            if steps > 100000:
                raise RuntimeError("generator walk did not terminate")

    def unit_orbit_rep(self, mu: FieldElem, unit: FieldElem, lo: FieldElem) -> FieldElem:
        """mu * unit^j for the j that puts |mu/mu'| in the window [lo, lo*s).

        Multiplying mu by unit multiplies |mu/mu'| by s = |unit/unit'|, so the
        window holds exactly one member of the orbit mu * unit^Z and the
        result is the same for all of them.
        """
        inv = unit.inverse()
        step = abs(unit / unit.conj())
        hi = lo * step
        ratio = abs(mu / mu.conj())
        for _ in range(10 ** 5):
            if ratio < lo:
                mu, ratio = mu * unit, ratio * step
            elif ratio >= hi:
                mu, ratio = mu * inv, ratio / step
            else:
                return mu
        raise RuntimeError(f"unit orbit of {mu} does not meet the window [{lo}, {hi})")

    def positive_generators_mod_epsD(self, I: FracIdeal):
        """All positive generators of I modulo <eps_Delta>.

        Two candidates when Nm(eps_F) = +1, four otherwise (eps_Delta = eps_F^e).
        Empty when I is not principal.
        """
        g = self.generator_of(I)
        if g is None:
            return []
        eps = self.fundamental_unit()
        e = 2 if eps.norm() == 1 else 4
        out = []
        cur = g
        for _ in range(e):
            out.append(cur if cur.sign() > 0 else -cur)
            cur = cur * eps
        return out


@lru_cache(maxsize=None)
def field(Delta: int) -> QuadField:
    return QuadField(Delta)


# ---------------------------------------------------------------------------
# narrow class group
# ---------------------------------------------------------------------------

class NarrowClassGroup:
    """Cl^+(F) with ideal representatives coprime to the different.

    Classes are keyed by the canonical reduced cycle of the attached indefinite
    form; representatives are the unit ideal plus split prime ideals of smallest
    norm hitting the remaining cycles (Chebotarev guarantees they exist).
    """

    PRIME_SEARCH_BOUND = 10 ** 4

    def __init__(self, F: QuadField):
        self.F = F
        D = F.D
        cycles = self._all_cycles(D)
        self.h_plus = len(cycles)
        id_key = cycle_key(F.O_F().form(), D)
        order = [id_key] + sorted(k for k in cycles if k != id_key)
        self.key_index = {k: i for i, k in enumerate(order)}
        reps = [None] * self.h_plus
        reps[0] = F.O_F()
        found = 1
        p = 1
        while found < self.h_plus:
            p = nextprime(p)
            if p > self.PRIME_SEARCH_BOUND:
                raise RuntimeError(
                    f"no prime representative below {self.PRIME_SEARCH_BOUND} "
                    f"for some narrow class, Delta={D}"
                )
            if kronecker(D, p) != 1:
                continue
            for pr in F.primes_above(p):
                i = self.key_index[cycle_key(pr.form(), D)]
                if reps[i] is None:
                    reps[i] = pr
                    found += 1
        self.reps = reps
        self._table = None
        self._inv = None

    @staticmethod
    def _all_cycles(D: int):
        """Canonical keys of all cycles of reduced forms of discriminant D."""
        sq = isqrt(D)
        seen = set()
        keys = set()
        for B in range(1, sq + 1):
            if (B - D) % 2 != 0:
                continue
            t4 = D - B * B
            if t4 <= 0 or t4 % 4 != 0:
                continue
            t = t4 // 4
            for A in range(1, isqrt(t) + 1):
                if t % A != 0:
                    continue
                for Aa in {A, t // A}:
                    for f in ((Aa, B, -(t // Aa)), (-Aa, B, t // Aa)):
                        if not _is_reduced(f, D) or f in seen:
                            continue
                        cyc = _cycle_of_reduced(f, D)
                        seen.update(cyc)
                        keys.add(cyc[0])
        return keys

    def resolve(self, I: FracIdeal) -> int:
        return self.key_index[cycle_key(I.form(), self.F.D)]

    def is_narrow_principal(self, I: FracIdeal) -> bool:
        return self.resolve(I) == 0

    def multiplication_table(self):
        if self._table is None:
            n = self.h_plus
            self._table = [
                [self.resolve(self.reps[i] * self.reps[j]) for j in range(n)]
                for i in range(n)
            ]
        return self._table

    def inverse(self, i: int) -> int:
        if self._inv is None:
            self._inv = [row.index(0) for row in self.multiplication_table()]
        return self._inv[i]

    def class_number_wide(self) -> int:
        """h_F = h^+ / [Cl^+ : Cl]; the index is 2 iff Nm(eps_F) = +1."""
        return self.h_plus // (2 if self.F.unit_norm() == 1 else 1)
