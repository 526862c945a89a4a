"""Exact arithmetic in a real quadratic field F = Q(sqrt(Delta)).

An element x + y*sqrt(Delta) is stored as three integers (a, b, n) meaning
(a + b*sqrt(Delta))/n, with n > 0 and gcd(a, b, n) = 1, and sqrt(Delta) > 0
under the fixed real embedding; each sum or product costs one gcd.
Fractional ideals are kept in Hermite normal form with a scale num/den on two
integers and multiplied on its integer rows; a valuation is read off the HNF.
Class keys, generators of principal ideals and the fundamental unit all come
from one walk, rho_walk, along the rho-reduction cycle of the indefinite
binary quadratic form of discriminant Delta attached to an ideal
(Buchmann-Vollmer, Binary Quadratic Forms, ch. 6), so everything stays in
exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, count, islice
from math import gcd, isqrt, sqrt
from numbers import Rational


class InvalidInputError(ValueError):
    """Raised when a precondition on user-facing input fails."""


# ---------------------------------------------------------------------------
# elementary number theory helpers
# ---------------------------------------------------------------------------

def primes_upto(n: int, lo: int = 0):
    """The primes lo < p <= n in increasing order, read lazily off a sieve of
    Eratosthenes on a bytearray of the odd numbers in (lo, n]: flags[i] stands
    for first + 2i.  A table grown in steps sieves each range once."""
    first = max(3, (lo + 1) | 1)
    two = (2,) if lo < 2 <= n else ()
    if n < first:
        return iter(two)
    flags = bytearray([1]) * ((n - first) // 2 + 1)
    for q in islice(primes_upto(isqrt(n)), 1, None):
        # the odd multiples of q from max(q^2, first) on
        start = max(q * q, -(-first // q) * q)
        start += q * (start % 2 == 0)
        i = (start - first) // 2
        flags[i::q] = bytes(len(range(i, len(flags), q)))
    return chain(two, compress(range(first, n + 1, 2), flags))


_TRIAL_PRIMES = list(primes_upto(1000))
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


def sqrt_mod(a: int, p: int, nonresidue: int | None = None):
    """Smallest r >= 0 with r^2 = a mod the prime p, or None.

    One power for p = 3 mod 4 and Atkin's formula for p = 5 mod 8, each
    checked by squaring; Euler's test, then Tonelli-Shanks, for p = 1 mod 8,
    from the quadratic non-residue mod p given, or else the least one.
    """
    a %= p
    if p == 2 or a == 0:
        return a
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    elif p % 8 == 5:
        # b = (2a)^((p-5)/8): i = 2 a b^2 squares to -1 when a is a square
        b = pow(2 * a, (p - 5) // 8, p)
        r = a * b * (2 * a * b * b - 1) % p
    else:
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = nonresidue or 2
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
    if r * r % p != a:
        return None
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


def is_fundamental_discriminant(D: int) -> bool:
    """True if D is a fundamental discriminant of a quadratic field (D != 1):
    D = 1 mod 4 squarefree, or D = 4m with m = 2, 3 mod 4 squarefree."""
    m = D if D % 4 == 1 else D // 4 if D % 16 in (8, 12) else 0
    return m not in (0, 1) and all(e == 1 for e in factorint(abs(m)).values())


def _ord(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


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
    """(a + b*sqrt(Delta))/n on three integers, n > 0 and gcd(a, b, n) = 1.

    The form is canonical, so equality is a comparison of (Delta, a, b, n).
    The constructor takes the rational coordinates x + y*sqrt(Delta) (int or
    Fraction); floats are refused, since they carry no exact value.
    """

    __slots__ = ("D", "a", "b", "n")

    def __init__(self, D: int, x, y):
        self.D = D
        self.a, self.b, self.n = _common_denominator(x, y)

    @staticmethod
    def from_uv(D: int, u, v) -> "FieldElem":
        """Element u + v*omega with omega = (Delta + sqrt(Delta))/2."""
        U, V, n = _common_denominator(u, v)
        return _canon(D, 2 * U + V * D, V, 2 * n)

    @property
    def x(self) -> Fraction:
        return Fraction(self.a, self.n)

    @property
    def y(self) -> Fraction:
        return Fraction(self.b, self.n)

    def uv(self):
        """Coordinates (u, v) w.r.t. the integral basis (1, omega)."""
        return Fraction(self.a - self.b * self.D, self.n), Fraction(2 * self.b, self.n)

    def integral_uv(self):
        """(u, v) as ints with self = u + v*omega, or None if self is not integral."""
        n = self.n
        u, v = self.a - self.b * self.D, 2 * self.b
        if u % n or v % n:
            return None
        return u // n, v // n

    def is_integral(self) -> bool:
        return self.integral_uv() is not None

    def _coerce(self, o):
        if type(o) is FieldElem:
            if o.D != self.D:
                raise ValueError("mixed discriminants")
            return o
        a, n = _rational(o)
        return _elem(self.D, a, 0, n)

    def __add__(self, o):
        o = self._coerce(o)
        n1, n2 = self.n, o.n
        if n1 == n2:
            return _canon(self.D, self.a + o.a, self.b + o.b, n1)
        return _canon(self.D, self.a * n2 + o.a * n1,
                      self.b * n2 + o.b * n1, n1 * n2)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._coerce(o)
        n1, n2 = self.n, o.n
        if n1 == n2:
            return _canon(self.D, self.a - o.a, self.b - o.b, n1)
        return _canon(self.D, self.a * n2 - o.a * n1,
                      self.b * n2 - o.b * n1, n1 * n2)

    def __rsub__(self, o):
        return self._coerce(o) - self

    def __neg__(self):
        return _elem(self.D, -self.a, -self.b, self.n)

    def __abs__(self):
        """The one of +-self that is positive under the fixed embedding."""
        return -self if self.sign() < 0 else self

    def __mul__(self, o):
        o = self._coerce(o)
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        return _canon(self.D, a1 * a2 + b1 * b2 * self.D,
                      a1 * b2 + b1 * a2, self.n * o.n)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        # n/(a + b sqrt D) = n (a - b sqrt D) / (a^2 - b^2 D)
        a, b, n = self.a, self.b, self.n
        N = a * a - b * b * self.D
        if N == 0:
            raise ZeroDivisionError("inverse of zero element")
        if N < 0:
            return _canon(self.D, -n * a, n * b, -N)
        return _canon(self.D, n * a, -n * b, N)

    def __truediv__(self, o):
        return self * self._coerce(o).inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = _elem(self.D, 1, 0, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "FieldElem":
        return _elem(self.D, self.a, -self.b, self.n)

    def norm(self) -> Fraction:
        return Fraction(self.a * self.a - self.b * self.b * self.D, self.n * self.n)

    def trace(self) -> Fraction:
        return Fraction(2 * self.a, self.n)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign under the embedding sqrt(Delta) > 0."""
        return _sign(self.a, self.b, self.D)

    def is_totally_positive(self) -> bool:
        return _sign(self.a, self.b, self.D) > 0 and _sign(self.a, -self.b, self.D) > 0

    def _cmp(self, o) -> int:
        """sign(self - o), read off the integers of the two elements."""
        o = self._coerce(o)
        n1, n2 = self.n, o.n
        return _sign(self.a * n2 - o.a * n1, self.b * n2 - o.b * n1, self.D)

    def __gt__(self, o):
        return self._cmp(o) > 0

    def __lt__(self, o):
        return self._cmp(o) < 0

    def __ge__(self, o):
        return self._cmp(o) >= 0

    def __le__(self, o):
        return self._cmp(o) <= 0

    def __eq__(self, o):
        if type(o) is not FieldElem:
            if not isinstance(o, (int, Fraction)):
                return NotImplemented
            return self.b == 0 and self.a == o.numerator and self.n == o.denominator
        return (self.D, self.a, self.b, self.n) == (o.D, o.a, o.b, o.n)

    def __hash__(self):
        if self.b == 0:
            # equal to the hash of the rational it is, as == says
            return hash(Fraction(self.a, self.n))
        return hash((self.D, self.x, self.y))

    def __float__(self):
        return self.a / self.n + self.b / self.n * sqrt(self.D)

    def __repr__(self):
        sgn = "+" if self.b >= 0 else "-"
        return f"({self.x} {sgn} {Fraction(abs(self.b), self.n)}*sqrt{self.D})"


def _elem(D: int, a: int, b: int, n: int) -> FieldElem:
    """The element (a + b*sqrt(D))/n of integers already in canonical form."""
    e = object.__new__(FieldElem)
    e.D, e.a, e.b, e.n = D, a, b, n
    return e


def _canon(D: int, a: int, b: int, n: int) -> FieldElem:
    """(a + b*sqrt(D))/n for integers a, b and n > 0, in lowest terms."""
    g = gcd(a, b, n)
    if g != 1:
        a, b, n = a // g, b // g, n // g
    return _elem(D, a, b, n)


def _common_denominator(x, y):
    """(p, q, n) with x = p/n and y = q/n, n the lcm of their denominators.

    For x, y in lowest terms no prime divides all of p, q and n.
    """
    p, xn = _rational(x)
    q, yn = _rational(y)
    if xn == yn:
        return p, q, xn
    n = xn * yn // gcd(xn, yn)
    return p * (n // xn), q * (n // yn), n


def _rational(x):
    """(numerator, denominator) of an int or Fraction; TypeError on anything else."""
    if type(x) is int:
        return x, 1
    if isinstance(x, Rational):
        return int(x.numerator), int(x.denominator)
    raise TypeError(f"exact values must be int or Fraction, not {type(x).__name__}")


def _sign(a: int, b: int, D: int) -> int:
    """Exact sign of a + b*sqrt(D), D > 0 not a square."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    # opposite signs: the larger of a^2 and b^2 D decides
    if a * a > b * b * D:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def integral_content(e: FieldElem) -> int:
    """Largest t in N with e/t integral (e itself integral, nonzero)."""
    uv = e.integral_uv()
    if uv is None:
        raise ValueError(f"integral_content needs an integral element, got {e}")
    return gcd(*uv)


# ---------------------------------------------------------------------------
# fractional ideals in scaled HNF
# ---------------------------------------------------------------------------

class FracIdeal:
    """Fractional O_F-ideal  s * ( Z*a + Z*(b + omega) ),  0 <= b < a.

    The general HNF shape s*[a, b + c*omega] always allows the content c to be
    pulled into the scale for an ideal, so c = 1 is the stored normal form.
    Since s*L = -s*L, the scale is positive and kept in lowest terms as two
    integers s = num/den, so the form is canonical; products, conjugates,
    inverses and integrality work on the integers num, den, a and b alone.
    """

    __slots__ = ("D", "num", "den", "a", "b")

    def __init__(self, D: int, s, a: int, b: int):
        num, den = _rational(s)
        if num == 0:
            raise ValueError("zero scale: the zero module is not a fractional ideal")
        if a <= 0:
            raise ValueError(f"HNF needs a > 0, got a = {a}")
        self.D, self.num, self.den, self.a, self.b = D, abs(num), den, a, b % a

    @property
    def s(self) -> Fraction:
        return Fraction(self.num, self.den)

    @staticmethod
    def from_hnf_rows(D: int, rows, num: int = 1, den: int = 1) -> "FracIdeal":
        """HNF of the Z-module spanned by integer (u, v) rows, scaled by num/den > 0.

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
        num *= c0
        g = gcd(num, den)
        return _ideal(D, num // g, den // g, a, b)

    @staticmethod
    def from_generators(D: int, gens) -> "FracIdeal":
        """Ideal generated over O_F by the given field elements."""
        omega = FieldElem.from_uv(D, 0, 1)
        rows = []     # (n*u, n*v, n) for each u + v*omega
        den = 1
        for g in gens:
            for e in (g, g * omega):
                rows.append((e.a - e.b * D, 2 * e.b, e.n))
                den = den * e.n // gcd(den, e.n)
        rows = [(u * (den // n), v * (den // n)) for (u, v, n) in rows]
        return FracIdeal.from_hnf_rows(D, rows, 1, den)

    def basis(self):
        """Z-basis as field elements: (s*a, s*(b + omega))."""
        s = _canon(self.D, self.num, 0, self.den)
        return (s * self.a, FieldElem.from_uv(self.D, self.b, 1) * s)

    def norm(self) -> Fraction:
        return Fraction(self.num * self.num * self.a, self.den * self.den)

    def contains(self, e: FieldElem) -> bool:
        # e/s = (A + B*sqrt(Delta))*den/(n*num) = u + v*omega
        m = e.n * self.num
        u, v = (e.a - e.b * self.D) * self.den, 2 * e.b * self.den
        if u % m or v % m:
            return False
        return (u // m - (v // m) * self.b) % self.a == 0

    def is_integral(self) -> bool:
        return self.den == 1

    def __mul__(self, o: "FracIdeal") -> "FracIdeal":
        """HNF of the four products of the Z-bases, omega^2 = Delta*omega - psi."""
        if not isinstance(o, FracIdeal):
            return NotImplemented
        if self.D != o.D:
            raise ValueError("mixed discriminants")
        D, a1, b1, a2, b2 = self.D, self.a, self.b, o.a, o.b
        rows = [(a1 * a2, 0), (a1 * b2, a1), (a2 * b1, a2),
                (b1 * b2 - (D * D - D) // 4, b1 + b2 + D)]
        return FracIdeal.from_hnf_rows(D, rows, self.num * o.num, self.den * o.den)

    def __pow__(self, n: int):
        if n == 0:
            return _ideal(self.D, 1, 1, 1, 0)
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
        return _ideal(self.D, self.num, self.den, self.a, (-self.b - self.D) % self.a)

    def inverse(self) -> "FracIdeal":
        # I * I' = (Nm I), so I^-1 = I'/Nm(I) has scale den/(num*a);
        # gcd(den, num*a) = gcd(den, a) as num/den is in lowest terms
        a = self.a
        g = gcd(self.den, a)
        return _ideal(self.D, self.den // g, self.num * (a // g), a, (-self.b - self.D) % a)

    def __eq__(self, o):
        return (
            isinstance(o, FracIdeal)
            and (self.D, self.num, self.den, self.a, self.b) == (o.D, o.num, o.den, o.a, o.b)
        )

    def __hash__(self):
        return hash((self.D, self.num, self.den, self.a, self.b))

    def __repr__(self):
        s = self.num if self.den == 1 else f"{self.num}/{self.den}"
        return f"Ideal({s}*[{self.a}, {self.b}+w], D={self.D})"

    def valuation(self, prime: "FracIdeal") -> int:
        """ord_prime(self) for a prime ideal of primes_above, read off the HNFs.

        self = t * J with t = num/den and J = [a, b + omega] primitive, so the
        part of J above p is [p, c + omega]^ord_p(a) if b = c mod p and none
        otherwise; p does not divide a at an inert (p).  The scale adds
        ord_p(t), twice at a ramified p.
        """
        if prime.a == 1:  # inert: (p) = p*[1, omega]
            p = prime.num
            return _ord(self.num, p) - _ord(self.den, p)
        p = prime.a
        v = _ord(self.num, p) - _ord(self.den, p)
        if self.D % p == 0:
            v *= 2
        if self.a % p == 0 and (self.b - prime.b) % p == 0:
            v += _ord(self.a, p)
        return v

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


def _ideal(D: int, num: int, den: int, a: int, b: int) -> FracIdeal:
    """The ideal (num/den)*[a, b + omega] of integers already in canonical form."""
    I = object.__new__(FracIdeal)
    I.D, I.num, I.den, I.a, I.b = D, num, den, a, b
    return I


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


def rho_walk(f, D: int):
    """The rho-reduction of the form f: yields (form, delta) from f down to its
    first reduced form g, then once round the cycle of g, ending with g again.

    rho(A, B, C) = (C, r, (r^2 - D)/(4C)) takes the basis (x, y) of the form
    to (-y, x + delta*y), delta = (r + B)/(2C), the step out of the yielded
    form.  Raises if the walk does not close.
    """
    sq = isqrt(D)
    first = None
    for _ in range(10 ** 5):
        A, B, C = f
        r = _rho_r(B, C, D, sq)
        yield f, (r + B) // (2 * C)
        if first is None and _is_reduced(f, D):
            first = f
        elif f == first:
            return
        f = (C, r, (r * r - D) // (4 * C))
    raise RuntimeError(f"rho walk from {f} did not close")


@lru_cache(maxsize=None)
def _cycle_of_reduced(f, D: int):
    """Full rho-cycle through a reduced form, rotated to start at its minimum."""
    cyc = [g for g, _ in rho_walk(f, D)][:-1]
    m = cyc.index(min(cyc))
    return tuple(cyc[m:] + cyc[:m])


def cycle_key(f, D: int):
    """Canonical key of the proper equivalence class of an indefinite form:
    the least form of the cycle it reduces to."""
    g = next(g for g, _ in rho_walk(f, D) if _is_reduced(g, D))
    return _cycle_of_reduced(g, D)[0]


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
        """eps_F > 1 generating O_F^x/{+-1}: the quotient of the generators of
        O_F at the first two forms with |A| = 1 on its rho-walk, one period of
        the principal cycle, or half of it when Nm(eps_F) = -1."""
        if self._eps is None:
            g1, g2 = islice(self._generators(self.O_F()), 2)
            eps = abs(g2 / g1)
            if eps < self.one:
                eps = eps.inverse()
            if abs(eps.norm()) != 1 or not (eps.is_integral() and eps > self.one):
                raise RuntimeError(f"rho walk gave {eps}, not a unit > 1 of O_F")
            self._eps = eps
        return self._eps

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
        out = []
        # the primes of Nm(I) = num^2 a
        for p in factorint(I.num * I.a):
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
        return next(self._generators(I), None)

    def _generators(self, I: FracIdeal):
        """The generator of I at each form with |A| = 1 on the rho-walk of I.

        The walk's basis change U, built up from its steps, takes the oriented
        basis (b + omega, a) of I/s to that of the current form; where
        |A| = 1, the first basis vector u11 (b + omega) + u21 a generates I/s.
        """
        D = self.D
        s = _canon(D, I.num, 0, I.den)
        u11, u12, u21, u22 = 1, 0, 0, 1
        for (A, _, _), delta in rho_walk(I.form(), D):
            if A in (1, -1):
                g = self.from_uv(I.b * u11 + I.a * u21, u11) * s
                # |Nm(g)| = Nm(I) = num^2 a / den^2, cross-multiplied
                nm = abs(g.a * g.a - g.b * g.b * D)
                if nm * I.den ** 2 != I.num ** 2 * I.a * g.n ** 2 or not I.contains(g):
                    raise RuntimeError(f"reduction walk produced {g}, not a generator of {I}")
                yield g
            # basis change (x, y) -> (-y, x + delta*y)
            u11, u12 = u12, delta * u12 - u11
            u21, u22 = u22, delta * u22 - u21

    def unit_orbit_rep(self, mu: FieldElem, unit: FieldElem, lo: FieldElem) -> FieldElem:
        """mu * unit^j for the j that puts |mu/mu'| in the window [lo, lo*s).

        Multiplying mu by unit multiplies |mu/mu'| by s = |unit/unit'|, so the
        window holds exactly one member of the orbit mu * unit^Z and the
        result is the same for all of them.  Nothing is divided: for a unit
        of norm +-1, s = unit^2 and unit^-1 = Nm(unit) * unit', and the test
        |mu/mu'| = mu^2/|Nm(mu)| >= lo reads mu^2 >= lo*|Nm(mu)|.
        """
        D = self.D
        nu = unit.a * unit.a - unit.b * unit.b * D      # Nm(unit) * unit.n^2
        n = abs(mu.a * mu.a - mu.b * mu.b * D)          # |Nm(mu)| * mu.n^2
        if abs(nu) != unit.n * unit.n or unit.b == 0 or n == 0:
            raise InvalidInputError(f"no orbit window for {mu} under {unit} "
                                    f"(norm {unit.norm()}): "
                                    "needs mu != 0 and a unit other than +-1")
        inv = unit.conj() if nu > 0 else -unit.conj()
        step, sq = unit * unit, mu * mu
        lo_n = _canon(D, lo.a * n, lo.b * n, lo.n * mu.n * mu.n)
        for _ in range(10 ** 5):
            if sq < lo_n:
                mu, sq = mu * unit, sq * step
            elif sq >= lo_n * step:
                mu, sq = mu * inv, sq * step.conj()
            else:
                return mu
        raise RuntimeError(f"unit orbit of {mu} does not meet the window [{lo}, {lo * step})")

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
        for p in primes_upto(self.PRIME_SEARCH_BOUND):
            if found == self.h_plus:
                break
            if kronecker(D, p) != 1:
                continue
            for pr in F.primes_above(p):
                i = self.key_index[cycle_key(pr.form(), D)]
                if reps[i] is None:
                    reps[i] = pr
                    found += 1
        if found < self.h_plus:
            raise RuntimeError(
                f"no prime representative below {self.PRIME_SEARCH_BOUND} "
                f"for some narrow class, Delta={D}"
            )
        self.reps = reps
        self._table = None
        self._inv = None

    @staticmethod
    def _all_cycles(D: int):
        """Canonical keys of all cycles of reduced forms of discriminant D.

        A reduced form has 0 < B < sqrt(D), B = D mod 2, so -AC = (D - B^2)/4.
        """
        seen = set()
        keys = set()
        for B in range(2 - D % 2, isqrt(D) + 1, 2):
            t = (D - B * B) // 4
            for A in range(1, isqrt(t) + 1):
                if t % A:
                    continue
                for Aa in {A, t // A}:
                    for f in ((Aa, B, -(t // Aa)), (-Aa, B, t // Aa)):
                        if f not in seen and _is_reduced(f, D):
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
