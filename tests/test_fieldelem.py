"""FieldElem on integers (a + b*sqrt(Delta))/n against a two-Fraction reference.

The reference stores x + y*sqrt(Delta) as two Fractions and does every
operation in the textbook way; hypothesis draws elements and scalars from a
fixed seed and every result must agree with it, in value and in repr, and be
in canonical form: n > 0 and gcd(a, b, n) = 1.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hgreen.qfield import FieldElem, field

DELTAS = [5, 8, 12, 13, 21, 28, 161, 4945, 999996]


class Ref:
    """x + y*sqrt(D) with Fraction x, y."""

    def __init__(self, D, x, y):
        self.D, self.x, self.y = D, Fraction(x), Fraction(y)

    def __add__(self, o):
        return Ref(self.D, self.x + o.x, self.y + o.y)

    def __sub__(self, o):
        return Ref(self.D, self.x - o.x, self.y - o.y)

    def __mul__(self, o):
        return Ref(self.D, self.x * o.x + self.y * o.y * self.D,
                   self.x * o.y + self.y * o.x)

    def norm(self):
        return self.x * self.x - self.y * self.y * self.D

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError
        return Ref(self.D, self.x / n, -self.y / n)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Ref(self.D, 1, 0)
        for _ in range(k):
            out = out * self
        return out

    def conj(self):
        return Ref(self.D, self.x, -self.y)

    def sign(self):
        x, y = self.x, self.y
        if y == 0 or x == 0 or (x > 0) == (y > 0):
            s = x if y == 0 else y
            return (s > 0) - (s < 0)
        return (1 if x > 0 else -1) if x * x > y * y * self.D else (1 if y > 0 else -1)

    def uv(self):
        return self.x - self.y * self.D, 2 * self.y

    def __repr__(self):
        sgn = "+" if self.y >= 0 else "-"
        return f"({self.x} {sgn} {abs(self.y)}*sqrt{self.D})"


def check(e, r):
    """e is canonical and has the value of the reference r."""
    assert type(e) is FieldElem and e.D == r.D
    assert e.n > 0 and gcd(e.a, e.b, e.n) == 1
    assert (Fraction(e.a, e.n), Fraction(e.b, e.n)) == (r.x, r.y)
    assert repr(e) == repr(r)


rationals = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12)),
)


@st.composite
def pairs(draw):
    D = draw(st.sampled_from(DELTAS))
    x1, y1, x2, y2 = (draw(rationals) for _ in range(4))
    return (field(D).elem(x1, y1), Ref(D, x1, y1),
            field(D).elem(x2, y2), Ref(D, x2, y2))


SETTINGS = settings(max_examples=300, deadline=None, database=None)


@seed(2018)
@SETTINGS
@given(pairs(), rationals)
def test_ring_operations_match_reference(p, q):
    e1, r1, e2, r2 = p
    check(e1, r1)
    check(e2, r2)
    check(e1 + e2, r1 + r2)
    check(e1 - e2, r1 - r2)
    check(e1 * e2, r1 * r2)
    check(-e1, Ref(r1.D, -r1.x, -r1.y))
    check(e1.conj(), r1.conj())
    qr = Ref(r1.D, q, 0)
    check(e1 + q, r1 + qr)
    check(q + e1, qr + r1)
    check(e1 - q, r1 - qr)
    check(q - e1, qr - r1)
    check(e1 * q, r1 * qr)
    check(q * e1, qr * r1)
    if r2.norm() != 0:
        check(e1 / e2, r1 * r2.inverse())
        check(e2.inverse(), r2.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            e1 / e2
    if q != 0:
        check(e1 / q, r1 * qr.inverse())


@seed(2018)
@SETTINGS
@given(pairs(), st.integers(-5, 5))
def test_powers_match_reference(p, k):
    e, r, _, _ = p
    if k < 0 and r.norm() == 0:
        with pytest.raises(ZeroDivisionError):
            e ** k
    else:
        check(e ** k, r ** k)


@seed(2018)
@SETTINGS
@given(pairs(), rationals)
def test_invariants_and_order_match_reference(p, q):
    e1, r1, e2, r2 = p
    assert e1.norm() == r1.norm() and type(e1.norm()) is Fraction
    assert e1.trace() == 2 * r1.x and type(e1.trace()) is Fraction
    assert e1.sign() == r1.sign()
    assert e1.is_totally_positive() == (r1.sign() > 0 and r1.conj().sign() > 0)
    assert e1.uv() == r1.uv() and all(type(c) is Fraction for c in e1.uv())
    u, v = r1.uv()
    assert e1.is_integral() == (u.denominator == 1 and v.denominator == 1)
    assert e1.is_zero() == (r1.x == 0 and r1.y == 0)
    assert (e1.x, e1.y) == (r1.x, r1.y)
    d = (r1 - r2).sign()
    assert (e1 < e2, e1 <= e2, e1 > e2, e1 >= e2) == (d < 0, d <= 0, d > 0, d >= 0)
    assert (e1 == e2) == (d == 0)
    dq = (r1 - Ref(r1.D, q, 0)).sign()
    assert (e1 < q, e1 <= q, e1 > q, e1 >= q) == (dq < 0, dq <= 0, dq > 0, dq >= 0)
    assert (e1 == q) == (dq == 0)
    check(FieldElem.from_uv(r1.D, u, v), r1)
    if u.denominator == v.denominator == 1:
        check(FieldElem.from_uv(r1.D, int(u), int(v)), r1)
