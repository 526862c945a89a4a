"""FracIdeal on an integer scale num/den against a Fraction-scale reference.

The reference is the ideal s*[a, b + omega] with s a Fraction, multiplied
and inverted in the textbook way; hypothesis draws fields, ideals and
generators from a fixed seed and every result must agree with it, in value
and in repr, and be in canonical form: num > 0, den > 0, gcd(num, den) = 1
and 0 <= b < a.  Valuations, read off the HNFs, must agree with repeated
division by the prime, on fractional scales and on P^e up to e = 40.  The
last tests pin the refusal of bad input and check that the ideal arithmetic
and the unit-orbit normaliser build no Fraction.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import hgreen.qfield as qfield
from hgreen.qfield import FieldElem, FracIdeal, _xgcd, field

DELTAS = [5, 8, 12, 13, 21, 28, 60, 161, 485, 4945]


class Ref:
    """s*[a, b + omega] with a Fraction scale s > 0."""

    def __init__(self, D, s, a, b):
        self.D, self.s, self.a, self.b = D, Fraction(s), a, b % a

    @staticmethod
    def from_hnf_rows(D, rows, scale):
        rows = [(u, v) for (u, v) in rows if u or v]
        cur, rest = None, []
        for (u, v) in rows:
            if v == 0:
                rest.append(u)
            elif cur is None:
                cur = (u, v)
            else:
                u0, v0 = cur
                g, p, q = _xgcd(v0, v)
                rest.append((v // g) * u0 - (v0 // g) * u)
                cur = (p * u0 + q * u, g)
        b0, c0 = cur
        if c0 < 0:
            b0, c0 = -b0, -c0
        a0 = 0
        for u in rest:
            a0 = gcd(a0, u)
        b0 %= a0
        assert a0 % c0 == 0 and b0 % c0 == 0
        return Ref(D, scale * c0, a0 // c0, b0 // c0)

    @staticmethod
    def from_generators(D, gens):
        omega = FieldElem.from_uv(D, 0, 1)
        pairs, den = [], 1
        for g in gens:
            for e in (g, g * omega):
                u, v = e.uv()
                pairs.append((u, v))
                den = lcm(den, u.denominator, v.denominator)
        rows = [(int(u * den), int(v * den)) for (u, v) in pairs]
        return Ref.from_hnf_rows(D, rows, Fraction(1, den))

    def norm(self):
        return self.s * self.s * self.a

    def is_integral(self):
        return self.s.denominator == 1

    def __mul__(self, o):
        D, a1, b1, a2, b2 = self.D, self.a, self.b, o.a, o.b
        rows = [(a1 * a2, 0), (a1 * b2, a1), (a2 * b1, a2),
                (b1 * b2 - (D * D - D) // 4, b1 + b2 + D)]
        return Ref.from_hnf_rows(D, rows, self.s * o.s)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Ref(self.D, 1, 1, 0)
        for _ in range(k):
            out = out * self
        return out

    def conj(self):
        return Ref(self.D, self.s, self.a, -self.b - self.D)

    def inverse(self):
        return Ref(self.D, self.s / self.norm(), self.a, -self.b - self.D)

    def key(self):
        return (self.D, self.s, self.a, self.b)

    def valuation(self, prime):
        """By repeated exact division, once the denominator d of the scale is
        cleared: ord(self) = ord(d * self) - ord((d))."""
        d = self.s.denominator
        return (Ref(self.D, self.s * d, self.a, self.b)._divisions(prime)
                - Ref(self.D, d, 1, 0)._divisions(prime))

    def _divisions(self, prime):
        v, cur, inv = 0, self, prime.inverse()
        while True:
            cur = cur * inv
            if not cur.is_integral():
                return v
            v += 1

    def __repr__(self):
        return f"Ideal({self.s}*[{self.a}, {self.b}+w], D={self.D})"


def check(I, r):
    """I is canonical and is the ideal of the reference r."""
    assert type(I) is FracIdeal and I.D == r.D
    assert I.num > 0 and I.den > 0 and gcd(I.num, I.den) == 1
    assert 0 <= I.b < I.a
    assert (Fraction(I.num, I.den), I.a, I.b) == (r.s, r.a, r.b)
    assert repr(I) == repr(r)


def _hnf_shapes(D, a_max=300):
    psi = (D * D - D) // 4
    return [(a, b) for a in range(1, a_max + 1) for b in range(a)
            if (b * b + b * D + psi) % a == 0]


SHAPES = {D: _hnf_shapes(D) for D in DELTAS}

scales = st.builds(Fraction, st.integers(1, 12) | st.integers(-12, -1), st.integers(1, 12))
rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 15))
# a nonzero field element x + y*sqrt(Delta)
coords = st.tuples(rationals, rationals).map(lambda xy: xy if any(xy) else (1, 0))


@st.composite
def ideal_pairs(draw, D):
    """(FracIdeal, Ref) of one ideal: a drawn HNF shape and scale, or the
    ideal of one or two drawn field elements."""
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(SHAPES[D]))
        s = draw(scales)
        return FracIdeal(D, s, a, b), Ref(D, abs(s), a, b)
    gens = draw(st.lists(coords, min_size=1, max_size=2))
    gens = [FieldElem(D, x, y) for x, y in gens]
    return FracIdeal.from_generators(D, gens), Ref.from_generators(D, gens)


@st.composite
def cases(draw):
    D = draw(st.sampled_from(DELTAS))
    return D, draw(ideal_pairs(D)), draw(ideal_pairs(D))


SETTINGS = settings(max_examples=300, deadline=None, database=None)


@seed(2018)
@SETTINGS
@given(cases(), st.integers(-3, 3), st.sampled_from([2, 3, 5, 7]), st.integers(0, 40))
def test_ideal_arithmetic_matches_reference(case, k, p, e):
    D, (I, r), (J, q) = case
    check(I, r)
    check(J, q)
    check(I * J, r * q)
    check(I ** k, r ** k)
    check(I.conj(), r.conj())
    check(I.inverse(), r.inverse())
    check(I * I.inverse(), Ref(D, 1, 1, 0))
    assert I.norm() == r.norm() and type(I.norm()) is Fraction
    assert I.s == r.s and type(I.s) is Fraction
    assert I.is_integral() == r.is_integral()
    assert (I == J) == (r.key() == q.key())
    assert (I == FracIdeal(D, r.s, r.a, r.b)) and hash(I) == hash(FracIdeal(D, r.s, r.a, r.b))
    # valuations of an integral ideal with the drawn one's shape
    I2 = FracIdeal(D, r.s.numerator, r.a, r.b)
    r2 = Ref(D, r.s.numerator, r.a, r.b)
    for P in field(D).primes_above(p):
        rP = Ref(D, P.s, P.a, P.b)
        assert I2.valuation(P) == r2.valuation(rP)
        assert (I2 * P ** 2).valuation(P) == r2.valuation(rP) + 2
        # and of the drawn ideal, fractional scales included, times P^e
        assert I.valuation(P) == r.valuation(rP)
        assert (I * P ** e).valuation(P) == (r * rP ** e).valuation(rP) == r.valuation(rP) + e


@seed(2018)
@SETTINGS
@given(st.sampled_from(DELTAS),
       st.lists(coords, min_size=1, max_size=3))
def test_from_generators_matches_reference(D, xys):
    gens = [FieldElem(D, x, y) for x, y in xys]
    I = FracIdeal.from_generators(D, gens)
    check(I, Ref.from_generators(D, gens))
    assert all(I.contains(g) for g in gens)


# ---------------------------------------------------------------------------
# canonical form and refused input
# ---------------------------------------------------------------------------

def test_float_scale_is_refused():
    with pytest.raises(TypeError, match="int or Fraction"):
        FracIdeal(21, 0.1, 1, 0)


def test_nonpositive_hnf_a_is_refused():
    for a in (0, -3):
        with pytest.raises(ValueError, match="a > 0"):
            FracIdeal(21, 1, a, 0)


def test_zero_scale_is_refused():
    for s in (0, Fraction(0, 7)):
        with pytest.raises(ValueError, match="zero scale"):
            FracIdeal(21, s, 1, 0)


def test_scale_is_positive_in_lowest_terms():
    assert FracIdeal(21, -1, 1, 0) == FracIdeal(21, 1, 1, 0) == field(21).O_F()
    assert hash(FracIdeal(21, -1, 1, 0)) == hash(field(21).O_F())
    I = FracIdeal(21, Fraction(-6, 4), 5, 9)
    assert (I.num, I.den, I.a, I.b) == (3, 2, 5, 4)
    assert repr(I) == "Ideal(3/2*[5, 4+w], D=21)"


# ---------------------------------------------------------------------------
# the hot path builds no Fraction
# ---------------------------------------------------------------------------

class _NoFraction:
    def __new__(cls, *args, **kwargs):
        raise AssertionError("Fraction built on the integer path")


@pytest.mark.parametrize("D", [21, 161])
def test_ideal_and_orbit_arithmetic_build_no_fraction(D, monkeypatch):
    F = field(D)
    epsD = F.eps_Delta()
    I, J = F.ideals_of_norm(5 if D == 21 else 10)[0], F.ideals_of_norm(4)[0]
    K = I.inverse() * J
    mus = [F.from_uv(u, v) for u in range(-4, 5) for v in range(1, 4)]
    P = F.primes_above(2)[0]
    monkeypatch.setattr(qfield, "Fraction", _NoFraction)
    for X, Y in ((I, J), (K, I), (J, K)):
        Z = X * Y
        assert Z * Y.inverse() == X
        assert X ** 3 == X * X * X and X ** -2 == (X * X).inverse()
        assert X.conj().conj() == X and X.inverse().inverse() == X
        assert hash(Z) == hash(Y * X) and Z == Y * X
        assert X.is_integral() == (X.den == 1)
        if X.is_integral():
            assert (X * P).valuation(P) == X.valuation(P) + 1
    for mu in mus:
        G = FracIdeal.from_generators(D, [mu, mu * 3])
        assert G == FracIdeal.from_generators(D, [mu]) and G.contains(mu)
        assert F.generator_of(G) is not None
        rep = F.unit_orbit_rep(mu, epsD, F.one)
        assert F.unit_orbit_rep(mu * epsD, epsD, F.one) == rep
