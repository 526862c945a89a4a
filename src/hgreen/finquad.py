"""The finite quadratic module A_Delta = d^{-1}/O_F and genus theory.

A_Delta is identified with Z/(Delta/gcd(Delta,2)) x Z/gcd(Delta,2) via
(a + b*omega)/sqrt(Delta) |-> (a, b).  The Galois involution acts as h -> -h,
and for every prime p | Delta there is an order-2 automorphism sigma_p acting
on the p-part.  Genus characters chi_{Delta1,Delta2}, the count rho_{K/F} of
ideals of the extension K cut out by chi and d0 are read off integers by one
local rule at each prime (prime_character, rho_factor; Cox, Primes of the
Form x^2 + ny^2, sec. 6), with no class group.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod

from .qfield import (
    FieldElem,
    FracIdeal,
    InvalidInputError,
    QuadField,
    _ideal,
    _ord,
    _xgcd,
    factorint,
    field,
    is_fundamental_discriminant,
    kronecker,
)


class FQM:
    """The module A_Delta with its quadratic form Q(h) = Nm(h) mod 1."""

    def __init__(self, F: QuadField):
        self.F = F
        D = F.D
        g2 = gcd(D, 2)
        self.mod1 = D // g2
        self.mod2 = g2
        self.exponent = self.mod1 if g2 == 1 else 2 * self.mod1  # lcm(mod1, 2)
        self.primes = sorted(factorint(D))
        self._idem = {}
        self._swap = None

    # elements are plain tuples (a, b) reduced mod (mod1, mod2) -----------------
    def elem(self, a: int, b: int = 0):
        return (a % self.mod1, b % self.mod2)

    def zero(self):
        return (0, 0)

    def add(self, h1, h2):
        return ((h1[0] + h2[0]) % self.mod1, (h1[1] + h2[1]) % self.mod2)

    def neg(self, h):
        return ((-h[0]) % self.mod1, (-h[1]) % self.mod2)

    def smul(self, n: int, h):
        return ((n * h[0]) % self.mod1, (n * h[1]) % self.mod2)

    def elements(self):
        for a in range(self.mod1):
            for b in range(self.mod2):
                yield (a, b)

    def lift(self, h) -> FieldElem:
        """The representative (a + b*omega)/sqrt(Delta) in d^{-1}."""
        F = self.F
        return F.from_uv(h[0], h[1]) / F.sqrtD

    def from_numerator(self, beta: FieldElem):
        """Class of beta/sqrt(Delta) in d^{-1}/O_F from integral beta's (u, v)."""
        uv = beta.integral_uv()
        if uv is None:
            raise ValueError("beta/sqrt(Delta) is not in the inverse different")
        return self.elem(*uv)

    def DQ(self, h) -> int:
        """Delta * Q(h) in [0, Delta): Nm(sqrt(Delta)) = -Delta, so Nm(lift(h))
        = -Nm(a + b*omega)/Delta = -(a^2 + Delta*a*b + psi*b^2)/Delta."""
        (a, b), D = h, self.F.D
        return -(a * a + D * a * b + self.F.psi * b * b) % D

    def Q(self, h) -> Fraction:
        """Q(h) = Nm(lift) mod 1, valued in [0, 1)."""
        return Fraction(self.DQ(h), self.F.D)

    # p-parts -------------------------------------------------------------------
    def _idempotent(self, p: int) -> int:
        """Integer e with e = 1 mod p-part and e = 0 mod the rest of exponent."""
        if p not in self._idem:
            n = self.exponent
            pk = 1
            while n % p == 0:
                n //= p
                pk *= p
            # CRT: e = 1 mod pk, 0 mod n
            g, u, v = _xgcd(pk, n)
            if g != 1:
                raise RuntimeError(f"CRT moduli {pk} and {n} are not coprime")
            self._idem[p] = (v * n) % (pk * n)
        return self._idem[p]

    def p_part(self, h, p: int):
        return self.smul(self._idempotent(p), h)

    def two_part_elements(self):
        """The four elements of the 2-part when 4 | Delta."""
        if self.mod2 != 2:
            raise ValueError(f"the 2-part needs 4 | Delta, got Delta = {self.F.D}")
        g1 = self.p_part(self.elem(1, 0), 2)
        g2 = self.p_part(self.elem(0, 1), 2)
        out = {self.zero(), g1, g2, self.add(g1, g2)}
        return sorted(out)

    def _sigma2_swap(self):
        """For ord_2(Delta) = 2: the pair of 2-part elements that sigma_2 swaps.

        The 2-part is ((Z/2)^2, (a,b) -> (a^2+b^2)/4 up to sign); sigma_2 is its
        unique nontrivial isometry, fixing 0 and the Q-value-1/2 element and
        swapping the two elements of equal Q != 1/2.
        """
        if self._swap is None:
            by_q = {}
            for e in self.two_part_elements():
                by_q.setdefault(self.Q(e), []).append(e)
            pair = [v for v in by_q.values() if len(v) == 2]
            if len(pair) != 1:
                raise RuntimeError(
                    f"2-part of A_Delta has no unique swapped pair: {by_q}, Delta = {self.F.D}"
                )
            self._swap = tuple(pair[0])
        return self._swap

    def sigma_p(self, h, p: int):
        """The involution sigma_p: negation on the p-part, except the swap case."""
        if self.F.D % p != 0:
            raise InvalidInputError(f"sigma_p needs p | Delta, got p={p}")
        if p == 2 and self.F.D % 8 == 4:
            hp = self.p_part(h, 2)
            u, v = self._sigma2_swap()
            if hp == u:
                img = v
            elif hp == v:
                img = u
            else:
                img = hp
            return self.add(self.add(h, self.neg(hp)), img)
        hp = self.p_part(h, p)
        return self.add(h, self.smul(-2, hp))

    def sigma_d(self, h, d: int):
        """sigma_d = product of sigma_p over primes p | d, for d in G_Delta."""
        for p in sorted(factorint(d)):
            h = self.sigma_p(h, p)
        return h


@lru_cache(maxsize=None)
def fqm(Delta: int) -> FQM:
    return FQM(field(Delta))


# ---------------------------------------------------------------------------
# the group G_Delta of fundamental-discriminant divisors
# ---------------------------------------------------------------------------

class GDelta:
    """G_Delta = {|d| : d fundamental discriminant | Delta, gcd(d, Delta/d)=1}.

    Each element corresponds to a subset of the primes dividing Delta; the
    2-adic part of Delta (4 or 8) stands in for the prime 2.
    """

    def __init__(self, F: QuadField):
        self.F = F
        D = F.D
        self.odd_primes = sorted(p for p in factorint(D) if p % 2 == 1)
        self.two_part = 0
        if D % 2 == 0:
            self.two_part = 4 if D % 8 == 4 else 8
        self.primes = ([2] if self.two_part else []) + self.odd_primes

    def from_support(self, primes) -> int:
        d = 1
        for p in primes:
            d *= self.two_part if p == 2 else p
        return d

    def support(self, d: int):
        return sorted(factorint(d)) if d > 1 else []

    def elements(self):
        out = [1]
        for p in self.primes:
            out = out + [x * (self.two_part if p == 2 else p) for x in out]
        return sorted(out)

    def full(self) -> int:
        """The full-support element; always equals Delta."""
        return self.from_support(self.primes)

    def delta0_elem(self) -> int:
        """sigma_{Delta0} as a G_Delta element (acts as h -> -h on A_Delta)."""
        D0 = self.F.Delta0
        if D0 % 2 == 1 and self.F.D % 2 == 0:
            return self.from_support(sorted(factorint(D0)))
        return self.full()


def d_of(fqm: FQM, h) -> int:
    """d(h): the G_Delta element whose support is {p : sigma_p(h) = h}."""
    gd = GDelta(fqm.F)
    sup = [p for p in gd.primes if fqm.sigma_p(h, p) == h]
    return gd.from_support(sup)


@lru_cache(maxsize=None)
def d0(Delta: int) -> int:
    """The unique d != 1 in G_Delta whose ramified product d_d is narrowly principal.

    Delta when Nm(eps_F) = -1.  Otherwise 1 + eps_F is totally positive and
    (1 + eps_F)' = (1 + eps_F)/eps_F, so (1 + eps_F) = q d_d with q rational and
    2 + Tr(eps_F) = Nm(1 + eps_F) = q^2 Nm(d_d): d0 is made of the primes of
    odd order in 2 + Tr(eps_F).
    """
    F = field(Delta)
    if F.unit_norm() == -1:
        return Delta
    gd = GDelta(F)
    t = 2 + int(F.fundamental_unit().trace())
    odd = [p for p in gd.primes if _ord(t, p) % 2]
    rest = t // prod(odd)
    if not odd or isqrt(rest) ** 2 != rest:
        raise RuntimeError(f"2 + Tr(eps_F) = {t} is not a square times primes "
                           f"of Delta = {Delta}")
    return gd.from_support(odd)


def ramified_product(F: QuadField, d: int) -> FracIdeal:
    """d_d = product of the ramified primes dividing d (a G_Delta element)."""
    I = F.O_F()
    for p in sorted(factorint(d)):
        I = I * F.prime_above(p)
    return I


def s_h(fqm: FQM, h) -> int:
    """Signed count of symmetries fixing h: 0, 1 or 2.

    0 when Delta0 | d(h) (i.e. 2h = 0); 2 when d0 | d(h) but Delta0 does not
    divide d(h); 1 otherwise.
    """
    dh = d_of(fqm, h)
    if dh % GDelta(fqm.F).delta0_elem() == 0:
        return 0
    if dh % d0(fqm.F.D) == 0:
        return 2
    return 1


# ---------------------------------------------------------------------------
# genus characters
# ---------------------------------------------------------------------------

class GenusChar:
    """Genus character chi_{Delta1, Delta2} attached to Delta = Delta1 * Delta2."""

    def __init__(self, Delta1: int, Delta2: int):
        if Delta1 * Delta2 <= 1:
            raise InvalidInputError("Delta1 * Delta2 must be a positive discriminant")
        if gcd(Delta1, Delta2) != 1:
            raise InvalidInputError("Delta1, Delta2 must be coprime")
        for d in (Delta1, Delta2):
            if d != 1 and not is_fundamental_discriminant(d):
                raise InvalidInputError(f"{d} is not a fundamental discriminant")
        self.Delta1 = Delta1
        self.Delta2 = Delta2
        self.Delta = Delta1 * Delta2
        self.odd = Delta1 < 0
        self.F = field(self.Delta)

    def __repr__(self):
        return f"chi({self.Delta1},{self.Delta2})"

    def __eq__(self, o):
        return isinstance(o, GenusChar) and {self.Delta1, self.Delta2} == {o.Delta1, o.Delta2}

    def __hash__(self):
        return hash((self.Delta, min(self.Delta1, self.Delta2)))

    def __call__(self, I: FracIdeal) -> int:
        """chi([I]) from the primitive part [a, b + omega] of I, as chi is 1 on
        the rational scalars: chi_p at each ramified p | a (prime_character),
        which divides a once, times (Delta1/.) at the split primes left in a."""
        a, out = I.a, 1
        for p in factorint(gcd(a, self.Delta)):
            out *= prime_character(self, p)[1]
            a //= p
        return out * kronecker(self.Delta1, a)


@lru_cache(maxsize=4096)
def prime_character(chi: GenusChar, p: int) -> tuple:
    """(kronecker(Delta, p), chi at the primes above p) for a rational prime p:
    an inert p has chi = +1, a split p kronecker(Delta1, p), and by genus
    theory a ramified p kronecker(Delta2, p) if p | Delta1, else
    kronecker(Delta1, p), with no class group."""
    kind = kronecker(chi.Delta, p)
    if kind == -1:
        return kind, 1
    if kind == 0 and chi.Delta1 % p == 0:
        return kind, kronecker(chi.Delta2, p)
    return kind, kronecker(chi.Delta1, p)


@lru_cache(maxsize=None)
def rho_factor(kind: int, chi_p: int, e: int, ec: int) -> int:
    """Factor of rho_{K/F}((mu0)) at a rational prime p of kind and character
    value chi_p (see prime_character), p^e || Nm(mu0), p^ec || c = gcd(u, v)
    with mu0 = u + v*omega; rho is the product over p | Nm(mu0).

    The exponents of (mu0) above p are e/2 at an inert p, e at a ramified p,
    and (e - ec, ec) at a split p, the prime that holds mu0/c first (mu0/c
    lies in at most one of the two).  The factor multiplies exponent + 1 over
    them where chi_p = +1; where chi_p = -1 it is 1 if they are all even, else 0.
    """
    exps = (e // 2,) if kind == -1 else (e,) if kind == 0 else (e - ec, ec)
    if chi_p == 1:
        return prod(f + 1 for f in exps)
    return int(all(f % 2 == 0 for f in exps))


def genus_characters(Delta: int, odd_only: bool = False):
    """All genus characters of Q(sqrt(Delta)), one per unordered splitting
    Delta = s t into fundamental discriminants (or 1), s = +-d for d in G_Delta."""
    seen = set()
    out = []
    for d in GDelta(field(Delta)).elements():
        for s in (d, -d):
            t = Delta // s
            key = frozenset((s, t))
            fundamental = all(x == 1 or is_fundamental_discriminant(x) for x in (s, t))
            if fundamental and key not in seen:
                seen.add(key)
                out.append(GenusChar(s, t))
    if odd_only:
        out = [c for c in out if c.odd]
    return out


# ---------------------------------------------------------------------------
# the ideal counting function rho_{K/F}
# ---------------------------------------------------------------------------

def rho_KF(chi: GenusChar, I: FracIdeal) -> int:
    """Number of O_K-ideals with relative norm I, K/F cut out by chi.

    Multiplicative: a prime power l^e contributes e+1 when chi(l) = +1 and
    1 or 0 (e even / odd) when chi(l) = -1.  For I = num [a, b + omega] that is
    the rho_factor of each p | Nm(I) = num^2 a, with p^ec || num.
    """
    if not I.is_integral():
        raise InvalidInputError("rho_KF needs an integral ideal")
    return prod(rho_factor(*prime_character(chi, p), e, _ord(I.num, p))
                for p, e in factorint(I.num * I.num * I.a).items())


# ---------------------------------------------------------------------------
# sqrt(a, h) support
# ---------------------------------------------------------------------------

class SqrtSupport:
    """Support computation for the class-group element sqrt(a, h).

    A narrow class [b] lies in the support iff a = Nm^-(b)(mu) for a positive
    mu whose coset in A_{Nm^-(b)}, canonically identified with A_Delta, is h.
    Here mu generates the fractional ideal Nm^-(b)*a, so the test per class is
    wide principality of that ideal plus a coset check on the finitely many
    positive generators modulo <eps_Delta>.  With b integral of norm n_b
    coprime to Delta, the identification reads  h(mu) = n_b^{-1} * [n_b*mu /
    sqrt(Delta)]  and n_b*mu lies in b^2*a, an integral ideal.
    """

    def __init__(self, F: QuadField):
        self.F = F
        self.fqm = FQM(F)
        self.ncg = F.narrow_class_group()
        self._cands = {}

    def _class_data(self, i: int):
        """(rep norm n_b, inverse of n_b mod the module exponent)."""
        b = self.ncg.reps[i]
        nb = int(b.norm())
        return nb, pow(nb, -1, self.fqm.exponent)

    def _candidates(self, a: FracIdeal, i: int):
        """(mu, h(mu)) for positive generators mu of Nm^-(b_i)*a mod eps_Delta."""
        key = (a, i)
        if key not in self._cands:
            b = self.ncg.reps[i]
            nb, nb_inv = self._class_data(i)
            J = a * b * b * _ideal(self.F.D, 1, nb, 1, 0)
            out = []
            for mu in self.F.positive_generators_mod_epsD(J):
                hmu = self.fqm.smul(nb_inv, self.fqm.from_numerator(mu * nb))
                out.append((mu, hmu))
            self._cands[key] = out
        return self._cands[key]

    def support(self, a: FracIdeal, h):
        """Sorted list of class indices in the support of sqrt(a, h)."""
        out = []
        for i in range(self.ncg.h_plus):
            for _, hmu in self._candidates(a, i):
                if hmu == h:
                    out.append(i)
                    break
        return out

    def chi_of_support(self, chi: GenusChar, a: FracIdeal, h) -> int:
        return sum(chi(self.ncg.reps[i]) for i in self.support(a, h))


@lru_cache(maxsize=None)
def sqrt_support_engine(Delta: int) -> SqrtSupport:
    return SqrtSupport(field(Delta))
