"""The finite quadratic module A_Delta = d^{-1}/O_F and genus theory.

A_Delta is identified with Z/(Delta/gcd(Delta,2)) x Z/gcd(Delta,2) via
(a + b*omega)/sqrt(Delta) |-> (a, b).  The Galois involution acts as h -> -h,
and for every prime p | Delta there is an order-2 automorphism sigma_p acting
on the p-part.  Genus characters chi_{Delta1,Delta2} of the narrow class group
are evaluated through prime representatives of coprime norm, and rho_{K/F}
counts ideals of the quadratic extension K cut out by chi with a given
relative norm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .qfield import (
    FieldElem,
    FracIdeal,
    InvalidInputError,
    QuadField,
    _xgcd,
    factorint,
    field,
    ideal_divisors,
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

    def mul_elem(self, alpha: FieldElem, h):
        """Module action of an integral field element: class of alpha * lift(h)."""
        if not alpha.is_integral():
            raise ValueError("module action needs an integral multiplier")
        return self.from_elem(self.lift(h) * alpha)

    def elements(self):
        for a in range(self.mod1):
            for b in range(self.mod2):
                yield (a, b)

    def lift(self, h) -> FieldElem:
        """The representative (a + b*omega)/sqrt(Delta) in d^{-1}."""
        F = self.F
        return F.from_uv(h[0], h[1]) / F.sqrtD

    def from_elem(self, e: FieldElem):
        """Class of e in d^{-1}/O_F; e must lie in d^{-1}."""
        w = e * self.F.sqrtD
        u, v = w.uv()
        if u.denominator != 1 or v.denominator != 1:
            raise ValueError("element is not in the inverse different")
        return self.elem(int(u), int(v))

    def Q(self, h) -> Fraction:
        """Q(h) = Nm(lift) mod 1, valued in [0, 1)."""
        q = self.lift(h).norm()
        return q - (q.numerator // q.denominator)

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

    def mul(self, d1: int, d2: int) -> int:
        g = gcd(d1, d2)
        return d1 * d2 // (g * g)

    def full(self) -> int:
        """The full-support element; always equals Delta."""
        return self.from_support(self.primes)

    def delta0_elem(self) -> int:
        """sigma_{Delta0} as a G_Delta element (acts as h -> -h on A_Delta)."""
        D0 = self.F.Delta0
        if D0 % 2 == 1 and self.F.D % 2 == 0:
            return self.from_support(sorted(factorint(D0)))
        return self.full()

    def divides(self, d1: int, d2: int) -> bool:
        return d2 % d1 == 0


def d_of(fqm: FQM, h) -> int:
    """d(h): the G_Delta element whose support is {p : sigma_p(h) = h}."""
    gd = GDelta(fqm.F)
    sup = [p for p in gd.primes if fqm.sigma_p(h, p) == h]
    return gd.from_support(sup)


def stabilizer(fqm: FQM, h):
    """All d in G_Delta with sigma_d(h) = h (equals divisors of d(h))."""
    gd = GDelta(fqm.F)
    return [d for d in gd.elements() if fqm.sigma_d(h, d) == h]


@lru_cache(maxsize=None)
def d0(Delta: int) -> int:
    """The unique d != 1 in G_Delta whose ramified product d_d is narrowly principal.

    Equals Delta exactly when Nm(eps_F) = -1.
    """
    F = field(Delta)
    gd = GDelta(F)
    ncg = F.narrow_class_group()
    hits = []
    for d in gd.elements():
        if d == 1:
            continue
        if ncg.is_narrow_principal(ramified_product(F, d)):
            hits.append(d)
    if len(hits) != 1:
        raise RuntimeError(f"d0 not unique for Delta={Delta}: {hits}")
    if F.unit_norm() == -1 and hits[0] != gd.full():
        raise RuntimeError(
            f"Nm(eps_F) = -1 but d0 = {hits[0]} is not Delta = {gd.full()}"
        )
    return hits[0]


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
    gd = GDelta(fqm.F)
    dh = d_of(fqm, h)
    D0 = gd.delta0_elem()
    if gd.divides(D0, dh):
        return 0
    if gd.divides(d0(fqm.F.D), dh):
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
        self._class_values = None

    def __repr__(self):
        return f"chi({self.Delta1},{self.Delta2})"

    def __eq__(self, o):
        return isinstance(o, GenusChar) and {self.Delta1, self.Delta2} == {o.Delta1, o.Delta2}

    def __hash__(self):
        return hash((self.Delta, min(self.Delta1, self.Delta2)))

    def class_values(self):
        """chi on each narrow class, via the coprime-norm representatives."""
        if self._class_values is None:
            ncg = self.F.narrow_class_group()
            vals = []
            for rep in ncg.reps:
                n = rep.norm()
                if n.denominator != 1 or gcd(int(n), self.Delta) != 1:
                    raise RuntimeError(
                        f"class representative {rep} has norm {n}, not an integer "
                        f"coprime to Delta = {self.Delta}"
                    )
                vals.append(kronecker(self.Delta1, int(n)))
            self._class_values = vals
        return self._class_values

    def on_class_index(self, i: int) -> int:
        return self.class_values()[i]

    def __call__(self, I: FracIdeal) -> int:
        """chi([I]): direct Kronecker when Nm(I) is coprime to Delta, else via
        the prime representative of the narrow class (Chebotarev search)."""
        n = I.norm()
        num = n.numerator * n.denominator  # class is insensitive to Q-scaling
        if gcd(num, self.Delta) == 1:
            return kronecker(self.Delta1, num)
        return self.on_class_index(self.F.narrow_class_group().resolve(I))


def genus_characters(Delta: int, odd_only: bool = False):
    """All genus characters of Q(sqrt(Delta)), one per unordered splitting."""
    F = field(Delta)
    gd = GDelta(F)
    seen = set()
    out = []
    for d in gd.elements():
        cands = []
        for s in (d, -d):
            if s == 1 or is_fundamental_discriminant(s):
                # the complementary factor must also be fundamental (or 1)
                t = Delta // s if Delta % s == 0 else None
                if t is None:
                    continue
                if t == 1 or is_fundamental_discriminant(t):
                    cands.append((s, t))
        for (s, t) in cands:
            key = frozenset((s, t))
            if key in seen:
                continue
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
    1 or 0 (e even / odd) when chi(l) = -1.
    """
    F = chi.F
    if not I.is_integral():
        raise InvalidInputError("rho_KF needs an integral ideal")
    out = 1
    for pr, e in F.factor_ideal(I):
        c = chi(pr)
        if c == 1:
            out *= e + 1
        else:
            if e % 2 == 1:
                return 0
    return out


def sigma_chi_divisor_sum(chi: GenusChar, I: FracIdeal) -> int:
    """Oracle route: sigma_chi(I) = sum of chi(b) over divisors b of I."""
    F = chi.F
    return sum(chi(J) for J in ideal_divisors(F, I))


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
            J = a * b * b * FracIdeal(self.F.D, Fraction(1, nb), 1, 0)
            out = []
            for mu in self.F.positive_generators_mod_epsD(J):
                beta = mu * nb
                hmu = self.fqm.smul(nb_inv, self.fqm.from_elem(beta / self.F.sqrtD))
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
        return sum(chi.on_class_index(i) for i in self.support(a, h))


@lru_cache(maxsize=None)
def sqrt_support_engine(Delta: int) -> SqrtSupport:
    return SqrtSupport(field(Delta))
