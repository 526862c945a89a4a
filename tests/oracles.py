"""Oracles that only the tests call: the ideal route through the narrow class
group and factor_ideal, and one factorisation of Nm(mu0) per element.

The ideal route reads chi off the class group (class_chi), rho off
factor_ideal (class_rho) and d0 off a search of G_Delta (d0_by_search), so it
shares no code with the local rule of hgreen.finquad (prime_character,
rho_factor) that the package runs.
"""

from math import gcd

from hgreen.factor import _entry
from hgreen.finquad import GDelta, GenusChar, prime_character, ramified_product, rho_factor
from hgreen.qfield import (
    FieldElem,
    FracIdeal,
    InvalidInputError,
    _ord,
    factorint,
    field,
    kronecker,
)


def ideal_divisors(F, I: FracIdeal):
    """All integral ideals containing the integral ideal I (its divisors)."""
    fact = F.factor_ideal(I)
    out = [F.O_F()]
    for pr, e in fact:
        powers = [pr ** i for i in range(e + 1)]
        out = [J * q for J in out for q in powers]
    return out


def class_chi(chi: GenusChar, I: FracIdeal) -> int:
    """chi([I]) = kronecker(Delta1, Nm(rep)) at the representative of the
    narrow class of I, whose norm is prime to Delta."""
    ncg = chi.F.narrow_class_group()
    n = ncg.reps[ncg.resolve(I)].norm()
    if n.denominator != 1 or gcd(int(n), chi.Delta) != 1:
        raise RuntimeError(f"class representative of {I} has norm {n}")
    return kronecker(chi.Delta1, int(n))


def class_rho(chi: GenusChar, I: FracIdeal) -> int:
    """rho_{K/F}(I) from factor_ideal and class_chi: a prime power l^e
    contributes e+1 when chi(l) = +1 and 1 or 0 (e even / odd) when chi(l) = -1."""
    F = chi.F
    if not I.is_integral():
        raise InvalidInputError("class_rho needs an integral ideal")
    out = 1
    for pr, e in F.factor_ideal(I):
        c = class_chi(chi, pr)
        if c == 1:
            out *= e + 1
        else:
            if e % 2 == 1:
                return 0
    return out


def d0_by_search(Delta: int) -> int:
    """The unique d != 1 in G_Delta whose ramified product d_d is narrowly
    principal, by a search of G_Delta in the narrow class group."""
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


def integer_exponent_vector(mu0: FieldElem, chi: GenusChar) -> dict:
    """{(l, b): rho((mu0) l)(1 + ord_l(mu0))} over split chi = -1 primes l | (mu0).

    The same vector as rho_exponent_vector, from mu0 = u + v*omega and one
    factorisation of Nm = |Nm(mu0)|, with integers only.  rho((mu0) l) = 0
    unless l lies over the one p where the factor of rho((mu0)) (rho_factor)
    is 0; then the entry is _entry's.  The sieve (_slice_entries) reads the
    same rule without factorint.
    """
    uv = mu0.integral_uv()
    if uv is None or mu0.is_zero():
        raise InvalidInputError("integer_exponent_vector needs integral mu0 != 0")
    u, v = uv
    c = gcd(u, v)
    r, zero = 1, None
    for p, e in factorint(abs(u * u + chi.Delta * u * v + chi.F.psi * v * v)).items():
        kind, x = prime_character(chi, p)
        f = rho_factor(kind, x, e, _ord(c, p))
        if f:
            r *= f
        elif zero or kind != 1:
            return {}
        else:
            zero = p, e
    entry = zero and _entry(chi.Delta, u, v, r, *zero, _ord(c, zero[0]))
    return dict([entry]) if entry else {}


def _prime_key(pr: FracIdeal):
    """Stable key for a prime ideal: (rational prime, hnf b, inert flag).

    Inert primes all share the HNF shape p*[1, 0], so the bare (a, b) pair
    would collide across them; the rational prime disambiguates.
    """
    if pr.a == 1:                # inert: norm p^2, scale p
        return (pr.num, 0, "inert")
    return (pr.a, pr.b)          # split or ramified: scale 1, norm a


def alt_exponent_check(mu0: FieldElem, chi: GenusChar) -> dict:
    """Exponent vector of prod over integral divisors a | (mu0) of a^{chi(a)}.

    Returns {prime key: integer exponent}; equals -1/2 times the rho-weighted
    vector  l^{rho((mu0) l)(1 + ord_l((mu0)))}  at split primes with
    chi(l) = -1 (checked in tests).
    """
    if not mu0.is_integral() or mu0.is_zero():
        raise InvalidInputError("alt_exponent_check needs integral mu0 != 0")
    F = chi.F
    I = FracIdeal.from_generators(F.D, [mu0])
    out = {}
    for J in ideal_divisors(F, I):
        c = class_chi(chi, J)
        for pr, e in F.factor_ideal(J):
            key = _prime_key(pr)
            out[key] = out.get(key, 0) + c * e
    return {k: v for k, v in out.items() if v}


def rho_exponent_vector(mu0: FieldElem, chi: GenusChar) -> dict:
    """{prime key: rho((mu0) l)(1 + ord_l((mu0)))} over split chi = -1 primes l | (mu0)."""
    F = chi.F
    I = FracIdeal.from_generators(F.D, [mu0])
    out = {}
    for pr, e in F.factor_ideal(I):
        if pr.a > 1 and class_chi(chi, pr) == -1 and pr != pr.conj():
            rho = class_rho(chi, I * pr)
            if rho:
                out[_prime_key(pr)] = rho * (1 + e)
    return out
