import ast
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hgreen.qfield import (
    FracIdeal,
    InvalidInputError,
    QuadField,
    _is_reduced,
    factorint,
    field,
    is_fundamental_discriminant,
    isprime,
    kronecker,
    primes_upto,
    rho_walk,
    sqrt_mod,
)


FUNDAMENTALS_SMALL = [D for D in range(5, 200) if is_fundamental_discriminant(D)]


def brute_force_unit(D, ymax=10 ** 5):
    """Smallest unit > 1 of O_F: first Y with X^2 - D Y^2 = +-4 solvable.

    Units are (X + Y sqrt(D))/2 with X = D*Y mod 2; for fixed Y the unit value
    is increasing in X and across Y, so the first hit is the fundamental unit.
    """
    from math import isqrt
    from fractions import Fraction
    F = field(D)
    for Y in range(1, ymax):
        base = D * Y * Y
        for off in (-4, 4):
            X2 = base + off
            if X2 <= 0:
                continue
            X = isqrt(X2)
            if X * X == X2 and (X - D * Y) % 2 == 0:
                return F.elem(Fraction(X, 2), Fraction(Y, 2))
    return None


@pytest.mark.parametrize("D,x,y", [
    (161, 11775, 928),
    (5, Fraction(1, 2), Fraction(1, 2)),
    (28, 8, Fraction(3, 2)),   # 8 + 3 sqrt7
])
def test_fundamental_unit_examples(D, x, y):
    eps = field(D).fundamental_unit()
    assert eps == field(D).elem(x, y)


@pytest.mark.parametrize("D", [5, 8, 12, 13, 17, 21, 24, 28, 33, 40, 44, 53, 56, 61])
def test_fundamental_unit_minimal(D):
    # bounded brute-force Pell search confirms minimality
    eps = field(D).fundamental_unit()
    assert abs(eps.norm()) == 1 and eps > field(D).one
    bf = brute_force_unit(D)
    if bf is not None:
        assert eps == bf


def test_fundamental_unit_matches_sympy_pell_below_5000():
    # eps_F = (x + y sqrt(Delta))/2 for the least positive solution of
    # x^2 - Delta y^2 = +-4: sympy's fundamental solutions of each class of
    # +-4, and twice those of +1 for a unit in Z[sqrt(Delta)] of norm +1
    from sympy.solvers.diophantine.diophantine import diop_DN
    for D in range(5, 5000):
        if not is_fundamental_discriminant(D):
            continue
        sols = [(abs(x), abs(y)) for N in (4, -4) for x, y in diop_DN(D, N)]
        sols += [(2 * x, 2 * y) for x, y in diop_DN(D, 1)]
        y, x = min((y, x) for x, y in sols if y > 0)
        F = QuadField(D)
        assert F.fundamental_unit() == F.elem(Fraction(x, 2), Fraction(y, 2)), D


def test_eps_plus_and_eps_delta():
    F = field(28)
    assert F.eps_plus() == F.fundamental_unit()          # norm +1
    F5 = field(5)
    eps = F5.fundamental_unit()
    assert F5.eps_plus() == eps * eps                    # norm -1
    assert F5.eps_Delta() == (F5.eps_plus()) ** 2


def test_nonfundamental_rejected():
    for D in (1, 4, 9, 12 * 4, 45, 100):
        with pytest.raises(InvalidInputError):
            field(D)


def test_kronecker_examples():
    assert kronecker(7, 1) == 1
    assert kronecker(-7, 5) == -1      # 3 is not a square mod 5
    assert kronecker(161, 19) == 1     # 161 = 9 mod 19, a square
    # brute-force cross-check against squares mod odd primes
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            want = 1 if a in squares else -1
            assert kronecker(a, p) == want


@pytest.mark.parametrize("D", [5, 12, 28, 161])
def test_splitting_matches_kronecker(D):
    from sympy import primerange
    F = field(D)
    for p in primerange(2, 1000):
        k = kronecker(D, p)
        typ = F.splitting(int(p))
        assert typ == {1: "split", -1: "inert", 0: "ramified"}[k]
        prs = F.primes_above(int(p))
        if typ == "split":
            assert len(prs) == 2 and all(pr.norm() == p for pr in prs)
            assert prs[0].conj() == prs[1]
        elif typ == "ramified":
            assert prs[0].norm() == p
            assert prs[0] * prs[0] == FracIdeal.from_generators(D, [F.elem(p)])
        else:
            assert prs[0].norm() == p * p


def test_splitting_examples():
    F = field(161)
    assert F.splitting(5) == "split"
    pi5 = F.elem(38, 3)
    assert any(P.contains(pi5) for P in F.primes_above(5))
    assert F.splitting(7) == "ramified"
    assert field(5).splitting(7) == "inert"  # 5 is not a square mod 7


@pytest.mark.parametrize("D", [12, 28, 161])
def test_ideal_norm_multiplicative(D):
    rng = random.Random(D)
    F = field(D)
    pool = []
    for n in range(2, 40):
        pool.extend(F.ideals_of_norm(n))
    for _ in range(60):
        I = rng.choice(pool)
        J = rng.choice(pool)
        assert (I * J).norm() == I.norm() * J.norm()
        assert I * I.conj() == FracIdeal.from_generators(D, [F.elem(I.norm())])


@pytest.mark.parametrize("D", [5, 12, 28, 161])
def test_ideal_inverse_and_membership(D):
    F = field(D)
    rng = random.Random(D + 1)
    for n in range(2, 25):
        for I in F.ideals_of_norm(n):
            assert (I * I.inverse()) == F.O_F()
            sa, sb = I.basis()
            assert I.contains(sa) and I.contains(sb)
            assert I.contains(sa * F.omega + sb * 3)


@pytest.mark.parametrize("D", [5, 8, 12, 13, 21, 28, 60, 161, 485])
def test_integer_ideal_arithmetic_matches_generator_route(D):
    # products, conjugates and integrality on HNF rows agree with the ideal
    # generated by the field-element products of the two Z-bases
    F = field(D)
    pool = [I for n in range(1, 40) for I in F.ideals_of_norm(n)]
    for J in pool:
        J3 = FracIdeal(D, J.s * Fraction(2, 3), J.a, J.b)
        for K in (J, J3):
            assert K.conj() == FracIdeal.from_generators(D, [x.conj() for x in K.basis()])
            assert K.is_integral() == all(x.is_integral() for x in K.basis())
        for I in pool:
            want = FracIdeal.from_generators(D, [x * y for x in I.basis() for y in J3.basis()])
            assert I * J3 == want


def test_non_ideal_module_is_rejected():
    # [2, omega] at Delta = 5: omega^2 = 5 omega - 5 leaves the module
    with pytest.raises(ValueError, match="omega-stable"):
        FracIdeal.from_hnf_rows(5, [(2, 0), (0, 1)])


def test_ideals_of_norm_completeness():
    # every integral element's ideal shows up with the right norm
    F = field(28)
    rng = random.Random(3)
    for _ in range(40):
        e = F.from_uv(rng.randint(-15, 15), rng.randint(-3, 3))
        if e.is_zero():
            continue
        n = abs(e.norm())
        I = FracIdeal.from_generators(28, [e])
        assert I in F.ideals_of_norm(int(n))


@pytest.mark.parametrize("D,hplus", [(5, 1), (8, 1), (12, 2), (21, 2), (28, 2), (161, 2), (40, 2), (60, 4)])
def test_narrow_class_numbers(D, hplus):
    assert field(D).narrow_class_group().h_plus == hplus


def test_narrow_class_numbers_analytic_oracle():
    # Dirichlet class number formula: h+ = -sum_a (D/a) log sin(pi a / D) / log eps+,
    # an oracle fully independent of the reduction-cycle machinery
    import math
    import mpmath
    for D in [d for d in range(5, 320) if is_fundamental_discriminant(d)]:
        F = field(D)
        with mpmath.mp.workdps(30):
            s = mpmath.mpf(0)
            for a in range(1, D):
                ka = kronecker(D, a)
                if ka:
                    s -= ka * mpmath.log(mpmath.sin(mpmath.pi * a / D))
            ep = F.eps_plus()
            log_ep = mpmath.log(
                mpmath.mpf(ep.x.numerator) / ep.x.denominator
                + mpmath.mpf(ep.y.numerator) / ep.y.denominator * mpmath.sqrt(D)
            )
            h_analytic = s / log_ep
        h_plus = F.narrow_class_group().h_plus
        assert abs(h_analytic - h_plus) < 1e-8, (D, h_plus, float(h_analytic))


def test_cyclic_class_group_order_three():
    # Delta = 229: narrow class group of odd order 3 (Nm eps = -1)
    ncg = field(229).narrow_class_group()
    assert ncg.h_plus == 3
    t = ncg.multiplication_table()
    assert t[1][1] == 2 and t[1][2] == 0 and ncg.inverse(1) == 2


@pytest.mark.parametrize("D", [12, 28, 161, 60])
def test_narrow_class_group_structure(D):
    ncg = field(D).narrow_class_group()
    n = ncg.h_plus
    table = ncg.multiplication_table()
    assert len(ncg.reps) == n and all(r is not None for r in ncg.reps)
    # identity row/column, inverses exist
    assert table[0] == list(range(n))
    for i in range(n):
        assert ncg.inverse(i) in range(n)
        assert table[i][ncg.inverse(i)] == 0
    # representatives coprime to the different
    from math import gcd
    for r in ncg.reps:
        assert gcd(int(r.norm()), D) == 1


def test_reduction_layer_digest():
    # h+, the class keys in order, the representatives, eps_F and, for every
    # prime ideal P above p < 60 and e <= 3, generator_of(P^e) and the class
    # of P^e, over the fundamental Delta < 1000: pinned by a digest of what
    # the continued-fraction unit and the separate reduction, cycle and
    # generator walks gave before the one rho-walk replaced them
    h = hashlib.sha256()
    primes = list(primes_upto(59))
    for D in range(5, 1000):
        if not is_fundamental_discriminant(D):
            continue
        F = QuadField(D)
        ncg = F.narrow_class_group()
        rows = [D, ncg.h_plus, sorted(ncg.key_index, key=ncg.key_index.get),
                [repr(r) for r in ncg.reps], repr(F.fundamental_unit())]
        for p in primes:
            for P in F.primes_above(p):
                for e in (1, 2, 3):
                    I = P ** e
                    rows.append([repr(I), repr(F.generator_of(I)), ncg.resolve(I)])
        h.update(json.dumps(rows).encode())
    assert h.hexdigest() == "c0ae9b2233b2b08ae9a0a830b29f0dfc1529ae2e1f8990533f2a4bb861a3301b"


@pytest.mark.parametrize("D", [5, 13, 161, 229, 999996])
def test_rho_walk_reduces_then_closes_its_cycle(D):
    # from a non-reduced form the walk passes the reduced forms only once it
    # has met the first one, goes once round that cycle and stops on it; each
    # step is rho, with delta = (r + B)/(2C)
    F = QuadField(D)
    for I in (F.O_F(), *F.primes_above(max(primes_upto(10 ** 4))), F.prime_above(2) ** 5):
        steps = list(rho_walk(I.form(), D))
        forms = [f for f, _ in steps]
        i = forms.index(forms[-1])
        assert not any(_is_reduced(f, D) for f in forms[:i])
        assert all(_is_reduced(f, D) for f in forms[i:])
        assert len(set(forms[i:-1])) == len(forms) - 1 - i
        for ((A, B, C), delta), (A2, B2, C2) in zip(steps, forms[1:]):
            assert (A2, B2 * B2 - 4 * A2 * C2) == (C, B * B - 4 * A * C)
            assert B2 == 2 * C * delta - B


@pytest.mark.parametrize("D", [12, 28, 161])
def test_resolver_tp_scaling_invariance(D):
    rng = random.Random(D + 7)
    F = field(D)
    ncg = F.narrow_class_group()
    pool = [I for n in range(2, 30) for I in F.ideals_of_norm(n)]
    for _ in range(25):
        I = rng.choice(pool)
        mu = F.from_uv(rng.randint(1, 25), rng.randint(0, 3))
        if mu.is_zero():
            continue
        mu = mu * mu  # totally positive
        if mu.is_zero():
            continue
        assert ncg.resolve(I) == ncg.resolve(I * FracIdeal.from_generators(D, [mu]))


def test_field_elem_arithmetic():
    F = field(161)
    a = F.elem(Fraction(3, 2), Fraction(-1, 4))
    b = F.elem(2, 5)
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b).norm() == a.norm() * b.norm()
    assert a.conj().conj() == a
    assert (a * a.inverse()) == F.one
    assert a.trace() == 2 * a.x
    # exact signs
    assert F.elem(-1, Fraction(1, 12)).sign() == 1   # sqrt(161)/12 > 1
    assert F.elem(-2, Fraction(1, 12)).sign() == -1
    assert F.sqrtD.is_totally_positive() is False
    assert (F.fundamental_unit()).is_totally_positive()  # norm +1 here


def test_field_elem_hash_agrees_with_eq():
    F = field(21)
    assert F.elem(3, 0) == 3
    assert {3: "x"}.get(F.elem(3, 0)) == "x"
    assert {Fraction(-5, 7): "y"}.get(F.elem(Fraction(-5, 7))) == "y"
    assert hash(F.elem(0)) == hash(0)
    assert F.elem(3, 0) in {3} and 3 in {F.elem(3, 0)}
    # irrational elements keep their hash
    e = F.elem(Fraction(1, 2), Fraction(-3, 2))
    assert hash(e) == hash((21, Fraction(1, 2), Fraction(-3, 2)))


def test_field_elem_refuses_floats():
    F = field(21)
    e = F.elem(1, 0)
    for make in (lambda: F.elem(0.1), lambda: F.elem(1, 0.5),
                 lambda: F.from_uv(0.5, 1), lambda: F.from_uv(1, 2.0),
                 lambda: e * 0.1, lambda: 0.1 * e, lambda: e + 0.5,
                 lambda: 0.5 - e, lambda: e / 2.0, lambda: e < 0.5):
        with pytest.raises(TypeError):
            make()


# ---------------------------------------------------------------------------
# integer helpers, with sympy as the independent oracle
# ---------------------------------------------------------------------------

def test_factorint_matches_sympy():
    import sympy
    rng = random.Random(2203)
    draws = [rng.randrange(1, 10 ** 13) for _ in range(3000)]
    near = list(sympy.primerange(10 ** 6, 10 ** 6 + 1000))
    squares = [p * p for p in near] + [997 ** 2, 1009 ** 2, 1009 ** 3]
    semiprimes = [p * q for p, q in zip(near, near[1:])] + [997 * 1009]
    for n in draws + squares + semiprimes + [1, 2, 2 ** 40, 3 ** 25]:
        got = factorint(n)
        assert got == sympy.factorint(n), n
        assert list(got) == sorted(got)


def test_isprime_and_primes_upto_match_sympy():
    import sympy
    from bisect import bisect_right
    primes = list(sympy.primerange(0, 2 * 10 ** 5 + 100))
    prime_set = set(primes)
    for n in range(2 * 10 ** 5):
        assert isprime(n) == (n in prime_set), n
    assert list(primes_upto(2 * 10 ** 5 + 99)) == primes
    for n in range(200):
        assert list(primes_upto(n)) == primes[:bisect_right(primes, n)], n
    # a lower bound: the primes lo < p <= n
    for lo in range(-2, 120):
        for n in (lo, lo + 1, lo + 2, lo + 37, 10149, 2 * 10 ** 5 + 99):
            want = primes[bisect_right(primes, lo):bisect_right(primes, n)]
            assert list(primes_upto(n, lo)) == want, (lo, n)


def test_sqrt_mod_on_every_residue():
    # every square class for primes below 2000, including the p = 1 mod 8
    # primes where Tonelli-Shanks iterates; the smaller root is returned
    import sympy
    assert sqrt_mod(0, 2) == 0 and sqrt_mod(1, 2) == 1 and sqrt_mod(3, 2) == 1
    for p in sympy.primerange(3, 2000):
        for x in range(1, (p + 1) // 2):
            assert sqrt_mod(x * x % p, p) == min(x, p - x), (x, p)
        nonresidue = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) != 1)
        assert sqrt_mod(nonresidue, p) is None


def test_sqrt_mod_brute_force_below_3000():
    # every prime below 3000 and every residue, against the table of squares:
    # the smaller root, or None for a non-square, on each branch (p = 3 mod 4,
    # 5 mod 8 by Atkin's formula, 1 mod 8 by Tonelli-Shanks)
    import sympy
    for p in sympy.primerange(2, 3000):
        want = [None] * p
        for r in range((p + 1) // 2 + 1):
            a = r * r % p
            if want[a] is None:
                want[a] = r
        assert [sqrt_mod(a, p) for a in range(p)] == want, p


def test_sqrt_mod_matches_sympy_below_2e4():
    import sympy
    rng = random.Random(17)
    for p in sympy.primerange(2000, 2 * 10 ** 4):
        for _ in range(10):
            a = rng.randrange(p)
            assert sqrt_mod(a, p) == sympy.sqrt_mod(a, p), (a, p)


@pytest.mark.parametrize("D", [5, 12, 13, 21, 28, 161])
def test_unit_orbit_rep_window_and_invariance(D):
    """Each caller's unit and window: output inside it, unit-shift invariant."""
    F = field(D)
    eps, ep, epsD = F.fundamental_unit(), F.eps_plus(), F.eps_Delta()
    # (unit, lo, top of the window each caller relies on)
    windows = [
        (epsD, F.one, epsD * epsD),          # theta coefficient orbits
        (ep, F.one, epsD),                   # totally positive generators
        (eps, eps.inverse(), eps),           # reconcile's balanced generators
    ]
    rng = random.Random(D)
    for _ in range(15):
        mu = F.from_uv(rng.randint(-40, 40), rng.randint(1, 5))
        mu = mu * eps ** rng.randint(-3, 3)
        for unit, lo, hi in windows:
            rep = F.unit_orbit_rep(mu, unit, lo)
            ratio = abs(rep / rep.conj())
            assert lo <= ratio < hi
            assert F.unit_orbit_rep(mu * unit, unit, lo) == rep
            assert F.unit_orbit_rep(mu * unit.inverse(), unit, lo) == rep
    # a non-unit, the trivial unit and the zero element have no orbit window
    for mu, bad in ((eps, F.elem(2)), (eps, F.from_uv(1, 1) * eps), (eps, -F.one),
                    (F.elem(0), eps)):
        with pytest.raises(InvalidInputError, match="a unit other than"):
            F.unit_orbit_rep(mu, bad, F.one)


def test_package_has_no_assert_statements():
    # python -O strips assert statements: every runtime check must raise
    src = Path(__file__).resolve().parents[1] / "src" / "hgreen"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
