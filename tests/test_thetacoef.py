import json
import random
from fractions import Fraction

import pytest

from hgreen.qfield import FracIdeal, field
from hgreen.finquad import FQM, genus_characters, rho_KF
from hgreen.thetacoef import (
    C_chi,
    c_lattice,
    coefficient_table_json,
    ideal_route,
    lattice_route,
    solve_norm_in_coset,
)


def test_c_lattice_no_solutions_gives_zero():
    F = field(12)
    # Nm(a)*m = 1/5 has no lattice points in O_F + 0 coset scaled this way
    assert c_lattice(F, F.O_F(), Fraction(1, 5), F.elem(0)) == 0


def test_c_lattice_rejects_nonpositive_index():
    F = field(12)
    with pytest.raises(Exception):
        c_lattice(F, F.O_F(), Fraction(-1), F.elem(0))


@pytest.mark.parametrize("D", [12, 21, 28])
def test_c_lattice_antisymmetry(D):
    F = field(D)
    fqm = FQM(F)
    dd = F.different().inverse()
    for h in fqm.elements():
        lift = fqm.lift(h)
        for n in range(1, 15):
            m = Fraction(n, D)
            plus = c_lattice(F, F.O_F(), m, lift)
            minus = c_lattice(F, F.O_F(), m, -lift)
            assert plus == -minus
            if fqm.neg(h) == h:
                assert plus == 0


def test_minus_form_matches_class_zero_count():
    # the trivial-class lambda-count of theta_chi is the minus-form coefficient
    from hgreen.thetacoef import _minus_coeff
    for D in (12, 21, 28):
        F = field(D)
        fqm = FQM(F)
        counts = lattice_route(D).class_sweep(0, 15)
        assert counts
        assert all(1 <= n <= 15 for n, _ in counts)
        for n in range(1, 16):
            for h in fqm.elements():
                direct = _minus_coeff(F, F.O_F(), Fraction(n, D), fqm.lift(h))
                assert counts.get((n, h), 0) == direct


def test_solve_norm_box_doubling_stable():
    # enlarging the search window never changes the solution set
    F = field(28)
    fqm = FQM(F)
    for h in list(fqm.elements())[:8]:
        for n in (1, 2, 3, 5, 8):
            base = solve_norm_in_coset(F, F.different(),
                                       fqm.lift(h) * F.sqrtD, Fraction(n))
            wide = solve_norm_in_coset(F, F.different(),
                                       fqm.lift(h) * F.sqrtD, Fraction(n),
                                       window_margin=40)
            assert sorted((s.x, s.y) for s in base) == \
                   sorted((s.x, s.y) for s in wide)


@pytest.mark.parametrize("D", [12, 21, 28])
def test_route_equality_small(D):
    fqm = FQM(field(D))
    chi = genus_characters(D, odd_only=True)[0]
    lr, ir = lattice_route(D), ideal_route(D)
    for n in range(1, 30):
        for h in fqm.elements():
            assert lr.c_chi(chi, n, h) == ir.c_chi(chi, n, h)


def test_route_equality_161_sampled():
    D = 161
    fqm = FQM(field(D))
    chi = genus_characters(D, odd_only=True)[0]
    lr, ir = lattice_route(D), ideal_route(D)
    rng = random.Random(1)
    hs = list(fqm.elements())
    for _ in range(250):
        n = rng.randint(1, 40)
        h = rng.choice(hs)
        assert lr.c_chi(chi, n, h) == ir.c_chi(chi, n, h)


@pytest.mark.parametrize("D", [12, 28])
def test_even_character_vanishes(D):
    fqm = FQM(field(D))
    chi_even = [c for c in genus_characters(D) if not c.odd][0]
    lr = lattice_route(D)
    assert all(
        lr.c_chi(chi_even, n, h) == 0
        for n in range(1, 20) for h in fqm.elements()
    )
    assert all(
        ideal_route(D).c_chi(chi_even, n, h) == 0
        for n in range(1, 20) for h in fqm.elements()
    )


@pytest.mark.parametrize("D", [12, 28])
def test_conjugation_antisymmetry_c_chi(D):
    fqm = FQM(field(D))
    chi = genus_characters(D, odd_only=True)[0]
    lr = lattice_route(D)
    for n in range(1, 25):
        for h in fqm.elements():
            assert lr.c_chi(chi, n, h) == -lr.c_chi(chi, n, fqm.neg(h))


def test_table_grows_to_match_fresh_sweep():
    # c_chi answers from a cached sweep; asking past its bound rebuilds it
    from hgreen.thetacoef import LatticeRoute
    D = 161
    fqm = FQM(field(D))
    chi = genus_characters(D, odd_only=True)[0]
    lr = LatticeRoute(D)
    hs = list(fqm.elements())
    first = {(n, h): lr.c_chi(chi, n, h) for n in range(1, 16) for h in hs}
    assert 15 <= lr._tables[chi][0] < 40
    grown = {(n, h): lr.c_chi(chi, n, h) for n in range(1, 41) for h in hs}
    assert lr._tables[chi][0] >= 40
    fresh = LatticeRoute(D).c_chi_table(chi, 40)
    assert fresh  # nonzero coefficients exist
    assert {k: c for k, c in grown.items() if c} == fresh
    assert all(grown[k] == c for k, c in first.items())


def test_independence_of_representatives():
    # replacing S_F by other prime representatives leaves theta_chi unchanged
    D = 28
    F = field(D)
    ncg = F.narrow_class_group()
    chi = genus_characters(D, odd_only=True)[0]
    default = lattice_route(D)
    # find alternative representatives: larger split primes in each class
    from sympy import primerange
    alt = [None] * ncg.h_plus
    for p in primerange(30, 400):
        from hgreen.qfield import kronecker
        if kronecker(D, int(p)) != 1:
            continue
        for pr in F.primes_above(int(p)):
            i = ncg.resolve(pr)
            if alt[i] is None:
                alt[i] = pr
        if all(a is not None for a in alt):
            break
    from hgreen.thetacoef import LatticeRoute
    other = LatticeRoute(D, reps=alt)
    fqm = FQM(F)
    for n in range(1, 20):
        for h in fqm.elements():
            assert default.c_chi(chi, n, h) == other.c_chi(chi, n, h)


@pytest.mark.parametrize("D", [12, 21, 28, 161])
def test_counting_identity_random(D):
    rng = random.Random(D * 17)
    F = field(D)
    chis = genus_characters(D, odd_only=True)
    done = 0
    while done < 30:
        mu = F.from_uv(rng.randint(-60, 60), rng.randint(0, 3))
        if mu.is_zero():
            continue
        if not mu.is_totally_positive():
            mu = -mu
        if not mu.is_totally_positive() or not (0 < mu.norm() <= 300):
            continue
        I = FracIdeal.from_generators(D, [mu])
        for chi in chis:
            assert C_chi(chi, mu) == 2 * rho_KF(chi, I)
        done += 1


def test_counting_identity_unit():
    # mu0 = 1: C_chi = 2 rho(O_F) = 2 for odd chi
    for D in (12, 28, 161):
        F = field(D)
        chi = genus_characters(D, odd_only=True)[0]
        assert C_chi(chi, F.one) == 2


def test_json_export_schema():
    chi = genus_characters(12, odd_only=True)[0]
    doc = json.loads(coefficient_table_json(chi, 10))
    assert doc["Delta"] == 12
    assert sorted(doc["chi"]) == [-4, -3]
    assert doc["n_max"] == 10
    assert doc["entries"]
    for e in doc["entries"]:
        assert set(e) == {"n", "h", "c"}
        assert lattice_route(12).c_chi(chi, e["n"], tuple(e["h"])) == e["c"]
