import random
from fractions import Fraction

import pytest

from hgreen.qfield import field
from hgreen.finquad import FQM, genus_characters
from hgreen.properties import counting_oracle, route_equality
from hgreen.thetacoef import (
    C_chi,
    c_lattice,
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
    checks, failures = route_equality((D,), 29)
    assert checks == 29 * D and failures == []


def test_route_equality_161_sampled():
    checks, failures = route_equality((161,), 40, random.Random(1), h_samples=7)
    assert checks == 280 and failures == []


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
    checks, failures = counting_oracle((D,), 30, random.Random(D * 17))
    assert checks >= 30 and failures == []


def test_counting_identity_unit():
    # mu0 = 1: C_chi = 2 rho(O_F) = 2 for odd chi
    for D in (12, 28, 161):
        F = field(D)
        chi = genus_characters(D, odd_only=True)[0]
        assert C_chi(chi, F.one) == 2
