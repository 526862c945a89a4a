import random
from fractions import Fraction
from math import gcd

import pytest

from hgreen.mforms import (
    MAX_K,
    MAX_PP_INDEX,
    check_principal_part,
    cusp_basis,
    delta_form,
    eisenstein,
    parse_principal_part,
)
from hgreen.qfield import InvalidInputError


def classical_dim(weight):
    if weight < 12 or weight % 2:
        return 0
    return weight // 12 - 1 if weight % 12 == 2 else weight // 12


def mul(f, g):
    n = min(len(f), len(g))
    return [sum(f[i] * g[j - i] for i in range(j + 1)) for j in range(n)]


def test_eisenstein_series():
    e4 = eisenstein(4, 6)
    assert [e4[i] for i in range(4)] == [1, 240, 2160, 6720]
    e6 = eisenstein(6, 4)
    assert [e6[i] for i in range(3)] == [1, -504, -16632]
    with pytest.raises(InvalidInputError):
        eisenstein(3, 5)
    with pytest.raises(InvalidInputError):
        eisenstein(2, 5)


def test_delta_form():
    d = delta_form(8)
    assert [d[i] for i in range(7)] == [0, 1, -24, 252, -1472, 4830, -6048]


def test_classical_identity():
    e4, e6, d = eisenstein(4, 50), eisenstein(6, 50), delta_form(50)
    lhs = [a - b for a, b in zip(mul(mul(e4, e4), e4), mul(e6, e6))]
    assert lhs == [1728 * c for c in d]


def test_tau_multiplicativity():
    d = delta_form(910)
    for m in range(2, 31):
        for n in range(2, 31):
            if gcd(m, n) == 1 and m * n < 910:
                assert d[m] * d[n] == d[m * n]


@pytest.mark.parametrize("weight", range(4, 62, 2))
def test_cusp_dims_and_echelon(weight):
    basis = cusp_basis(weight, 30)
    assert len(basis) == classical_dim(weight)
    for j, g in enumerate(basis, 1):  # g_j = q^j + O(q^(j+1))
        assert g[:j + 1] == [0] * j + [1]
        assert all(type(c) is int for c in g)


def test_cusp_basis_examples():
    assert cusp_basis(8, 20) == []
    b12 = cusp_basis(12, 20)
    assert len(b12) == 1 and b12[0][2] == -24  # Delta itself
    assert len(cusp_basis(24, 20)) == 2


def test_check_principal_part():
    assert check_principal_part(4, {1: Fraction(1)}) is None
    assert check_principal_part(2, {1: Fraction(1)}) is None
    obs = check_principal_part(12, {1: Fraction(1)})
    assert obs == [1, 0]
    with pytest.raises(InvalidInputError):
        check_principal_part(1, {1: Fraction(1)})


# Zero-or-not answers of the echelon-basis check this one replaced, on seeded
# principal parts with index <= 100.  Where S_2k != 0 the unobstructed ones were
# built from a nullspace of that basis, and the first obstructed one is a near
# miss: a nullspace case with one coefficient moved by 1.
OBSTRUCTION_TABLE = [
    (2, {7: -41, 9: "-7/4"}, False),
    (3, {1: 4, 3: -44}, False),
    (4, {2: "-6/5", 3: -13}, False),
    (5, {2: 29, 4: 20}, False),
    (6, {6: -130387, 7: 6048, 9: 6048}, False),
    (6, {6: "4350635/3", 8: 420, 26: 630}, False),
    (6, {44: -4279167, 58: -54832, 94: 54832}, False),
    (6, {3: "484/5", 6: "1/5", 10: "6/5"}, True),
    (6, {19: -42, 23: 13, 27: "-1/4"}, True),
    (6, {3: 32}, True),
    (7, {2: "1/2", 6: 13, 12: "5/3", 23: 35}, False),
    (8, {51: "-5155278946304/5", 64: "-2756287848564/5"}, False),
    (8, {14: -271075005, 27: 2822456}, False),
    (8, {46: -14714075641, 49: -372050496, 88: -372050496}, False),
    (8, {2: 41027573223, 63: 2}, True),
    (8, {1: -3, 3: 29}, True),
    (8, {100: 37}, True),
    (9, {14: 1256416335421, 51: 2765136, 52: 5530272}, False),
    (9, {4: -171600, 8: -2885}, False),
    (9, {3: 1289640, 10: "51/5"}, False),
    (9, {4: 403249, 7: -18463}, True),
    (9, {16: "3/2", 19: "1/6", 62: -40}, True),
    (9, {68: 38, 70: 47, 89: "-9/2"}, True),
    (10, {12: 20424656864227283, 83: 190760256, 90: -63586752}, False),
    (10, {4: -1380266325, 6: 316352, 9: -316352}, False),
    (10, {4: 2114693, 7: -39544}, False),
    (10, {1: 22992256468273, 26: -1}, True),
    (10, {11: "-1/2", 26: 11, 93: -4}, True),
    (10, {84: 32}, True),
    (11, {4: -13715693, 7: 35968}, False),
    (11, {3: -3592818224368, 24: 3579, 26: 3579}, False),
    (11, {3: 115418400, 10: -2386}, False),
    (11, {20: 3058423353135, 45: 2014208, 85: 2014209}, True),
    (11, {4: "1/5", 25: -23}, True),
    (11, {2: -5, 9: -34}, True),
    (12, {
        17: 20737469825182715374501700,
        27: 141983877135805648208795,
        29: -45531524850489752256840,
        30: 22765762425244876128420,
    }, False),
    (12, {1: "273205541630585373333125/2", 20: -146138040, 25: "40159357/2"}, False),
    (12, {
        8: 1540706926604193222637329,
        42: 1096229781504000,
        72: 17122270084003,
    }, False),
    (12, {
        8: -7564431428809276449492870798,
        14: -522395834212213312342400,
        72: -1739123952091848,
        100: -1739123952091848,
    }, True),
    (12, {1: 28, 2: -19, 3: "7/5"}, True),
    (12, {4: -23, 8: 35}, True),
]


@pytest.mark.parametrize("k,pp,obstructed", OBSTRUCTION_TABLE)
def test_obstruction_table(k, pp, obstructed):
    pp = {m: Fraction(c) for m, c in pp.items()}
    assert (check_principal_part(k, pp) is not None) == obstructed


def test_check_at_the_scope_corner_is_fast():
    import time
    t0 = time.perf_counter()
    check_principal_part(MAX_K, {MAX_PP_INDEX: Fraction(1)})
    assert time.perf_counter() - t0 < 0.5


def test_check_principal_part_linearity():
    rng = random.Random(5)
    k = 9  # S_18 is one-dimensional
    for _ in range(25):
        pp1 = {rng.randint(1, 5): Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
        pp2 = {rng.randint(1, 5): Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
        pp1 = {m: c for m, c in pp1.items() if c} or {1: Fraction(1)}
        pp2 = {m: c for m, c in pp2.items() if c} or {2: Fraction(1)}
        tot = dict(pp1)
        for m, c in pp2.items():
            tot[m] = tot.get(m, Fraction(0)) + c
        tot = {m: c for m, c in tot.items() if c}
        if not tot:
            continue
        o1 = check_principal_part(k, pp1) or [Fraction(0)]
        o2 = check_principal_part(k, pp2) or [Fraction(0)]
        ot = check_principal_part(k, tot) or [Fraction(0)]
        assert ot == [a + b for a, b in zip(o1, o2)]


def test_parse_principal_part():
    assert parse_principal_part("1=1,3=-2/5") == {1: Fraction(1), 3: Fraction(-2, 5)}
    assert parse_principal_part(" 2=7 ") == {2: Fraction(7)}
    # terms of one index add up, and an index whose terms cancel is no term
    assert parse_principal_part("1=1/2,1=1/2") == {1: Fraction(1)}
    assert parse_principal_part("1=1,2=1,2=-1") == {1: Fraction(1)}
    with pytest.raises(InvalidInputError):
        parse_principal_part("1=1,1=-1")
    with pytest.raises(InvalidInputError):
        parse_principal_part("0=1")
    with pytest.raises(InvalidInputError):
        parse_principal_part("1=0")
    with pytest.raises(InvalidInputError):
        parse_principal_part("nonsense")


@pytest.mark.parametrize("pp", [{1: 1, -1: 1}, {1: 1, -2: 3}, {1: 1, 0: 5}])
def test_cycle_engines_refuse_indices_below_one(pp):
    # check_principal_part pairs such indices to 0, but the engines would read
    # them as Hecke indices: both must refuse them as parse_principal_part does
    from hgreen.factor import gamma_exponents
    from hgreen.greens import G_kf_at_cycle, cycle_value
    from hgreen.nsum import cycle_nsum

    for engine in (gamma_exponents, G_kf_at_cycle, cycle_nsum, cycle_value):
        with pytest.raises(InvalidInputError, match="indices must be >= 1"):
            engine(4, pp, -7, -23)
