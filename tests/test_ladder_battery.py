"""The ladder's error estimate against the error, on a seeded battery.

Both routes stop on the first rung whose error estimate (greens._ladder) is
below tol, and report the estimate of the cycle value in their diagnostics.
Every draw here runs a cycle at its tol and again at a tol 1000 times
below the smaller of its tol and its estimate, so that the second run stops
on a deeper rung, and requires the reported estimate to cover the distance
between the two values.  The two routes sum the same truncated series, term
for term, and each stops on the estimate of the cycle value, so at one tol
they stop on the same rung and agree to rounding (tests/test_nsum.py); only
a deeper truncation is a reference for the truncation error.  The deep run
takes the n-sum wherever that route applies, so that the
forced orbit-route draws are checked against code they share no
enumeration with.  A second set of draws, at a tol the ladder meets early,
runs with four rungs (T = 25 ... 200), so each must stop below T = 400.
"""

import random
from fractions import Fraction
from math import gcd, sqrt

import pytest

import hgreen.greens as G
from hgreen.greens import G_kf_at_cycle, GreenParams, NSUM_MAX_SPAN, cm_points
from hgreen.mforms import cusp_basis
from hgreen.nsum import cycle_nsum

SMALL = [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24]
# k = 2 runs to T ~ 1e5 and its reference to ~ 4e5: one CM pair each
CLASS_ONE = [-3, -4, -7, -8, -11, -19]


def _principal_part(k, m):
    """{m: 1} at k = 4 (no cusp forms of weight 8), {1: -a(m), m: 1} against
    the one cusp form of weight 2k at k = 6 (m >= 2); {1: 1} at k = 2."""
    if k in (2, 4):
        return {m: Fraction(1)}
    (g,) = cusp_basis(2 * k, m + 1)
    return {1: Fraction(-g[m]), m: Fraction(1)}


def _cycle_draws(rng, spec):
    """(route, k, pp, d1, d2, tol) for each (route, k, count, tols) of spec:
    count draws, the k >= 4 ones on cycles short enough for the n-sum
    reference, the orbit-route ones of at most 4 CM pairs."""
    pairs = [(a, b) for a in SMALL for b in SMALL if b < a and gcd(a, b) == 1]
    out = []
    for route, k, count, tols in spec:
        while count:
            d1, d2 = rng.choice(pairs)
            pp = _principal_part(k, rng.choice([1, 1, 2, 3] if k == 4 else [2]))
            span = sum(pp) * sqrt(d1 * d2)
            if span > NSUM_MAX_SPAN or (route == "orbit" and
                                        len(cm_points(d1)) * len(cm_points(d2)) > 4):
                continue
            out.append((route, k, pp, d1, d2, rng.choice(tols)))
            count -= 1
    return out


def _draws(seed=2026):
    """n-sum draws at k = 4, 6 and orbit-route draws at k = 2, 4, 6."""
    rng = random.Random(seed)
    tols = [1e-8, 1e-10, 1e-12]
    out = _cycle_draws(rng, [("nsum", 4, 8, tols), ("nsum", 6, 4, tols),
                             ("orbit", 4, 4, tols), ("orbit", 6, 3, tols)])
    class_one = [(a, b) for a in CLASS_ONE for b in CLASS_ONE if b < a and gcd(a, b) == 1]
    for d1, d2 in rng.sample(class_one, 6):
        out.append(("orbit", 2, {1: Fraction(1)}, d1, d2, rng.choice([1e-5, 1e-6])))
    return out


def _short_draws(seed=2027):
    """Three draws per route at a tol that the ladder meets below T = 400."""
    return _cycle_draws(random.Random(seed), [
        ("nsum", 4, 2, [1e-6]), ("nsum", 6, 1, [1e-8]),
        ("orbit", 4, 2, [1e-6]), ("orbit", 6, 1, [1e-8])])


def _value(route, k, pp, d1, d2, tol):
    if route == "nsum":
        return cycle_nsum(k, pp, d1, d2, GreenParams(tol=tol))
    return G_kf_at_cycle(k, pp, d1, d2, GreenParams(tol=tol))


def _assert_estimate_covers_the_error(draw, value, diag):
    route, k, pp, d1, d2, tol = draw
    assert diag["converged"]
    deep = min(tol, diag["estimate"]) / 1000
    reference, ref_diag = _value("orbit" if k == 2 else "nsum", k, pp, d1, d2, deep)
    assert ref_diag["converged"]
    err = abs(float(value - reference))
    assert err <= diag["estimate"], (draw, err, diag["estimate"])


def _id(draw):
    return f"{draw[0]}-k{draw[1]}-{draw[3]}{draw[4]}-{draw[5]:g}"


@pytest.mark.parametrize("draw", _draws(), ids=_id)
def test_estimate_covers_the_error(draw):
    _assert_estimate_covers_the_error(draw, *_value(*draw))


@pytest.mark.parametrize("draw", _short_draws(), ids=_id)
def test_estimate_covers_the_error_below_T_400(draw, monkeypatch):
    # four rungs, T = 25 ... 200: the value converges below T = 400
    with monkeypatch.context() as mp:
        mp.setattr(G, "MAX_DOUBLINGS", 4)
        value, diag = _value(*draw)
    _assert_estimate_covers_the_error(draw, value, diag)
