"""The ladder's error estimate against the error, on a seeded battery.

Both routes stop on the first rung whose error estimate (greens._ladder) is
below tol, and report the estimate of the cycle value in their diagnostics.
Every draw here runs a cycle at its tol and again at a tol 1000 times
below the smaller of its tol and its estimate, so that the second run stops
on a deeper rung, and requires the reported estimate to cover the distance
between the two values.  The two routes sum the same truncated series, term
for term, so only a deeper truncation is a reference for the truncation
error; the deep run takes the n-sum wherever that route applies, so that the
forced orbit-route draws are checked against code they share no
enumeration with.
"""

import random
from fractions import Fraction
from math import gcd, sqrt

import pytest

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


def _draws(seed=2026):
    """(route, k, pp, d1, d2, tol): n-sum draws at k = 4, 6 and orbit-route
    draws at k = 2, 4, 6, the k >= 4 ones on cycles short enough for the
    n-sum reference."""
    rng = random.Random(seed)
    pairs = [(a, b) for a in SMALL for b in SMALL if b < a and gcd(a, b) == 1]
    out = []
    for route, k, count in (("nsum", 4, 8), ("nsum", 6, 4), ("orbit", 4, 4),
                            ("orbit", 6, 3)):
        while count:
            d1, d2 = rng.choice(pairs)
            pp = _principal_part(k, rng.choice([1, 1, 2, 3] if k == 4 else [2]))
            span = sum(pp) * sqrt(d1 * d2)
            if span > NSUM_MAX_SPAN or (route == "orbit" and
                                        len(cm_points(d1)) * len(cm_points(d2)) > 4):
                continue
            out.append((route, k, pp, d1, d2, rng.choice([1e-8, 1e-10, 1e-12])))
            count -= 1
    class_one = [(a, b) for a in CLASS_ONE for b in CLASS_ONE if b < a and gcd(a, b) == 1]
    for d1, d2 in rng.sample(class_one, 6):
        out.append(("orbit", 2, {1: Fraction(1)}, d1, d2, rng.choice([1e-5, 1e-6])))
    return out


def _value(route, k, pp, d1, d2, tol):
    if route == "nsum":
        return cycle_nsum(k, pp, d1, d2, GreenParams(tol=tol))
    return G_kf_at_cycle(k, pp, d1, d2, GreenParams(tol=tol))


@pytest.mark.parametrize("draw", _draws(), ids=lambda d: f"{d[0]}-k{d[1]}-{d[3]}{d[4]}-{d[5]:g}")
def test_estimate_covers_the_error(draw):
    route, k, pp, d1, d2, tol = draw
    value, diag = _value(route, k, pp, d1, d2, tol)
    assert diag["converged"]
    deep = min(tol, diag["estimate"]) / 1000
    reference, ref_diag = _value("orbit" if k == 2 else "nsum", k, pp, d1, d2, deep)
    assert ref_diag["converged"]
    err = abs(float(value - reference))
    assert err <= diag["estimate"], (draw, err, diag["estimate"])
