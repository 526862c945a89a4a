"""Integer q-expansions of level-one modular forms.

Provides E4, E6, the discriminant cusp form, the integral bases
Delta^j E4^a E6^b of cusp spaces, and the residue-theorem obstruction check
for principal parts of weakly holomorphic forms of negative weight.  A
q-series is a list of ints, entry n the coefficient of q^n.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .qfield import InvalidInputError, QuadField, is_fundamental_discriminant

# Largest principal-part index m accepted.  On a 2-core Xeon with Python
# 3.11, gamma_exponents(4, {m: 1}, -3, -333332) takes 0.018 s at m = 10 and
# 0.21 s at m = 100 (17,967 primes), and check_principal_part(k, {100: 1})
# 0.001 s at k = 6 and 0.003 s at k = 12 (0.07 s and 0.29 s at m = 1000).
# The numeric side limits m: pp {100: 1} at Delta = 9993 took 62 s for the value.
MAX_PP_INDEX = 100
# Largest k accepted.  The obstruction check does not limit k (at m = 100 it
# takes 0.02 s at k = 24 and 0.1 s at k = 48).  The numeric engine does: the
# accuracy of its float Q_{k-1} series is measured only for k - 1 <= 11 (up
# to 1.1e-13 relative at k - 1 = 11, see the `greens` docstring), so a
# larger k needs that measurement, the upgrade bound and the guard bits of
# the fixed-point Q (greens.q_fixed) at each new k - 1 first.
MAX_K = 12


def _mul(f, g):
    """Product of two q-series, truncated to the shorter of the two."""
    n = min(len(f), len(g))
    out = [0] * n
    for i, a in enumerate(f[:n]):
        if a:
            for j, b in enumerate(g[:n - i], i):
                out[j] += a * b
    return out


def _sigma(k: int, n: int) -> int:
    out = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            out += d ** k
            if d != n // d:
                out += (n // d) ** k
        d += 1
    return out


def eisenstein(k: int, prec: int) -> list[int]:
    """E_k = 1 + c_k sum sigma_{k-1}(n) q^n for k = 4 (c = 240) or 6 (c = -504)."""
    c = {4: 240, 6: -504}.get(k)
    if c is None:
        raise InvalidInputError("eisenstein needs k = 4 or k = 6")
    if prec < 1:
        raise InvalidInputError("precision must be >= 1")
    return [1] + [c * _sigma(k - 1, n) for n in range(1, prec)]


def delta_form(prec: int) -> list[int]:
    """Delta = q prod (1-q^n)^24, as q (prod (1-q^n)^3)^8 with Jacobi's identity

    prod (1-q^n)^3 = sum_{n >= 0} (-1)^n (2n+1) q^{n(n+1)/2}.
    """
    if prec < 1:
        raise InvalidInputError("precision must be >= 1")
    f = [0] * prec
    n = 0
    while n * (n + 1) // 2 < prec:
        f[n * (n + 1) // 2] = (-1) ** n * (2 * n + 1)
        n += 1
    for _ in range(3):
        f = _mul(f, f)
    return [0] + f[:-1]


def cusp_basis(weight: int, prec: int) -> list[list[int]]:
    """The basis g_j = Delta^j E4^a E6^b of S_weight, j = 1..dim, to q^(prec-1).

    12j + 4a + 6b = weight with b in {0, 1}; a j whose remainder weight is 2
    has no such (a, b) and is skipped, which leaves dim S_weight forms.  Each
    g_j = q^j + O(q^(j+1)) with integer coefficients.
    """
    if weight < 4 or weight % 2 != 0:
        raise InvalidInputError("cusp_basis needs even weight >= 4")
    e4, e6, dl = eisenstein(4, prec), eisenstein(6, prec), delta_form(prec)
    basis = []
    dl_j = [1] + [0] * (prec - 1)
    for j in range(1, weight // 12 + 1):
        dl_j = _mul(dl_j, dl)
        rem = weight - 12 * j
        if rem == 2:
            continue
        b = rem % 4 // 2
        g = _mul(dl_j, e6) if b else dl_j
        for _ in range((rem - 6 * b) // 4):
            g = _mul(g, e4)
        basis.append(g)
    return basis


# ---------------------------------------------------------------------------
# principal parts
# ---------------------------------------------------------------------------

def parse_principal_part(text: str):
    """Parse "m=c,m=c" with rational c ("p/q") into {m: Fraction}.

    Terms of the same m add up; an m whose terms sum to 0 is left out.
    """
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InvalidInputError(f"bad principal part term {chunk!r}")
        ms, cs = chunk.split("=", 1)
        try:
            m = int(ms)
            c = Fraction(cs)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad principal part term {chunk!r}: {exc}") from None
        if m < 1:
            raise InvalidInputError("principal part indices must be >= 1")
        out[m] = out.get(m, 0) + c
    out = {m: c for m, c in out.items() if c}
    if not out:
        raise InvalidInputError("principal part must have a nonzero entry")
    return out


def check_principal_part(k: int, pp):
    """Residue-theorem obstruction for f = sum c(-m) q^{-m} + O(1) in M^!_{2-2k}.

    Returns None when valid; otherwise the vector of pairings
    sum_m pp[m]*a_g(m) against the basis g of S_{2k} from `cusp_basis`.
    Indices below 1 are not principal-part terms and pair to 0.
    """
    if k < 2:
        raise InvalidInputError("weight parameter k must be >= 2")
    if not pp:
        raise InvalidInputError("empty principal part")
    pp = {m: c for m, c in pp.items() if m >= 1}
    if not pp:
        return None
    basis = cusp_basis(2 * k, max(pp) + 1)
    obstruction = [sum(Fraction(c) * g[m] for m, c in pp.items()) for g in basis]
    if any(obstruction):
        return obstruction
    return None


def check_weight(k: int) -> None:
    """Raise InvalidInputError unless k is even with 2 <= k <= MAX_K."""
    if k < 2 or k % 2 != 0:
        raise InvalidInputError("k must be an even integer >= 2")
    if k > MAX_K:
        raise InvalidInputError(f"k = {k} beyond supported range {MAX_K}")


def check_cycle_input(k: int, pp, d1: int, d2: int) -> None:
    """Validate the input of a CM-cycle computation; the one check for both engines.

    Raises InvalidInputError unless k is even with 2 <= k <= MAX_K, d1 and d2
    are coprime negative fundamental discriminants with Delta = d1*d2 inside
    the supported range, and the principal part pp has indices from 1 to
    MAX_PP_INDEX and is unobstructed.  The ranges are checked before anything
    is factored or expanded, so oversized input fails at once.
    """
    check_weight(k)
    if d1 >= 0 or d2 >= 0:
        raise InvalidInputError(f"d1 = {d1}, d2 = {d2}: both must be negative")
    if d1 * d2 > QuadField.MAX_DELTA:
        raise InvalidInputError(f"Delta = {d1 * d2} beyond supported range 1e6")
    for d in (d1, d2):
        if not is_fundamental_discriminant(d):
            raise InvalidInputError(f"{d} is not a negative fundamental discriminant")
    if gcd(d1, d2) != 1:
        raise InvalidInputError("d1 and d2 must be coprime")
    if min(pp, default=1) < 1:
        raise InvalidInputError("principal part indices must be >= 1")
    if max(pp, default=0) > MAX_PP_INDEX:
        raise InvalidInputError(
            f"principal part index {max(pp)} beyond supported range {MAX_PP_INDEX}"
        )
    obstruction = check_principal_part(k, pp)
    if obstruction is not None:
        raise InvalidInputError(f"principal part obstructed by S_{2 * k}: {obstruction}")
