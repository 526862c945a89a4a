"""Property suites: the paper's identities checked exhaustively or on seeded draws.

Each suite takes its grid as plain arguments (fields, sizes, the rng) and
returns (checks, failures), failures a list of JSON-ready records.  `hgreen
selftest` runs them on a fixed grid; the acceptance tests run them at their
pinned sizes.  A shared rng is drawn in call order, so a grid that runs the
suites in the same order reproduces the same draws.
"""

from __future__ import annotations

from fractions import Fraction

from .finquad import GDelta, d0, genus_characters, ramified_product, rho_KF
from .greens import _fixed_bits, q_fixed
from .qfield import FracIdeal, field
from .thetacoef import C_chi, ideal_route, lattice_route


def counting_oracle(fields, per_field: int, rng):
    """C_chi(mu0) = 2 rho_{K/F}((mu0)) for per_field random totally positive mu0 per field.

    mu0 = u + v*omega with u in [-60, 60], v in [0, 3], of norm at most 300;
    every odd genus character is checked on each.
    """
    failures = []
    checks = 0
    for D in fields:
        F = field(D)
        chis = genus_characters(D, odd_only=True)
        got = 0
        while got < per_field:
            mu = F.from_uv(rng.randint(-60, 60), rng.randint(0, 3))
            if mu.is_zero():
                continue
            if not mu.is_totally_positive():
                mu = -mu
            if not mu.is_totally_positive() or not 0 < mu.norm() <= 300:
                continue
            got += 1
            I = FracIdeal.from_generators(D, [mu])
            for chi in chis:
                checks += 1
                if C_chi(chi, mu) != 2 * rho_KF(chi, I):
                    failures.append({"Delta": D, "mu0": repr(mu)})
    return checks, failures


def route_equality(fields, n_max: int, rng=None, h_samples: int | None = None):
    """Lattice and ideal routes give the same c_chi(n, h) for 1 <= n <= n_max.

    Every h in A_Delta, or (with h_samples) that many drawn from rng with
    repetition, at most |A_Delta|; chi is the first odd genus character.
    """
    failures = []
    checks = 0
    for D in fields:
        chi = genus_characters(D, odd_only=True)[0]
        lr, ir = lattice_route(D), ideal_route(D)
        hs = list(lr.fqm.elements())
        if h_samples is not None:
            hs = [hs[rng.randrange(len(hs))] for _ in range(min(h_samples, len(hs)))]
        # n descending: the lattice route's first call sweeps up to n_max once
        for n in range(n_max, 0, -1):
            for h in hs:
                checks += 1
                if lr.c_chi(chi, n, h) != ir.c_chi(chi, n, h):
                    failures.append({"Delta": D, "n": n, "h": list(h)})
    return checks, failures


def slice_identity(top: int):
    """The combinatorial slice identity behind the factorization, all 0 <= a <= b <= top.

    sum over 0 <= s <= a and s - a <= r <= b - s of eps^r (a - b + 2r) is
    a + 1 or -(b + 1) for eps = -1 with the matching parities, else 0.
    """
    failures = []
    checks = 0
    for eps in (1, -1):
        for a in range(top + 1):
            for b in range(a, top + 1):
                s = sum(
                    eps ** r * (a - b + 2 * r)
                    for sv in range(a + 1)
                    for r in range(sv - a, b - sv + 1)
                )
                if eps == -1 and (a + 1) % 2 == 0 and b % 2 == 0:
                    want = a + 1
                elif eps == -1 and a % 2 == 0 and (b + 1) % 2 == 0:
                    want = -(b + 1)
                else:
                    want = 0
                checks += 1
                if s != want:
                    failures.append({"eps": eps, "a": a, "b": b, "sum": s})
    return checks, failures


def legendre_recurrence(n_max: int, ts):
    """(n+1) Q_{n+1} - (2n+1) t Q_n + n Q_{n-1} = 0 to 1e-12 at 30 digits, 1 <= n <= n_max.

    ts are Fraction-convertible points, strings for exact decimals; the grid
    spans both regimes of Q and their overlap.  Q_j(a/b) is the integer
    kernel of the cycle values, greens.q_fixed(j + 1, a, b^2), at every
    index 0 .. n_max + 1, and the residual is exact.
    """
    failures = []
    checks = 0
    bits = _fixed_bits(30)
    bound = Fraction(1, 10 ** 12)
    grid = []       # (t, [Q_0(t), ..., Q_{n_max+1}(t)])
    for t in map(Fraction, ts):
        a, b = t.numerator, t.denominator
        q = [man * Fraction(2) ** e
             for man, e in (q_fixed(j + 1, a, b * b, bits) for j in range(n_max + 2))]
        grid.append((t, q))
    for n in range(1, n_max + 1):
        for t, q in grid:
            r = (n + 1) * q[n + 1] - (2 * n + 1) * t * q[n] + n * q[n - 1]
            checks += 1
            if abs(r) > bound:
                failures.append({"n": n, "t": float(t), "residual": float(abs(r))})
    return checks, failures


def genus_congruences(fields):
    """Genus congruences: d |-> [d_d] is onto Cl_2^+ with kernel {1, d0}.

    Also chi(different) = sign(Delta1) for every genus character chi.
    """
    failures = []
    checks = 0
    for D in fields:
        F = field(D)
        ncg = F.narrow_class_group()
        kernel = [d for d in GDelta(F).elements()
                  if ncg.is_narrow_principal(ramified_product(F, d))]
        checks += 1
        if sorted(kernel) != sorted({1, d0(D)}):
            failures.append({"Delta": D, "kernel": kernel})
        for chi in genus_characters(D):
            checks += 1
            want = 1 if chi.Delta1 > 0 else -1
            if chi(F.different()) != want:
                failures.append({"Delta": D, "chi": repr(chi)})
    return checks, failures
