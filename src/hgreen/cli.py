"""Command-line interface: evaluate, predict, verify, self-test.

Subcommands
  greens    numerical evaluation of the averaged Green's function value
  factor    exact exponent prediction for the algebraic invariant
  verify    run both sides and reconcile them (exit 0 ok / 1 failed / 2 bad input)
  selftest  seeded property suites across the library

All output is a single JSON document on stdout (or --output).  Exact fields
(exponents, kappa) are byte-reproducible; floating fields carry an explicit
precision entry.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

import mpmath

from .qfield import InvalidInputError, field
from .mforms import parse_principal_part
from . import greens as G
from . import factor as FA


EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2


def _default_digits() -> int:
    text = os.environ.get("HGREEN_DIGITS", "30")
    try:
        return int(text)
    except ValueError:
        raise InvalidInputError(f"HGREEN_DIGITS={text!r} is not an integer") from None


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="hgreen",
        description="Averaged CM values of higher Green's functions and the "
                    "predicted factorization of the associated invariant.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, pp=True):
        p.add_argument("--k", type=int, required=True, help="even weight parameter k >= 2")
        p.add_argument("--d1", type=int, required=True, help="negative fundamental discriminant")
        p.add_argument("--d2", type=int, required=True, help="negative fundamental discriminant")
        if pp:
            p.add_argument("--pp", type=str, required=True,
                           help='principal part "m=c,m=c" with rational c like 3=-2/5')
        p.add_argument("--tol", type=float, default=1e-8, help="numeric tolerance")
        p.add_argument("--digits", type=int, default=None,
                       help="working precision in decimal digits (>= 15; "
                            "default $HGREEN_DIGITS or 30)")
        p.add_argument("--output", type=str, default=None, help="write JSON here instead of stdout")

    pg = sub.add_parser("greens", help="evaluate G_{k,f} at the CM cycle")
    common(pg)
    pf = sub.add_parser("factor", help="predict the prime exponents of the invariant")
    common(pf)
    pv = sub.add_parser("verify", help="run both engines and reconcile")
    common(pv)
    ps = sub.add_parser("selftest", help="run the seeded property suites")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--quick", action="store_true", help="reduced grid")
    ps.add_argument("--output", type=str, default=None)
    return ap


def _emit(doc, args) -> None:
    text = json.dumps(doc, indent=1, default=str)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _exponent_entries(report):
    out = []
    for (ell, b), e in sorted(report.exponents.items()):
        pr = report.prime_ideal((ell, b))
        out.append({
            "p": ell,
            "hnf": [pr.a, pr.b, 1],
            "e_num": e.numerator,
            "e_den": e.denominator,
        })
    return out


def _params(args):
    digits = args.digits if args.digits is not None else _default_digits()
    return G.GreenParams(k=args.k, tol=args.tol, digits=digits)


def cmd_greens(args) -> int:
    pp = parse_principal_part(args.pp)
    params = _params(args)
    value, diag = G.G_kf_at_cycle(args.k, pp, args.d1, args.d2, params)
    doc = {
        "command": "greens",
        "k": args.k, "d1": args.d1, "d2": args.d2,
        "pp": {str(m): str(c) for m, c in sorted(pp.items())},
        "precision": params.digits,
        "tol": args.tol,
        "value": mpmath.nstr(value, params.digits),
        "converged": diag["converged"],
        "diagnostics": {
            "pairs": diag["pairs"],
            "weight": diag["weight"],
            "per_pair": diag["per_pair"],
        },
    }
    _emit(doc, args)
    return EXIT_OK if diag["converged"] else EXIT_VERIFY_FAILED


def cmd_factor(args) -> int:
    pp = parse_principal_part(args.pp)
    report = FA.gamma_exponents(args.k, pp, args.d1, args.d2)
    doc = {
        "command": "factor",
        "k": args.k, "d1": args.d1, "d2": args.d2,
        "pp": {str(m): str(c) for m, c in sorted(pp.items())},
        "Delta": report.Delta,
        "kappa": report.kappa,
        "exponents": _exponent_entries(report),
        # reconciliation fields are filled by `verify`; kept for schema stability
        "unit_power": report.unit_power,
        "residual": report.residual,
        "rhs_value": report.rhs_value,
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    pp = parse_principal_part(args.pp)
    params = _params(args)
    report = FA.gamma_exponents(args.k, pp, args.d1, args.d2)
    value, diag = G.G_kf_at_cycle(args.k, pp, args.d1, args.d2, params)
    report = FA.reconcile(report, value, args.tol, params.digits)
    doc = {
        "command": "verify",
        "k": args.k, "d1": args.d1, "d2": args.d2,
        "pp": {str(m): str(c) for m, c in sorted(pp.items())},
        "Delta": report.Delta,
        "precision": params.digits,
        "tol": args.tol,
        "lhs": mpmath.nstr(value, params.digits),
        "kappa": report.kappa,
        "exponents": _exponent_entries(report),
        "unit_power": report.unit_power,
        "unit_power_rational": str(report.unit_power_rational),
        "residual": report.residual,
        "residual_threshold": report.residual_threshold,
        "rhs_value": report.rhs_value,
        "converged": diag["converged"],
        "diagnostics": {
            "pairs": diag["pairs"],
            "weight": diag["weight"],
            "per_pair": diag["per_pair"],
        },
    }
    _emit(doc, args)
    if not diag["converged"] or not report.verified:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest suites
# ---------------------------------------------------------------------------

def _suite_counting(rng, quick):
    """Prop count oracle: C_chi(mu0) = 2 rho for random totally positive mu0."""
    from .qfield import FracIdeal
    from .finquad import genus_characters, rho_KF
    from .thetacoef import C_chi

    failures = []
    checks = 0
    per_field = 12 if quick else 40
    for D in (12, 21, 28, 161):
        F = field(D)
        chis = genus_characters(D, odd_only=True)
        got = 0
        while got < per_field:
            u = rng.randint(-60, 60)
            v = rng.randint(0, 3)
            mu = F.from_uv(u, v)
            if mu.is_zero():
                continue
            if not mu.is_totally_positive():
                mu = -mu
            if not mu.is_totally_positive():
                continue
            if not (0 < mu.norm() <= 300):
                continue
            got += 1
            I = FracIdeal.from_generators(D, [mu])
            for chi in chis:
                checks += 1
                if C_chi(chi, mu) != 2 * rho_KF(chi, I):
                    failures.append({"Delta": D, "mu0": repr(mu)})
    return checks, failures


def _suite_routes(rng, quick):
    """Lattice and ideal coefficient routes agree."""
    from .finquad import FQM, genus_characters
    from .thetacoef import ideal_route, lattice_route

    failures = []
    checks = 0
    nmax = 12 if quick else 30
    for D in (12, 21, 28, 161):
        fqm = FQM(field(D))
        chi = genus_characters(D, odd_only=True)[0]
        lr, ir = lattice_route(D), ideal_route(D)
        hs = list(fqm.elements())
        if quick:
            hs = [hs[rng.randrange(len(hs))] for _ in range(min(24, len(hs)))]
        for n in range(1, nmax + 1):
            for h in hs:
                checks += 1
                if lr.c_chi(chi, n, h) != ir.c_chi(chi, n, h):
                    failures.append({"Delta": D, "n": n, "h": list(h)})
    return checks, failures


def _suite_identity(rng, quick):
    """The combinatorial slice identity behind the factorization."""
    failures = []
    checks = 0
    top = 12 if quick else 20
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


def _suite_legendre(rng, quick):
    """Q recurrence residual and the two-regime overlap."""
    failures = []
    checks = 0
    with mpmath.mp.workdps(30):
        ts = [mpmath.mpf("1.01"), mpmath.mpf("1.5"), mpmath.mpf("1.9"),
              mpmath.mpf("2.1"), mpmath.mpf(5), mpmath.mpf(50)]
        for n in range(1, 6 if quick else 11):
            for t in ts:
                r = ((n + 1) * G.legendre_Q(n + 1, t)
                     - (2 * n + 1) * t * G.legendre_Q(n, t)
                     + n * G.legendre_Q(n - 1, t))
                checks += 1
                if abs(r) > mpmath.mpf(10) ** -12:
                    failures.append({"n": n, "t": float(t), "residual": float(abs(r))})
    return checks, failures


def _suite_genus(rng, quick):
    """Genus congruences: d |-> [d_d] is onto Cl_2^+ with kernel {1, d0}."""
    from .finquad import GDelta, d0, genus_characters, ramified_product

    failures = []
    checks = 0
    for D in (12, 21, 28, 33, 161):
        F = field(D)
        ncg = F.narrow_class_group()
        gd = GDelta(F)
        d0v = d0(D)
        kernel = [d for d in gd.elements()
                  if ncg.is_narrow_principal(ramified_product(F, d))]
        checks += 1
        if sorted(kernel) != sorted({1, d0v}):
            failures.append({"Delta": D, "kernel": kernel})
        for chi in genus_characters(D):
            checks += 1
            want = 1 if chi.Delta1 > 0 else -1
            if chi(F.different()) != want:
                failures.append({"Delta": D, "chi": repr(chi)})
    return checks, failures


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    suites = [
        ("counting_oracle", _suite_counting),
        ("route_equality", _suite_routes),
        ("slice_identity", _suite_identity),
        ("legendre_recurrence", _suite_legendre),
        ("genus_congruences", _suite_genus),
    ]
    results = []
    any_fail = False
    for name, fn in suites:
        checks, failures = fn(rng, args.quick)
        ok = not failures
        any_fail = any_fail or not ok
        results.append({
            "suite": name,
            "checks": checks,
            "failures": failures[:5],
            "pass": ok,
        })
        print(f"{name}: {checks} checks, {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    doc = {
        "command": "selftest",
        "seed": args.seed,
        "quick": bool(args.quick),
        "suites": results,
        "pass": not any_fail,
    }
    _emit(doc, args)
    return EXIT_OK if not any_fail else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "greens":
            return cmd_greens(args)
        if args.command == "factor":
            return cmd_factor(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "selftest":
            return cmd_selftest(args)
    except InvalidInputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INVALID
    except G.SingularConfigurationError as exc:
        print(json.dumps({"error": f"singular configuration: {exc}"}), file=sys.stderr)
        return EXIT_INVALID
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
