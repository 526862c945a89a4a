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

from .qfield import InvalidInputError
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

    for name, text in (("greens", "evaluate G_{k,f} at the CM cycle"),
                       ("factor", "predict the prime exponents of the invariant"),
                       ("verify", "run both engines and reconcile")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--k", type=int, required=True, help="even weight parameter k >= 2")
        p.add_argument("--d1", type=int, required=True, help="negative fundamental discriminant")
        p.add_argument("--d2", type=int, required=True, help="negative fundamental discriminant")
        p.add_argument("--pp", type=str, required=True,
                       help='principal part "m=c,m=c" with rational c like 3=-2/5')
        p.add_argument("--tol", type=float, default=1e-8, help="numeric tolerance")
        p.add_argument("--digits", type=int, default=None,
                       help="working precision in decimal digits (>= 15; "
                            "default $HGREEN_DIGITS or 30)")
        p.add_argument("--output", type=str, default=None, help="write JSON here instead of stdout")
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


def _header(args, pp):
    """The fields every cycle command's document opens with."""
    return {
        "command": args.command,
        "k": args.k, "d1": args.d1, "d2": args.d2,
        "pp": {str(m): str(c) for m, c in sorted(pp.items())},
    }


def _convergence(diag):
    """The numeric side's closing fields, shared by `greens` and `verify`."""
    return {
        "converged": diag["converged"],
        "diagnostics": {
            "pairs": diag["pairs"],
            "weight": diag["weight"],
            "per_pair": diag["per_pair"],
        },
    }


def cmd_greens(args) -> int:
    pp = parse_principal_part(args.pp)
    params = _params(args)
    value, diag = G.G_kf_at_cycle(args.k, pp, args.d1, args.d2, params)
    doc = {
        **_header(args, pp),
        "precision": params.digits,
        "tol": args.tol,
        "value": mpmath.nstr(value, params.digits),
        **_convergence(diag),
    }
    _emit(doc, args)
    return EXIT_OK if diag["converged"] else EXIT_VERIFY_FAILED


def cmd_factor(args) -> int:
    pp = parse_principal_part(args.pp)
    report = FA.gamma_exponents(args.k, pp, args.d1, args.d2)
    doc = {
        **_header(args, pp),
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
        **_header(args, pp),
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
        **_convergence(diag),
    }
    _emit(doc, args)
    if not diag["converged"] or not report.verified:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _selftest_grid(rng, quick):
    """(name, suite, arguments) in run order; the suites share rng, so the order is fixed."""
    from . import properties as P

    fields = (12, 21, 28, 161)
    ts = ("1.01", "1.5", "1.9", "2.1", 5, 50)
    return [
        ("counting_oracle", P.counting_oracle, (fields, 12 if quick else 40, rng)),
        ("route_equality", P.route_equality,
         (fields, 12 if quick else 30, rng, 24 if quick else None)),
        ("slice_identity", P.slice_identity, (12 if quick else 20,)),
        ("legendre_recurrence", P.legendre_recurrence, (5 if quick else 10, ts)),
        ("genus_congruences", P.genus_congruences, ((12, 21, 28, 33, 161),)),
    ]


def cmd_selftest(args) -> int:
    results = []
    any_fail = False
    for name, suite, suite_args in _selftest_grid(random.Random(args.seed), args.quick):
        checks, failures = suite(*suite_args)
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
