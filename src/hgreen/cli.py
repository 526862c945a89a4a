"""Command-line interface: evaluate, predict, verify, self-test.

Subcommands
  greens    numerical evaluation of the averaged Green's function value
  factor    exact exponent prediction for the algebraic invariant
  verify    run both sides and reconcile them (exit 0 ok / 1 failed / 2 bad input)
  selftest  seeded property suites across the library

All output is a single JSON document on stdout (or --output).  Exact fields
(exponents, kappa) are byte-reproducible; floating fields carry an explicit
precision entry.  A `greens` or `verify` document that exits 1 ends with
`failure_reason`: the route (n-sum or orbit route) whose cycle value did not
converge, with its last T, its number of shells and its last error estimate
against tol, and/or `residual R >= threshold T`.

Flags are rows of one table, `_FLAGS`, read by one loop, `_parse`: `--flag
value` or `--flag=value` in any order, the last of a repeated flag counting,
no abbreviations.  A bad or missing flag exits 2 with the one JSON line of
every other invalid input, in argparse's words.  argparse itself is not
imported: building its parser took longer than a large-Delta `factor`.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import types

from .qfield import InvalidInputError
from .mforms import parse_principal_part
from . import greens as G
from . import factor as FA


EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2


_REQUIRED = object()    # the default of a flag that has none

# {command: {flag: (type, default, help)}}; type bool is a switch, which takes
# no value; every other flag takes one, converted by its type
_CYCLE_FLAGS = {
    "--k": (int, _REQUIRED, "even weight parameter k >= 2"),
    "--d1": (int, _REQUIRED, "negative fundamental discriminant"),
    "--d2": (int, _REQUIRED, "negative fundamental discriminant"),
    "--pp": (str, _REQUIRED, 'principal part "m=c,m=c" with rational c like 3=-2/5'),
    "--tol": (float, 1e-8, "numeric tolerance"),
    "--digits": (int, 30, f"working precision in decimal digits, 15 to {G.MAX_DIGITS}"),
    "--output": (str, None, "write JSON here instead of stdout"),
}
_FLAGS = {
    "greens": _CYCLE_FLAGS,
    "factor": _CYCLE_FLAGS,
    "verify": _CYCLE_FLAGS,
    "selftest": {
        "--seed": (int, 0, "seed of the suites' random draws"),
        "--quick": (bool, False, "reduced grid"),
        "--output": _CYCLE_FLAGS["--output"],
    },
}
_COMMANDS = {
    "greens": "evaluate G_{k,f} at the CM cycle",
    "factor": "predict the prime exponents of the invariant",
    "verify": "run both engines and reconcile",
    "selftest": "run the seeded property suites",
}


def _help(command=None):
    """Print the usage of the program, or of one command with its flags; exit 0."""
    if command is None:
        lines = ["usage: hgreen {" + ",".join(_COMMANDS) + "} [--flag value]...", ""]
        lines += [f"  {name:<10}{text}" for name, text in _COMMANDS.items()]
        lines += ["", "hgreen COMMAND --help lists the flags of a command."]
    else:
        lines = [f"usage: hgreen {command} [--flag value]...", "", _COMMANDS[command], ""]
        for flag, (kind, default, text) in _FLAGS[command].items():
            name = flag if kind is bool else f"{flag} {flag[2:].upper()}"
            note = "required" if default is _REQUIRED else f"default: {default}"
            lines.append(f"  {name:<18}{text} ({note})")
    print("\n".join(lines))
    raise SystemExit(0)


def _parse(argv=None):
    """The command and its flag values from argv (default sys.argv[1:]).

    Refusals raise InvalidInputError in the words argparse used for them.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        raise InvalidInputError("hgreen: the following arguments are required: command")
    command, *tokens = argv
    if command in ("-h", "--help"):
        _help()
    if command not in _FLAGS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise InvalidInputError(f"hgreen: argument command: invalid choice: "
                                f"{command!r} (choose from {choices})")
    flags, prog = _FLAGS[command], f"hgreen {command}"
    values, unknown = {}, []
    tokens.reverse()
    while tokens:
        token = tokens.pop()
        if token in ("-h", "--help"):
            _help(command)
        flag, eq, value = token.partition("=")
        if flag not in flags:
            unknown.append(token)
            continue
        kind = flags[flag][0]
        if kind is bool:
            if eq:
                raise InvalidInputError(f"{prog}: argument {flag}: "
                                        f"ignored explicit argument {value!r}")
            values[flag] = True
            continue
        if not eq:
            # the next token is the value unless it is a flag, and every flag
            # but -h starts with "--": -7, -1e-8 and -inf are values
            if not tokens or tokens[-1].startswith("--") or tokens[-1] == "-h":
                raise InvalidInputError(f"{prog}: argument {flag}: expected one argument")
            value = tokens.pop()
        try:
            values[flag] = kind(value)
        except ValueError:
            raise InvalidInputError(f"{prog}: argument {flag}: invalid "
                                    f"{kind.__name__} value: {value!r}") from None
    missing = [flag for flag, (_, default, _) in flags.items()
               if default is _REQUIRED and flag not in values]
    if missing:
        raise InvalidInputError(f"{prog}: the following arguments are required: "
                                f"{', '.join(missing)}")
    if unknown:
        raise InvalidInputError(f"hgreen: unrecognized arguments: {' '.join(unknown)}")
    return types.SimpleNamespace(command=command, **{
        flag[2:]: values.get(flag, default) for flag, (_, default, _) in flags.items()})


def _emit(doc, args) -> None:
    text = json.dumps(doc, indent=1, default=str)
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InvalidInputError(f"cannot write --output {args.output}: {exc.strerror}") from exc
    else:
        print(text)


def _exponent_entries(report):
    out = []
    for (ell, b), e in sorted(report.exponents.items()):
        out.append({
            "p": ell,
            "hnf": [ell, b, 1],
            "e_num": e.numerator,
            "e_den": e.denominator,
        })
    return out


def _header(args, pp):
    """The fields every cycle command's document opens with."""
    return {
        "command": args.command,
        "k": args.k, "d1": args.d1, "d2": args.d2,
        "pp": {str(m): str(c) for m, c in sorted(pp.items())},
    }


def _convergence(diag):
    """The numeric side's closing fields, shared by `greens` and `verify`: the
    route's diagnostics (see greens.cycle_value) under `diagnostics`."""
    return {
        "converged": diag["converged"],
        "diagnostics": {key: val for key, val in diag.items() if key != "converged"},
    }


def _failure_reason(diag, tol, report=None):
    """Why `greens` or `verify` fails (exit 1), or None when it passes."""
    reasons = []
    if not diag["converged"]:
        route = "n-sum" if diag["route"] == "nsum" else "orbit route"
        reasons.append(f"not converged: {route} at T = {diag['T']} after "
                       f"{len(diag['history'])} shells, "
                       f"estimate {diag['estimate']:.2g} >= tol {tol:g}")
    if report is not None and not report.verified:
        reasons.append(f"residual {report.residual} >= threshold {report.residual_threshold}")
    return "; ".join(reasons) or None


def _close(doc, reason, args) -> int:
    """Emit the document, with `failure_reason` when there is one; the exit code."""
    if reason:
        doc["failure_reason"] = reason
    _emit(doc, args)
    return EXIT_VERIFY_FAILED if reason else EXIT_OK


def cmd_greens(args) -> int:
    pp = parse_principal_part(args.pp)
    params = G.GreenParams(tol=args.tol, digits=args.digits)
    value, diag = G.cycle_value(args.k, pp, args.d1, args.d2, params)
    doc = {
        **_header(args, pp),
        "precision": params.digits,
        "tol": args.tol,
        "value": f"{value:.{params.digits}g}",
        **_convergence(diag),
    }
    return _close(doc, _failure_reason(diag, args.tol), args)


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
    params = G.GreenParams(tol=args.tol, digits=args.digits)
    report = FA.gamma_exponents(args.k, pp, args.d1, args.d2)
    value, diag = G.cycle_value(args.k, pp, args.d1, args.d2, params)
    report = FA.reconcile(report, value, args.tol, params.digits)
    doc = {
        **_header(args, pp),
        "Delta": report.Delta,
        "precision": params.digits,
        "tol": args.tol,
        "lhs": f"{value:.{params.digits}g}",
        "kappa": report.kappa,
        "exponents": _exponent_entries(report),
        "unit_power": report.unit_power,
        "unit_power_rational": str(report.unit_power_rational),
        "residual": report.residual,
        "residual_threshold": report.residual_threshold,
        "rhs_value": report.rhs_value,
        **_convergence(diag),
    }
    return _close(doc, _failure_reason(diag, args.tol, report), args)


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
    # the objects alive here, the imported modules, live as long as the
    # process: frozen, no collection pass of the command scans them again,
    # and where the passes fell during the import moves no work into it
    gc.freeze()
    try:
        args = _parse(argv)
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
