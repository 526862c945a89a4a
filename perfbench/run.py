"""hgreen benchmark: drive the CLI one case at a time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: every case is a fresh interpreter running
perfbench/child.py, which imports hgreen.cli from this checkout's src/ and
calls `main(argv)`; at most one child is alive at a time.  A pass runs the
workload's case list once; passes repeat while that brings the run's length
closer to S seconds (at least one).  Times are means over passes, peak RSS
the median.  Set-up (interpreter start plus `import hgreen.cli`) is sampled by
import-only processes and by every case process, and reported as the median.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics.  Every case output is checked
(exit code, convergence, the theorem residual, pinned exact fields); the last
stdout line is the JSON result, and a report with the environment, samples
and failures is written to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from math import gcd, isqrt
from pathlib import Path

from tracer import parse_importtime

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
REFS = BENCH / "refs.json"

SETUP_SPAWNS = 3          # import-only processes before the first pass
CASE_TIMEOUT_S = 150

# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

ORBIT_K2 = ["verify", "--k", "2", "--d1", "-4", "--d2", "-7", "--pp", "1=1",
            "--tol", "1e-7"]
FLAGSHIP = ["verify", "--k", "4", "--d1", "-7", "--d2", "-23", "--pp", "1=1",
            "--tol", "1e-10"]
HECKE_K6 = ["verify", "--k", "6", "--d1", "-7", "--d2", "-23", "--pp", "1=24,2=1",
            "--tol", "1e-10"]

# factor-large: Delta = d1*d2 in this range, FACTOR_CASES pairs per seed, each
# with exponent-sum work (see exponent_work) within WORK_BAND of WORK_TARGET.
DELTA_RANGE = (10_000, 30_000)
FACTOR_CASES = 8
WORK_TARGET = 1600
WORK_BAND = 0.10


def _squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def _fundamental(d: int) -> bool:
    """Negative fundamental discriminant test, independent of hgreen."""
    if d >= 0:
        return False
    if d % 4 == 1:
        return _squarefree(-d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and _squarefree(-d // 4)


def _kronecker_prime(a: int, p: int) -> int:
    if p == 2:
        return 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
    a %= p
    return 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def _factorize(n: int) -> dict:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def exponent_work(d1: int, d2: int) -> int:
    """Size of the exponent sum for k=4, principal part q^-1, independent of hgreen.

    For every trace-slice element mu0 = (n + sqrt(Delta))/2 and every prime l
    dividing Nm(mu0) that splits with genus character -1, the engine needs
    the valuation at l and rho of (mu0)*l, i.e. one factorization of
    (mu0)*l: that costs about 1 + sum over p^e || Nm(mu0) of (e + 2) ideal
    steps.  Delta alone predicts the time of a case poorly (1.7 s to 7 s at
    the same Delta); this count predicts it to about 15%.
    """
    D = d1 * d2
    work = 0
    for n in range(-isqrt(D), isqrt(D) + 1):
        if (n - D) % 2 or n * n >= D:
            continue
        f = _factorize((D - n * n) // 4)
        steps = 1 + sum(e + 2 for e in f.values())
        for ell in f:
            if _kronecker_prime(d1, ell) == -1 and _kronecker_prime(d2, ell) == -1:
                work += steps
    return work


def factor_pairs(seed: int):
    """FACTOR_CASES coprime negative fundamental pairs drawn from the seed."""
    lo, hi = DELTA_RANGE
    negs = [d for d in range(-3, -hi // 3 - 1, -1) if _fundamental(d)]
    is_neg = set(negs)
    pairs = []
    for a in negs:
        for b in range(-((lo - a - 1) // -a), -(hi // -a) - 1, -1):
            if b < a and b in is_neg and gcd(a, b) == 1:
                pairs.append((a, b))
    rng = random.Random(seed)
    rng.shuffle(pairs)
    lo_w, hi_w = WORK_TARGET * (1 - WORK_BAND), WORK_TARGET * (1 + WORK_BAND)
    out = []
    for a, b in pairs:
        if lo_w <= exponent_work(a, b) <= hi_w:
            out.append((a, b))
            if len(out) == FACTOR_CASES:
                return out
    raise RuntimeError("not enough pairs in the work band")


def workload_cases(name: str, seed: int):
    """The case list (CLI argv lists) of a workload for a seed."""
    if name == "orbit-k2":
        return [ORBIT_K2]
    if name == "upgrade-hecke":
        return [FLAGSHIP, HECKE_K6]
    if name == "factor-large":
        return [["factor", "--k", "4", "--d1", str(a), "--d2", str(b), "--pp", "1=1"]
                for a, b in factor_pairs(seed)]
    if name == "selftest":
        return [["selftest", "--seed", str(seed)]]
    raise KeyError(name)


WORKLOADS = ("orbit-k2", "upgrade-hecke", "factor-large", "selftest")

# ---------------------------------------------------------------------------
# one case process
# ---------------------------------------------------------------------------


def spawn(mode: str, argv, workdir: str):
    """Run child.py once; returns its record plus parent-side timings."""
    record = os.path.join(workdir, "record.json")
    doc = os.path.join(workdir, "doc.json")
    for path in (record, doc):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable]
    if mode == "trace":
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "child.py"), record, mode]
    if argv:
        cmd += list(argv) + ["--output", doc]
    env = {k: v for k, v in os.environ.items() if k != "HGREEN_DIGITS"}
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = str(SRC)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=workdir, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=CASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
        stderr += f"\ncase killed after {CASE_TIMEOUT_S} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - t0
    res = {"wall_s": wall, "returncode": proc.returncode, "stderr": stderr}
    try:
        with open(record) as fh:
            rec = json.load(fh)
    except (OSError, ValueError):
        return res
    res.update(rec)
    res["setup_s"] = rec["ready"] - t0
    if os.path.exists(doc):
        with open(doc) as fh:
            res["doc_text"] = fh.read()
    return res


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def case_key(argv) -> str:
    return " ".join(argv)


def exact_fields(doc: dict):
    """The byte-reproducible part of a CLI document."""
    if doc["command"] == "selftest":
        return {"suites": [[s["suite"], s["checks"], s["pass"]] for s in doc["suites"]],
                "pass": doc["pass"]}
    out = {"kappa": doc["kappa"], "exponents": doc["exponents"]}
    if doc["command"] == "verify":
        out["unit_power_rational"] = doc["unit_power_rational"]
    return out


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def check_case(argv, res, refs):
    """(failure reason or None, pinned?, |lhs - rhs|/tol or None)."""
    if res.get("exit") != 0:
        why = res.get("error") or res["stderr"].strip()[-300:]
        return f"exit {res.get('exit', res['returncode'])} {why}".strip(), False, None
    try:
        doc = json.loads(res["doc_text"])
    except (KeyError, ValueError):
        return "no JSON document", False, None
    err = None
    if doc["command"] == "verify":
        if not doc["converged"]:
            return "converged: false", False, None
        if not doc["residual"] < doc["residual_threshold"]:
            return "residual above threshold", False, None
        err = abs(float(doc["lhs"]) - doc["rhs_value"]) / doc["tol"]
        if not err <= 1.0:
            return f"|lhs - rhs| = {err:.3g} tol", False, err
    if doc["command"] == "selftest" and not doc["pass"]:
        return "selftest failed", False, None
    ref = refs.get(case_key(argv))
    if ref is None:
        return None, False, err
    if canonical(exact_fields(doc)) != canonical(ref["exact"]):
        return "exact fields differ from the pinned reference", True, err
    if "lhs" in ref and not abs(float(doc["lhs"]) - float(ref["lhs"])) <= doc["tol"]:
        return "lhs moved by more than tol from the pinned value", True, err
    return None, True, err


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------


def run_pass(cases, mode, workdir, refs, log):
    """Run every case once; per-pass sums and per-case details."""
    p = {"solve_s": 0.0, "wall_s": 0.0, "peak_rss_mb": 0.0, "setup": [],
         "cases": [], "failed": 0, "unchecked": 0, "value_err": [], "traces": []}
    for argv in cases:
        res = spawn(mode, argv, workdir)
        reason, pinned, err = check_case(argv, res, refs)
        p["solve_s"] += res.get("solve_s", 0.0)
        p["wall_s"] += res["wall_s"]
        p["peak_rss_mb"] = max(p["peak_rss_mb"], res.get("maxrss_kb", 0) / 1024)
        if "setup_s" in res:
            p["setup"].append(res["setup_s"])
        if err is not None:
            p["value_err"].append(err)
        if reason is not None:
            p["failed"] += 1
        elif not pinned:
            p["unchecked"] += 1
        if mode == "trace" and "trace" in res:
            p["traces"].append({**res["trace"], "imports": parse_importtime(res["stderr"])})
        p["cases"].append({"case": case_key(argv), "solve_s": res.get("solve_s"),
                           "wall_s": res["wall_s"], "failure": reason,
                           "pinned": pinned})
        log(f"  {mode} {case_key(argv)}: solve {res.get('solve_s', 0):.3f} s, "
            f"wall {res['wall_s']:.3f} s"
            + (f", FAILED: {reason}" if reason else "" if pinned else ", unchecked"))
    return p


def median(values):
    return statistics.median(values) if values else 0.0


# (metric, span name, field) for per-layer metrics read from span summaries.
SPAN_METRICS = [
    ("cli.main_self_s", "cli.main", 0),
    ("mforms.check_pp_s", "mforms.check_pp", 0),
    ("qfield.field_s", "qfield.field", 0),
    ("qfield.class_group_s", "qfield.class_group", 0),
    ("qfield.generator_of_s", "qfield.generator_of", 0),
    ("qfield.valuation_s", "qfield.valuation", 0),
    ("qfield.valuation_calls", "qfield.valuation", 1),
    ("qfield.factor_ideal_s", "qfield.factor_ideal", 0),
    ("qfield.factor_ideal_calls", "qfield.factor_ideal", 1),
    ("qfield.factorint_s", "qfield.factorint", 0),
    ("qfield.factorint_calls", "qfield.factorint", 1),
    ("finquad.rho_KF_self_s", "finquad.rho_KF", 0),
    ("finquad.rho_KF_calls", "finquad.rho_KF", 1),
    ("finquad.sqrt_support_s", "finquad.sqrt_support", 0),
    ("thetacoef.lattice_s", "thetacoef.lattice", 0),
    ("thetacoef.ideal_s", "thetacoef.ideal", 0),
    ("thetacoef.C_chi_s", "thetacoef.C_chi", 0),
    ("factor.gamma_exponents_self_s", "factor.gamma_exponents", 0),
    ("factor.trace_slice_s", "factor.trace_slice", 0),
    ("factor.reconcile_s", "factor.reconcile", 0),
    ("greens.enum_self_s", "greens.G_k_hecke", 0),
    ("greens.upgrade_self_s", "greens.upgrade", 0),
    ("greens.legendre_Q_s", "greens.legendre_Q", 0),
    ("greens.legendre_Q_calls", "greens.legendre_Q", 1),
    ("greens.tail_s", "greens.legendre_Q_integral", 0),
]
COUNTER_METRICS = [
    ("thetacoef.coefficients", "coefficients"),
    ("factor.slice_elements", "slice_elements"),
    ("greens.orbit_terms", "orbit_terms"),
    ("greens.terms_enumerated", "terms_enumerated"),
    ("greens.doublings", "doublings"),
    ("greens.hecke_sums", "hecke_sums"),
]
# (metric, module): cumulative import time; `hgreen.cli` includes the package.
IMPORT_METRICS = [
    ("cli.import_s", "hgreen.cli"),
    ("cli.import_sympy_s", "sympy"),
    ("cli.import_numpy_s", "numpy"),
    ("cli.import_mpmath_s", "mpmath"),
]


def merge_traces(traces):
    """Sum span summaries of traced processes: {span: [self s, calls]}, counters."""
    spans, counters = {}, {}
    for t in traces:
        for name, (self_s, calls) in t["layers"].items():
            acc = spans.setdefault(name, [0.0, 0])
            acc[0] += self_s
            acc[1] += calls
        for key, val in t["counters"].items():
            if key == "density_max_dev":
                counters[key] = max(counters.get(key, 0.0), val)
            else:
                counters[key] = counters.get(key, 0) + val
    return spans, counters


def layer_metrics(traced, untraced, value_err):
    """Per-layer metrics: medians over traced passes of per-pass sums."""
    per_pass = []
    for p in traced:
        spans, counters = merge_traces(p["traces"])
        m = {}
        for metric, span, field in SPAN_METRICS:
            m[metric] = spans.get(span, [0.0, 0])[field]
        for metric, key in COUNTER_METRICS:
            m[metric] = counters.get(key, 0)
        m["greens.density_max_dev"] = counters.get("density_max_dev", 0.0)
        m["greens.reenum_ratio"] = (m["greens.terms_enumerated"] / m["greens.orbit_terms"]
                                    if m["greens.orbit_terms"] else 0.0)
        m["greens.q_calls_per_doubling"] = (m["greens.legendre_Q_calls"] / m["greens.doublings"]
                                            if m["greens.doublings"] else 0.0)
        m["solve_s"] = p["solve_s"]
        per_pass.append(m)
    out = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
    traced_solve = out.pop("solve_s")
    imports = [t["imports"] for p in traced for t in p["traces"]]
    for metric, module in IMPORT_METRICS:
        out[metric] = median([i.get(module, 0.0) for i in imports])
    untraced_solve = median([p["solve_s"] for p in untraced]) or float("inf")
    out["greens.terms_per_s"] = out["greens.orbit_terms"] / untraced_solve
    out["trace.overhead"] = traced_solve / untraced_solve - 1
    out["verify.value_err_over_tol"] = value_err or 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hgreen" / "cli.py").is_file():
        print(f"perfbench: no hgreen sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    refs = json.loads(REFS.read_text())

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    cases = workload_cases(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        env_run = spawn("env", None, workdir)   # also warms the bytecode cache
        if "env" not in env_run:
            log(f"perfbench: hgreen does not import:\n{env_run['stderr']}")
            return 2
        env = env_run["env"]
        log(f"env: {canonical(env)}")
        setup = [spawn("setup", None, workdir).get("setup_s") for _ in range(SETUP_SPAWNS)]

        untraced, traced = [], []
        start = time.monotonic()
        while True:
            untraced.append(run_pass(cases, "run", workdir, refs, log))
            # CPU speed drifts over seconds: sample set-up across the run
            setup.append(spawn("setup", None, workdir).get("setup_s"))
            if args.trace:
                traced.append(run_pass(cases, "trace", workdir, refs, log))
            # stop at the pass count whose end lies closest to --seconds
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(untraced) / 2 > args.seconds:
                break

    passes = untraced + traced
    attempted = sum(len(p["cases"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    unchecked = sum(p["unchecked"] for p in passes)
    setup = [s for s in setup if s is not None] + [s for p in untraced for s in p["setup"]]
    # CPU speed on shared hosts drifts in phases of seconds: a pass mean
    # covers the whole run where the median of 2-4 passes jumps between phases.
    end_to_end = {
        "setup_s": median(setup),
        "solve_s": statistics.mean(p["solve_s"] for p in untraced),
        "wall_s": statistics.mean(p["wall_s"] for p in untraced),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
    }
    value_err = max((e for p in untraced for e in p["value_err"]), default=None)
    values = layer_metrics(traced, untraced, value_err) if args.trace else end_to_end
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "cases": [case_key(c) for c in cases],
        "samples": {"setup_s": len(setup), "passes": len(untraced),
                    "traced_passes": len(traced)},
        "attempted": attempted, "failed": failed, "unchecked": unchecked,
        "end_to_end": end_to_end, "metrics": values,
        "value_err_over_tol": value_err,
        "spans_self_s_calls": merge_traces(t for p in traced for t in p["traces"])[0],
        "passes": [{k: p[k] for k in ("solve_s", "wall_s", "peak_rss_mb", "cases")}
                   for p in passes],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    log(f"{args.workload}: {len(untraced)} passes, {len(setup)} set-up samples, "
        f"{attempted} cases, {failed} failed, {unchecked} unchecked; report {OUT / name}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
