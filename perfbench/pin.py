"""Record the pinned references that run.py compares every case against.

    python3 perfbench/pin.py [--seeds 0-31] [--workload NAME ...]

Runs every case the given seeds generate that has no reference yet, once,
untraced, and stores the exact fields of each output (exponents, kappa, the rational
unit power, selftest check counts and pass flags) plus the verify lhs in
perfbench/refs.json, keyed by the CLI arguments.  Cases that already have an
entry are skipped: references are never updated.  Only run this on a commit
whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range a-b")
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS,
                    help="default: every workload")
    args = ap.parse_args(argv)
    lo, hi = map(int, args.seeds.split("-"))
    refs = json.loads(run.REFS.read_text()) if run.REFS.exists() else {}
    cases = []
    for seed in range(lo, hi + 1):
        for name in args.workload or run.WORKLOADS:
            for argv_ in run.workload_cases(name, seed):
                if argv_ not in cases and run.case_key(argv_) not in refs:
                    cases.append(argv_)
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for argv_ in cases:
            key = run.case_key(argv_)
            res = run.spawn("run", argv_, workdir)
            reason, _, _ = run.check_case(argv_, res, {})
            if reason is not None:
                print(f"{key}: {reason}", file=sys.stderr)
                return 1
            doc = json.loads(res["doc_text"])
            entry = {"exact": run.exact_fields(doc)}
            if doc["command"] == "verify":
                entry["lhs"] = doc["lhs"]
            refs[key] = entry
            print(f"{key}: {res['solve_s']:.2f} s", file=sys.stderr, flush=True)
            run.REFS.write_text("{\n" + ",\n".join(
                f"{json.dumps(k)}: {run.canonical(v)}" for k, v in sorted(refs.items())
            ) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
