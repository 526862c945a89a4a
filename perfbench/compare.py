"""Compare two sets of benchmark reports, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds report files written by run.py (perfbench/.out/*.json).
For every workload and metric present on both sides it prints the median,
the quartile spread as a share of the median, and the change of the median.
A comparison between reports whose environments differ (mpmath backend,
library versions, Python, CPU count or model) is flagged: such numbers do
not measure the code alone.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory):
    """{(workload, trace): [report, ...]} from one directory."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        rep = json.loads(path.read_text())
        out.setdefault((rep["workload"], rep["trace"]), []).append(rep)
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    status = 0
    for key in sorted(base.keys() & new.keys()):
        envs = {json.dumps(r["env"], sort_keys=True) for r in base[key] + new[key]}
        if len(envs) > 1:
            status = 1
            print(f"WARNING {key[0]}: environments differ, numbers are not comparable:")
            for env in sorted(envs):
                print(f"    {env}")
        metrics = sorted(set(base[key][0]["metrics"]) & set(new[key][0]["metrics"]))
        for m in metrics:
            b, bs = summary([r["metrics"][m] for r in base[key]])
            n, ns = summary([r["metrics"][m] for r in new[key]])
            change = f"{(n - b) / abs(b):+.1%}" if b else "n/a"
            print(f"{key[0]:14s} {m:32s} base {b:<12.6g} (iqr {bs:.1%})  "
                  f"new {n:<12.6g} (iqr {ns:.1%})  {change}")
    return status


if __name__ == "__main__":
    sys.exit(main())
