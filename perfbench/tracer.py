"""Span recorder installed around hgreen's public functions from outside src/.

Each wrapped call records a span (name, start, end, parent span).  Spans stay
in memory; `Recorder.summary()` folds them into per-name self time and call
counts once the traced process is done.  A layer's self time is its spans'
durations minus the time covered by their child spans.

Wrappers replace a name wherever a caller looks it up: every hgreen module
attribute bound to the original object is rebound (for example `rho_KF` is
imported into `hgreen.factor`, `factorint` into three modules), and methods
are replaced on their class.  The one private target, the orbit sum's mpmath
upgrade pass, splits the numeric side into its stages: float enumeration,
upgrade pass, Q evaluation, tail.  FieldElem arithmetic
is deliberately left unwrapped: it runs ~1e5 times per case and would swamp
the measurement.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute); "Class.method" attributes patch the class.
TARGETS = [
    ("mforms.check_pp", "hgreen.mforms", "check_principal_part"),
    ("qfield.field", "hgreen.qfield", "field"),
    ("qfield.class_group", "hgreen.qfield", "QuadField.narrow_class_group"),
    ("qfield.generator_of", "hgreen.qfield", "QuadField.generator_of"),
    ("qfield.valuation", "hgreen.qfield", "FracIdeal.valuation"),
    ("qfield.factor_ideal", "hgreen.qfield", "QuadField.factor_ideal"),
    ("qfield.factorint", "hgreen.qfield", "factorint"),
    ("finquad.rho_KF", "hgreen.finquad", "rho_KF"),
    ("finquad.sqrt_support", "hgreen.finquad", "SqrtSupport.support"),
    ("thetacoef.lattice", "hgreen.thetacoef", "lattice_route"),
    ("thetacoef.lattice", "hgreen.thetacoef", "LatticeRoute.c_chi"),
    ("thetacoef.ideal", "hgreen.thetacoef", "ideal_route"),
    ("thetacoef.ideal", "hgreen.thetacoef", "IdealRoute.c_chi"),
    ("thetacoef.C_chi", "hgreen.thetacoef", "C_chi"),
    ("factor.gamma_exponents", "hgreen.factor", "gamma_exponents"),
    ("factor.trace_slice", "hgreen.factor", "trace_slice"),
    ("factor.reconcile", "hgreen.factor", "reconcile"),
    ("greens.G_k_hecke", "hgreen.greens", "G_k_hecke"),
    ("greens.upgrade", "hgreen.greens", "_PairOrbitSum._upgrade_sum"),
    ("greens.legendre_Q", "hgreen.greens", "legendre_Q"),
    ("greens.legendre_Q_integral", "hgreen.greens", "legendre_Q_integral"),
]

# Exact orbit-point density per unit of cosh distance: 2*pi / vol(PSL2(Z)\H).
ORBIT_DENSITY = 6.0


def _count_coefficient(rec, result):
    rec.counters["coefficients"] += 1


def _count_slice(rec, result):
    rec.counters["slice_elements"] += len(result.elements)


def _read_hecke_diagnostics(rec, result):
    """Orbit counters from G_k_hecke's own diagnostics, one entry per coset."""
    c = rec.counters
    for cd in result[1]["cosets"]:
        hist = cd["history"]
        c["hecke_sums"] += 1
        c["orbit_terms"] += cd["terms"]
        c["terms_enumerated"] += sum(h["terms"] for h in hist)
        c["doublings"] += len(hist)
        for prev, cur in zip(hist, hist[1:]):
            density = (cur["terms"] - prev["terms"]) / (cur["T"] - prev["T"])
            dev = abs(density - ORBIT_DENSITY)
            c["density_max_dev"] = max(c["density_max_dev"], dev)


HOOKS = {
    "LatticeRoute.c_chi": _count_coefficient,
    "IdealRoute.c_chi": _count_coefficient,
    "C_chi": _count_coefficient,
    "trace_slice": _count_slice,
    "G_k_hecke": _read_hecke_diagnostics,
}

COUNTERS = ("coefficients", "slice_elements", "hecke_sums", "orbit_terms",
            "terms_enumerated", "doublings", "density_max_dev")


class Recorder:
    """In-memory span list plus counters for one traced process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def install(self):
        """Wrap every TARGETS entry in the loaded hgreen modules."""
        import hgreen.thetacoef  # noqa: F401  (imported lazily by selftest)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "hgreen" or n.startswith("hgreen."))]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            hook = HOOKS.get(attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def summary(self):
        """{name: [self seconds, calls]} plus the counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = layers.setdefault(name, [0.0, 0])
            entry[0] += end - start - child[i]
            entry[1] += 1
        return {"layers": layers, "counters": self.counters}


def parse_importtime(stderr: str):
    """Cumulative seconds per module from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        try:
            us = int(cumulative)
        except ValueError:      # the header line
            continue
        name = name.strip()
        out[name] = out.get(name, 0.0) + us / 1e6
    return out
