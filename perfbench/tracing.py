"""Outside-in tracing of realops for the benchmark's traced runs.

``Tracer.installed()`` swaps wrappers in for a fixed set of realops
functions and numpy/scipy kernels, and puts the originals back on exit,
so untraced passes run the program untouched.  Nothing here edits the
program: a function is wrapped wherever a realops module holds a
reference to it (``from .optim import polyak_minimize`` makes a second
one in ``opspace``).

Two kinds of wrapper:

* a *span* per call of a layer function: name, start, end, parent span and
  request id, kept in memory and written out when the run ends;
* an *aggregate* for calls too many to keep one by one (the kernels and
  ``top_singular_triple``, hundreds of thousands per run): call count,
  inclusive time and, for SVD, input size, summed per enclosing span.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so self times over a pass
sum to the time spent inside root spans.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import numpy as np
import scipy.linalg
import scipy.optimize

from workloads import VERIFY_SUITES

#: a polish "beats" Polyak when it lowers the value by more than the
#: quotient solver's tolerance
POLISH_TOL = 1e-7
#: a restart "hits" when it ends within this of the search's final bound
RESTART_HIT_TOL = 1e-9

#: (module, attribute, span name); the CLI entry point is the root span
SPAN_TARGETS = (
    ("realops.cli", "run", "cli.run"),
    ("realops.opspace", "quotient_level_norm", "opspace.quotient_level_norm"),
    ("realops.opspace", "theta_dual_search", "opspace.theta_dual_search"),
    ("realops.opspace", "cb_norm_lower_search",
     "opspace.cb_norm_lower_search"),
    ("realops.opspace", "level_norm", "opspace.level_norm"),
    ("realops.quantization", "max_l1_norm_bounds",
     "quantization.max_l1_norm_bounds"),
    ("realops.mideal", "certify_left_m_projection",
     "mideal.certify_left_m_projection"),
    ("realops.optim", "polyak_minimize", "optim.polyak_minimize"),
    ("realops.optim", "smoothed_spectral_min", "optim.smoothed_spectral_min"),
    ("realops.optim", "ratio_ascent", "optim.ratio_ascent"),
    ("realops.optim", "seesaw_ascent", "optim.seesaw_ascent"),
)

#: the per-layer metrics of a traced run: (name, unit, better)
PER_LAYER = [(f"suites.{s}.s", "s", "lower") for s in VERIFY_SUITES] + [
    ("opspace.quotient_level_norm.calls", "count", "lower"),
    ("opspace.quotient_level_norm.s", "s", "lower"),
    ("opspace.quotient_level_norm.self_s", "s", "lower"),
    ("opspace.OpSpace.realization_matrix.calls", "count", "lower"),
    ("opspace.OpSpace.realization_matrix.s", "s", "lower"),
    ("optim.polyak_minimize.calls", "count", "lower"),
    ("optim.polyak_minimize.s", "s", "lower"),
    ("optim.smoothed_spectral_min.calls", "count", "lower"),
    ("optim.smoothed_spectral_min.s", "s", "lower"),
    ("optim.bfgs.stages", "count", "lower"),
    ("optim.bfgs.nit", "count", "lower"),
    ("optim.bfgs.nfev", "count", "lower"),
    ("optim.polish_improved_frac", "ratio", "higher"),
    ("kernel.eigh.calls", "count", "lower"),
    ("kernel.eigh.s", "s", "lower"),
    ("quantization.max_l1_norm_bounds.calls", "count", "lower"),
    ("quantization.max_l1_norm_bounds.s", "s", "lower"),
    ("quantization.max_l1_norm_bounds.self_s", "s", "lower"),
    ("kernel.kron.calls", "count", "lower"),
    ("kernel.kron.s", "s", "lower"),
    ("kernel.expm.calls", "count", "lower"),
    ("kernel.expm.s", "s", "lower"),
    ("opspace.theta_dual_search.calls", "count", "lower"),
    ("opspace.theta_dual_search.s", "s", "lower"),
    ("opspace.theta_dual_search.self_s", "s", "lower"),
    ("opspace.theta_dual_search.restart_hit_frac", "ratio", "higher"),
    ("opspace.cb_norm_lower_search.calls", "count", "lower"),
    ("opspace.cb_norm_lower_search.s", "s", "lower"),
    ("mideal.certify_left_m_projection.calls", "count", "lower"),
    ("mideal.certify_left_m_projection.s", "s", "lower"),
    ("optim.ratio_ascent.calls", "count", "lower"),
    ("optim.ratio_ascent.s", "s", "lower"),
    ("optim.seesaw_ascent.calls", "count", "lower"),
    ("optim.seesaw_ascent.s", "s", "lower"),
    ("opspace.level_norm.calls", "count", "lower"),
    ("opspace.level_norm.s", "s", "lower"),
    ("kernel.svd.calls", "count", "lower"),
    ("kernel.svd.s", "s", "lower"),
    ("kernel.svd.elems", "count", "lower"),
    ("optim.top_singular_triple.calls", "count", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

#: metrics that count work rather than time it; they repeat exactly
COUNT_UNITS = ("count", "bytes", "ratio")


class Span:
    __slots__ = ("sid", "parent", "request", "name", "start", "end",
                 "child", "kernels", "info")

    def __init__(self, sid, parent, request, name):
        self.sid, self.parent, self.request, self.name = \
            sid, parent, request, name
        self.start = self.end = 0.0
        self.child = 0.0
        self.kernels: dict[str, list] = {}
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self, origin: float) -> dict:
        return {"id": self.sid, "parent": self.parent,
                "request": self.request, "name": self.name,
                "start": self.start - origin, "end": self.end - origin,
                "kernels": self.kernels, "info": self.info}


class Tracer:
    """Spans and kernel aggregates of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.outside: dict[str, list] = {}    # kernel calls under no span
        self.request = None
        self._stack: list[Span] = []

    # -- wrappers ------------------------------------------------------

    def span(self, name, fn, on_return=None):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sp = Span(len(spans), parent.sid if parent else None,
                      self.request, name)
            spans.append(sp)
            stack.append(sp)
            sp.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                sp.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child += sp.end - sp.start
            if on_return is not None:
                sp.info = on_return(out)
            return out
        return wrapper

    def aggregate(self, name, fn, extra=None):
        """Wrap ``fn``; per enclosing span count calls, time and
        ``extra(args, out)``, a tuple of further counters."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            extras = extra(args, out) if extra is not None else ()
            table = stack[-1].kernels if stack else self.outside
            acc = table.get(name)
            if acc is None:
                acc = table[name] = [0, 0.0] + [0] * len(extras)
            acc[0] += 1
            acc[1] += dt
            for i, v in enumerate(extras):
                acc[2 + i] += v
            return out
        return wrapper

    # -- installation --------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        import realops.cli  # noqa: F401  (loads every realops module)
        from realops import opspace, suites
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        def patch_everywhere(original, new):
            for modname, mod in list(sys.modules.items()):
                if modname == "realops" or modname.startswith("realops."):
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            patch(mod, attr, new)

        hooks = {"optim.polyak_minimize": lambda out: float(out[0]),
                 "optim.smoothed_spectral_min": lambda out: float(out[0]),
                 "opspace.theta_dual_search": _restart_hits}
        for modname, attr, name in SPAN_TARGETS:
            original = getattr(sys.modules[modname], attr)
            patch_everywhere(original, self.span(name, original,
                                                 hooks.get(name)))
        # run_suite calls suite_mideal by name and the others through
        # SUITES, so both references get the wrapper
        for name in VERIFY_SUITES:
            wrapper = self.span(f"suites.{name}", suites.SUITES[name])
            undo.append((suites.SUITES, name, suites.SUITES[name]))
            suites.SUITES[name] = wrapper
            patch(suites, f"suite_{name}", wrapper)
        patch(opspace.OpSpace, "realization_matrix",
              self.span("opspace.OpSpace.realization_matrix",
                        opspace.OpSpace.realization_matrix))
        triple = sys.modules["realops.optim"].top_singular_triple
        patch_everywhere(triple, self.aggregate("optim.top_singular_triple",
                                                triple))
        patch(np.linalg, "svd", self.aggregate(
            "kernel.svd", np.linalg.svd, lambda a, out: (np.size(a[0]),)))
        patch(np.linalg, "eigh", self.aggregate("kernel.eigh",
                                                np.linalg.eigh))
        patch(np, "kron", self.aggregate("kernel.kron", np.kron))
        patch(scipy.linalg, "expm", self.aggregate("kernel.expm",
                                                   scipy.linalg.expm))
        patch(scipy.optimize, "minimize", self.aggregate(
            "optim.bfgs", scipy.optimize.minimize,
            lambda a, out: (int(out.nit), int(out.nfev))))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def self_time_total(self) -> float:
        return sum(sp.duration - sp.child for sp in self.spans)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, every one in PER_LAYER except
        those the run supplies (wall time, report bytes, overhead)."""
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        excl: dict[str, float] = {}
        kern: dict[str, list] = {}
        for table in [self.outside] + [sp.kernels for sp in self.spans]:
            for name, acc in table.items():
                tot = kern.setdefault(name, [0] * len(acc))
                for i, v in enumerate(acc):
                    tot[i] += v
        for sp in self.spans:
            calls[sp.name] = calls.get(sp.name, 0) + 1
            incl[sp.name] = incl.get(sp.name, 0.0) + sp.duration
            excl[sp.name] = excl.get(sp.name, 0.0) + sp.duration - sp.child
        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            layer, _, stat = name.rpartition(".")
            if layer in kern and stat in ("calls", "s"):
                out[name] = kern[layer][0 if stat == "calls" else 1]
            elif stat == "calls":
                out[name] = calls.get(layer, 0)
            elif stat == "s":
                out[name] = incl.get(layer, 0.0)
            elif stat == "self_s":
                out[name] = excl.get(layer, 0.0)
        zero = [0, 0.0, 0, 0]
        out["kernel.svd.elems"] = kern.get("kernel.svd", zero)[2]
        bfgs = kern.get("optim.bfgs", zero)
        out["optim.bfgs.stages"] = bfgs[0]
        out["optim.bfgs.nit"] = bfgs[2]
        out["optim.bfgs.nfev"] = bfgs[3]
        out["optim.polish_improved_frac"] = self._polish_improved_frac()
        hits = restarts = 0
        for sp in self.spans:
            if sp.name == "opspace.theta_dual_search":
                hits += sp.info[0]
                restarts += sp.info[1]
        out["opspace.theta_dual_search.restart_hit_frac"] = \
            hits / restarts if restarts else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def _polish_improved_frac(self) -> float:
        """Share of quotient solves whose polish beat Polyak by > tol."""
        children: dict[int, dict[str, float]] = {}
        for sp in self.spans:
            if sp.name in ("optim.polyak_minimize",
                           "optim.smoothed_spectral_min") and \
                    sp.parent is not None:
                children.setdefault(sp.parent, {})[sp.name] = sp.info
        solves = improved = 0
        for sp in self.spans:
            if sp.name != "opspace.quotient_level_norm":
                continue
            solves += 1
            vals = children.get(sp.sid, {})
            polyak = vals.get("optim.polyak_minimize")
            polish = vals.get("optim.smoothed_spectral_min")
            if polyak is not None and polish is not None and \
                    polyak - polish > POLISH_TOL:
                improved += 1
        return improved / solves if solves else 0.0

    def dump(self, fh, pass_index: int) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        for sp in self.spans:
            rec = sp.as_json(origin)
            rec["pass"] = pass_index
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _restart_hits(result) -> tuple[int, int]:
    vals = result.restart_values
    return (sum(1 for v in vals if abs(v - result.lower) <= RESTART_HIT_TOL),
            len(vals))
