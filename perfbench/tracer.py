"""Per-layer tracing for the benchmark, from outside the library.

``Tracer.install`` replaces selected public functions of ``nakayama`` with
wrappers.  A wrapper is bound under every name the library looks the
function up by: ``poset`` imports ``reject`` with a from-import, so patching
``algebra.reject`` alone would miss the calls made from ``poset``.  Spanned
functions record (name, start, end, parent) in memory; hot leaves only
count calls, because a span per call would swamp what it measures.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, span name); several functions may share a span name.
SPANNED = [
    ("cli", "main", "cli.main"),
    ("poset", "stt_poset", "poset.stt_poset"),
    ("poset", "Poset.hasse", "poset.hasse"),
    ("poset", "classify_quotient_pairs", "poset.classify"),
    ("poset", "double_hasse", "poset.double_hasse"),
    ("poset", "hasse_dot", "poset.render"),
    ("poset", "hasse_json", "poset.render"),
    ("poset", "pair_label", "poset.render"),
    ("tautilt", "is_support_tau_tilting", "tautilt.is_support_tau_tilting"),
    ("tautilt", "enumerate_stt", "tautilt.enumerate_stt"),
    ("geometry", "enumerate_restricted", "geometry.enumerate_restricted"),
    ("geometry", "triangulation_to_tau_tilt", "geometry.triangulation_to_tau_tilt"),
    ("geometry", "tau_tilt_to_triangulation", "geometry.tau_tilt_to_triangulation"),
    ("sequences", "x_of_sequence", "sequences.x_of_sequence"),
    ("sequences", "enumerate_Z_restricted", "sequences.enumerate_Z_restricted"),
    ("algebra", "reject", "algebra.reject"),
    ("algebra", "projective_injectives", "algebra.projective_injectives"),
    ("counting", "verify_tables", "counting.verify_tables"),
    ("verify", "triple_bijection_holds", "verify.triple_bijection_holds"),
]

COUNTED = [
    ("poset", "geq", "poset.geq"),
    ("modcat", "pair_tau_rigid", "modcat.pair_tau_rigid"),
    ("modcat", "support", "modcat.support"),
    ("geometry", "make_triangulation", "geometry.make_triangulation"),
]

# Every per-layer metric and its unit, emitted on every workload (0 where
# the layer does not run).
LAYER_METRICS = {
    "poset.stt_poset.self_s": "s",
    "poset.geq.calls": "count",
    "poset.hasse.self_s": "s",
    "poset.hasse.arrows": "count",
    "tautilt.is_support_tau_tilting.calls": "count",
    "tautilt.is_support_tau_tilting.self_s": "s",
    "tautilt.is_support_tau_tilting.accept_ratio": "ratio",
    "poset.classify.self_s": "s",
    "poset.classify.n1": "count",
    "poset.classify.n2": "count",
    "poset.classify.n3": "count",
    "poset.double_hasse.self_s": "s",
    "tautilt.enumerate_stt.self_s": "s",
    "tautilt.enumerate_stt.pairs": "count",
    "modcat.pair_tau_rigid.calls": "count",
    "modcat.pair_tau_rigid.hit_ratio": "ratio",
    "modcat.support.calls": "count",
    "cli.main.self_s": "s",
    "cli.bytes_out": "bytes",
    "poset.render.self_s": "s",
    "geometry.enumerate_restricted.self_s": "s",
    "geometry.triangulation_to_tau_tilt.self_s": "s",
    "geometry.tau_tilt_to_triangulation.self_s": "s",
    "geometry.make_triangulation.calls": "count",
    "sequences.x_of_sequence.self_s": "s",
    "sequences.enumerate_Z_restricted.self_s": "s",
    "algebra.reject.calls": "count",
    "algebra.reject.self_s": "s",
    "algebra.projective_injectives.self_s": "s",
    "counting.verify_tables.self_s": "s",
    "verify.triple_bijection_holds.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _record_outcome(name, out, counts):
    """Counts taken from a spanned function's result."""
    if name == "tautilt.is_support_tau_tilting":
        counts[name + ".accepted"] += out is not None
    elif name == "tautilt.enumerate_stt":
        counts[name + ".pairs"] += len(out)
    elif name == "poset.hasse":
        counts[name + ".arrows"] += len(out.arrows)
    elif name == "poset.classify":
        for cls, members in zip(("n1", "n2", "n3"), out):
            counts[f"{name}.{cls}"] += len(members)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            counts[name + ".calls"] += 1
            _record_outcome(name, out, counts)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        if name == "modcat.pair_tau_rigid":
            # A hit is a call that leaves the algebra's _pair_rigid cache
            # the size it was.
            def wrapper(alg, x, y):
                cache = alg.__dict__.get("_pair_rigid")
                before = -1 if cache is None else len(cache)
                out = fn(alg, x, y)
                counts[name + ".calls"] += 1
                counts[name + ".hits"] += before == len(alg.__dict__.get("_pair_rigid", ()))
                return out

            return wrapper

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self):
        """Bind the wrappers under every name the library uses; the library
        must already be imported."""
        import nakayama.verify  # noqa: F401  (cli imports it lazily)

        modules = [m for k, m in sys.modules.items() if k == "nakayama" or k.startswith("nakayama.")]
        for make, table in ((self._spanned, SPANNED), (self._counted, COUNTED)):
            for mod, attr, name in table:
                owner = sys.modules[f"nakayama.{mod}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._bind(cls, meth, make(name, cls.__dict__[meth]))
                    continue
                orig = getattr(owner, attr)
                wrapper = make(name, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._bind(m, key, wrapper)

    def _bind(self, where, key, value):
        self._undo.append((where, key, getattr(where, key)))
        setattr(where, key, value)

    def uninstall(self):
        while self._undo:
            where, key, value = self._undo.pop()
            setattr(where, key, value)

    # -- results --------------------------------------------------------------

    def self_times(self):
        """Self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def layer_metrics(self):
        """Every LAYER_METRICS entry except the overhead ratio, which needs
        an untraced pass to compare with."""
        c, selfs = self.counts, self.self_times()
        values = {}
        for metric in LAYER_METRICS:
            base, _, stat = metric.rpartition(".")
            if stat == "self_s":
                values[metric] = selfs[base]
            elif stat == "accept_ratio":
                values[metric] = c[base + ".accepted"] / c[base + ".calls"] if c[base + ".calls"] else 0.0
            elif stat == "hit_ratio":
                values[metric] = c[base + ".hits"] / c[base + ".calls"] if c[base + ".calls"] else 0.0
            elif metric != "trace.overhead_ratio":
                values[metric] = c[metric]
        return values
