"""Span recorder wrapped around the package's public functions.

``install()`` replaces functions by name in the modules that call them
(``horseshoe.cli``, ``horseshoe.conditions``, ``horseshoe.cache``), so the
program itself carries no tracing.  Each call records a span (name, parent,
start, end) in memory, plus work counts taken from its arguments or its
result.  A span's self time is its duration minus that of its child spans;
stage spans are reported whole, as they partition the pipeline.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

MIB = float(1 << 20)

# (module, attribute, span name): one span per call of the function bound
# to that name in that module
_TARGETS = (
    ("cli", "make_baker", "maps.build"),
    ("cli", "make_affine_example", "maps.build"),
    ("cli", "validate_hyperbolicity", "maps.validate_hyperbolicity"),
    ("cli", "m_inventory", "symbolic.m_inventory"),
    ("conditions", "m_inventory", "symbolic.m_inventory"),
    ("cli", "save_inventory", "symbolic.save_inventory"),
    ("conditions", "cylinder_table", "symbolic.cylinder_table"),
    ("cli", "fatness_fit", "conditions.fatness_fit"),
    ("conditions", "ntr_sum", "conditions.ntr_sum"),
    ("conditions", "manifold_envelope", "conditions.manifold_envelope"),
    ("conditions", "tail_slope_hull", "conditions.tail_slope_hull"),
    ("cli", "ulam_acip", "measures.ulam_acip"),
    ("cli", "lift_srb", "measures.lift_srb"),
    ("cli", "save_srb", "measures.save_srb"),
    ("cli", "tsujii_criterion", "measures.tsujii_criterion"),
    ("cli", "run_diagnostics", "diagnostics.run_diagnostics"),
    ("cli", "emit_strip_polygons", "figures.emit_strip_polygons"),
    ("cache", "write_blob", "cache.write_blob"),
    ("cache", "file_sha256", "cache.file_sha256"),
)


def _count_words(t, args, out):
    t.counts["symbolic.m_inventory_calls"] += 1
    t.counts["symbolic.words"] += len(out.words)


def _count_cylinders(t, args, out):
    t.counts["symbolic.cylinder_words"] += len(out[0])


def _count_pairs(t, args, out):
    t.counts["conditions.pairs_classified"] += out.meta.get("classified", out.n_pairs // 2)


def _count_envelope(t, args, out):
    t.counts["conditions.manifold_envelope_calls"] += 1
    t.envelope_words.add(tuple(int(s) for s in args[1]))


def _count_hull(t, args, out):
    t.counts["conditions.tail_slope_hull_calls"] += 1


def _count_acip(t, args, out):
    t.counts["measures.acip_sweeps"] += out.sweeps


def _count_lift(t, args, out):
    t.counts["measures.sample_steps"] += out.n_samples * out.iterations_used
    t.counts["_samples"] += out.n_samples
    t.counts["_kept"] += out.kept


def _count_polygons(t, args, out):
    t.counts["figures.polygons"] += len(out)


def _count_written(t, args, out):
    t.counts["_written_bytes"] += os.path.getsize(args[0])


def _count_hashed(t, args, out):
    t.counts["_hashed_bytes"] += os.path.getsize(args[0])


_COUNTERS = {
    "symbolic.m_inventory": _count_words,
    "symbolic.cylinder_table": _count_cylinders,
    "conditions.ntr_sum": _count_pairs,
    "conditions.manifold_envelope": _count_envelope,
    "conditions.tail_slope_hull": _count_hull,
    "measures.ulam_acip": _count_acip,
    "measures.lift_srb": _count_lift,
    "figures.emit_strip_polygons": _count_polygons,
    "cache.write_blob": _count_written,
    "cache.file_sha256": _count_hashed,
}


class Tracer:
    """In-memory spans as [name, parent index, start, end], plus counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.envelope_words = set()
        self._open = []

    def wrap(self, name, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else None,
                    time.perf_counter(), None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self, args, out)
            return out

        return traced

    def totals(self):
        """Per span name: (whole duration, self duration), summed over calls."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        whole, own = Counter(), Counter()
        for k, (name, _, t0, t1) in enumerate(self.spans):
            whole[name] += t1 - t0
            own[name] += t1 - t0 - child[k]
        return whole, own

    def report(self):
        """Every per-layer figure of one pipeline run, by metric name."""
        whole, own = self.totals()
        c = self.counts
        out = {}
        for name in own:
            if name.startswith("cli.stage."):
                out[name + "_s"] = whole[name]
            elif name == "cli.run_pipeline":
                out["cli.pipeline_s"] = whole[name]
            else:
                out[name + "_s"] = own[name]
        stages = sum(v for k, v in whole.items() if k.startswith("cli.stage."))
        out["cli.outside_stages_s"] = whole["cli.run_pipeline"] - stages
        for key, val in c.items():
            if not key.startswith("_"):
                out[key] = val
        out["symbolic.words_per_s"] = c["symbolic.words"] / own["symbolic.m_inventory"]
        out["conditions.pairs_per_s"] = (c["conditions.pairs_classified"]
                                         / own["conditions.ntr_sum"])
        out["conditions.envelope_recompute_ratio"] = (
            c["conditions.manifold_envelope_calls"] / len(self.envelope_words))
        out["measures.sample_steps_per_s"] = (c["measures.sample_steps"]
                                              / own["measures.lift_srb"])
        out["measures.kept_fraction"] = c["_kept"] / c["_samples"]
        out["cache.write_mb"] = c["_written_bytes"] / MIB
        out["cache.hashed_mb"] = c["_hashed_bytes"] / MIB
        return out

    def write(self, path):
        """Write the raw spans, one JSON list per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install():
    """Wrap every target function and every pipeline stage; returns the tracer."""
    from horseshoe import cache, cli, conditions

    modules = {"cli": cli, "conditions": conditions, "cache": cache}
    tracer = Tracer()
    for mod, attr, name in _TARGETS:
        setattr(modules[mod], attr, tracer.wrap(name, getattr(modules[mod], attr)))
    cli.STAGES = tuple((name, tracer.wrap(f"cli.stage.{name}", fn))
                       for name, fn in cli.STAGES)
    cli.stage_verdict = tracer.wrap("cli.stage.verdict", cli.stage_verdict)
    return tracer
