"""Per-layer metrics of a traced run, reduced from its spans and counters.

Layers are named after ``src/repro`` modules.  The answer layers report
block 0, the count window, which is the only traced block: self time
(``*.s``) and counts (``*.calls`` and the like), which repeat exactly for a
fixed seed.  The build layers come from the one traced build.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from measure import median
from oracle import eta_gap_mean
from spans import SETUP_BLOCK, Tracer

#: Every per-layer metric with its unit, in report order.
LAYER_UNITS: Dict[str, str] = {
    "access.build_s": "s",
    "access.template_index_s": "s",
    "access.constraint_index_s": "s",
    "access.kdtree_build_s": "s",
    "access.resolution_s": "s",
    "access.kdtrees": "count",
    "access.resolution_calls": "count",
    "access.index_entries": "count",
    "parse.s": "s",
    "parse.calls": "count",
    "plan.s": "s",
    "plan.calls": "count",
    "plan.tariff_share": "ratio",
    "fetch.s": "s",
    "fetch.index_calls": "count",
    "fetch.rows_returned": "count",
    "fetch.tuples_charged": "count",
    "fetch.budget_used": "ratio",
    "evaluate.s": "s",
    "evaluate.calls": "count",
    "eta.s": "s",
    "eta.calls": "count",
    "eta.gap_mean": "ratio",
    "exact.s": "s",
    "exact.calls": "count",
    "serving.result_hits": "count",
    "serving.result_misses": "count",
    "serving.plan_hits": "count",
    "serving.plan_misses": "count",
    "serving.hit_p50_ms": "ms",
    "serving.miss_p50_ms": "ms",
    "serving.queue_wait_s": "s",
    "serving.program_cache_hits": "count",
    "serving.writes": "count",
    "parallel.dispatches": "count",
    "parallel.select_gather_calls": "count",
    "parallel.retries": "count",
    "trace.overhead_ms": "ms",
    "trace.unattributed_share": "ratio",
}

#: Answer-path span names and the metric prefix each reports under.
ANSWER_LAYERS = ("parse", "plan", "fetch", "evaluate", "eta", "exact")

#: Serving-layer counts of the count window; 0 where a workload has no server.
SERVING_COUNTS = (
    "serving.result_hits",
    "serving.result_misses",
    "serving.plan_hits",
    "serving.plan_misses",
    "serving.program_cache_hits",
    "serving.writes",
)


def layer_metrics(tracer: Tracer, access_schema, report, scored: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Every metric of :data:`LAYER_UNITS` for one traced run."""
    out: Dict[str, float] = {}
    blocks = report.notes["blocks"]

    build = tracer.self_times([SETUP_BLOCK])
    build_calls = tracer.calls([SETUP_BLOCK])
    out["access.build_s"] = tracer.durations("build", [SETUP_BLOCK])
    out["access.template_index_s"] = build.get("access.template_index", 0.0)
    out["access.constraint_index_s"] = build.get("access.constraint_index", 0.0)
    out["access.kdtree_build_s"] = build.get("access.kdtree_build", 0.0)
    out["access.resolution_s"] = build.get("access.resolution", 0.0)
    out["access.kdtrees"] = build_calls["access.kdtree_build"]
    out["access.resolution_calls"] = build_calls["access.resolution"]
    out["access.index_entries"] = sum(c.index.entry_count for c in access_schema.constraints) + sum(
        f.index.entry_count for f in access_schema.families
    )

    window = tracer.self_times([0])
    calls = tracer.calls([0])
    for layer in ANSWER_LAYERS:
        out[f"{layer}.s"] = window.get(layer, 0.0)
        out[f"{layer}.calls"] = calls[layer]
    shares = tracer.samples[0]["plan.tariff_share"]
    out["plan.tariff_share"] = sum(shares) / len(shares) if shares else 0.0
    counters = tracer.counters[0]
    out["fetch.index_calls"] = counters["fetch.index.calls"]
    out["fetch.rows_returned"] = counters["fetch.index.rows"]
    out["fetch.tuples_charged"] = report.counts["tuples_charged"]
    out["fetch.budget_used"] = report.counts["tuples_charged"] / report.counts["budget"]
    out["eta.gap_mean"] = eta_gap_mean(scored)

    for name in SERVING_COUNTS:
        out[name] = report.counts.get(name, 0)
    for name, value in blocks.parallel.items():
        out[f"parallel.{name}"] = value
    out["serving.hit_p50_ms"] = report.notes.get("hit_p50_ms", 0.0)
    out["serving.miss_p50_ms"] = report.notes.get("miss_p50_ms", 0.0)
    out["serving.queue_wait_s"] = report.notes.get("queue_wait_s", 0.0)

    out["trace.unattributed_share"] = window.get("request", 0.0) / tracer.durations("request", [0])
    answers = report.notes["answers"]
    traced = answers.values(lambda block: block == 0)
    untraced = answers.values(lambda block: block > 0)
    out["trace.overhead_ms"] = (median(traced) - median(untraced)) * 1e3
    return {name: out[name] for name in LAYER_UNITS}
