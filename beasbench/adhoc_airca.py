"""Workload ``adhoc-airca``: ad-hoc analytics on the airline-delay dataset.

One closed-loop client sends SQL text to :class:`repro.Beas` directly: the
paper's query mix (``QueryGenerator.workload_mix``: ≈30% aggregate, RA with
0–3 differences, SPC), each query at every α of the ladder, plus one
``answer_exact`` per query.  Every answer is a new plan and no cache sits in
front of ``Beas``, so parse, plan, fetch, evaluate and η refinement all block
the result.

The query set is part of the workload definition: generator seed 3, 72
queries, the mix on which ``airca_q043_agg_spc`` promises η above its
realised RC at α 0.01 and 0.05.  ``--seed`` shuffles the order of a block's
288 operations.  A seed-driven query set would make the figures move with
the queries drawn: answer p50 spread 26% between the quartiles of eight
seeded 72-query mixes, more than any regression bound can absorb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from layers import layer_metrics
from measure import Ledger, Report, Timings, answer_metrics, check_answer, eta_unsound, executor_config
from measure import median, peak_rss_mb, run_blocks, timed_setup
from oracle import Oracle, eta_sound_share
from spans import Tracer, wrap_answer_layers

WORKLOAD = "adhoc-airca"


@dataclass(frozen=True)
class AdhocConfig:
    flights: int = 6000
    airports: int = 60
    mix_seed: int = 3
    mix_size: int = 72
    alphas: Tuple[float, ...] = (0.01, 0.05, 0.2)
    #: Builds per run; ``setup_s`` is their median.
    setup_repeats: int = 3


@dataclass(frozen=True)
class Op:
    kind: str  # "answer" or "exact"
    query: str  # generated query name
    sql: str
    alpha: Optional[float] = None

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.query}" + ("" if self.alpha is None else f"@{self.alpha}")


def make_inputs(config: AdhocConfig, seed: int):
    """The dataset and the seeded order of one block's operations."""
    from repro.workloads import airca
    from repro.workloads.querygen import QueryGenerator

    workload = airca.generate(flights=config.flights, airports=config.airports)
    queries = QueryGenerator(workload, seed=config.mix_seed).workload_mix(config.mix_size)
    ops = [Op("answer", q.name, q.sql, alpha) for q in queries for alpha in config.alphas]
    ops += [Op("exact", q.name, q.sql) for q in queries]
    random.Random(seed).shuffle(ops)
    return workload, ops


def run(seed: int, seconds: float, trace: bool, config: AdhocConfig = AdhocConfig()) -> Report:
    from repro import Beas

    workload, ops = make_inputs(config, seed)
    report = Report(WORKLOAD, seed, trace, executor_config(), Ledger())
    report.ops = [op.label for op in ops]
    tracer = Tracer() if trace else None
    try:
        beas = timed_setup(
            lambda: Beas(workload.database, constraints=workload.constraints, families=workload.families),
            config.setup_repeats,
            report,
            tracer,
        )
        if tracer is not None:
            wrap_answer_layers(tracer)
        first = _measure(beas, ops, seconds, report, tracer)
        report.metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.close()
    scored = _check(beas, workload, ops, first, report, config)
    if tracer is not None:
        report.layers.update(layer_metrics(tracer, beas.access_schema, report, scored))
        report.notes["tracer"] = tracer
    return report


def _measure(beas, ops: List[Op], seconds: float, report: Report, tracer: Optional[Tracer]) -> List[object]:
    """Send the block until ``seconds`` are measured; returns block 0's outcomes."""
    ledger = report.ledger
    first: List[object] = []
    timings = {"answer": Timings(), "exact": Timings()}

    def send(op: Op):
        if op.kind == "exact":
            return beas.answer_exact(op.sql)
        return beas.answer(op.sql, op.alpha)

    def observe(block: int, index: int, op: Op, outcome, seconds: float) -> None:
        if isinstance(outcome, Exception):
            outcome = None
        else:
            timings[op.kind].add(block, seconds)
        if block == 0:
            first.append(outcome)
        elif outcome is not None and first[index] is not None and not _same(op, first[index], outcome):
            # BEAS answers are deterministic: a repeat must return block 0's answer.
            kind = "exact_mismatch" if op.kind == "exact" else "served_mismatch"
            ledger.fail(kind, f"block {block} {op.label}: differs from block 0")

    blocks = run_blocks(lambda block: ops, send, observe, seconds, ledger, tracer, stop_every=len(ops))
    report.metrics.update(answer_metrics(timings["answer"]))
    report.metrics["exact_p50_ms"] = median(timings["exact"].values()) * 1e3
    report.samples.update(answers=len(timings["answer"]), exact=len(timings["exact"]), blocks=blocks.count)
    report.notes.update(blocks=blocks, answers=timings["answer"])
    return first


def _same(op: Op, first, again) -> bool:
    if op.kind == "exact":
        return first == again
    return first.rows == again.rows and first.eta == again.eta


def _check(
    beas, workload, ops: List[Op], first: List[object], report: Report, config: AdhocConfig
) -> List[Tuple[float, float]]:
    """The oracle, after the timed blocks: budget, exact plans, η against realised RC.

    Each query's exact answer comes from the block's own ``answer_exact``
    and serves every α of the ladder.  Returns ``(η, RC)`` per answer.
    """
    from repro.algebra.sql import parse_query

    ledger = report.ledger
    exact: Dict[str, object] = {
        op.query: out for op, out in zip(ops, first) if op.kind == "exact" and out is not None
    }
    answered = [(op, out) for op, out in zip(ops, first) if op.kind == "answer" and out is not None]
    asts: Dict[str, object] = {}
    scored: List[Tuple[float, float]] = []
    with Oracle(WORKLOAD, f"airca flights={config.flights} airports={config.airports}") as oracle:
        for op, result in answered:
            if op.query not in exact:
                exact[op.query] = beas.answer_exact(op.sql)
            check_answer(ledger, op.label, result, exact[op.query])
            ast = asts.setdefault(op.query, parse_query(op.sql))
            rc = oracle.rc_accuracy(ast, op.sql, workload.database, result.rows, exact[op.query])
            scored.append((result.eta, rc))
            if eta_unsound(result.eta, rc):
                ledger.fail("eta_unsound", f"{op.label}: eta {result.eta:.4f} > RC {rc:.4f}")
    report.metrics["rc_mean"] = sum(rc for _, rc in scored) / len(scored)
    report.metrics["eta_sound"] = eta_sound_share(scored)
    report.counts.update(
        answers=len(answered),
        tuples_charged=sum(result.tuples_accessed for _, result in answered),
        budget=sum(result.budget for _, result in answered),
        eta_unsound=len(ledger.failures["eta_unsound"]),
        exact_plans=sum(1 for _, result in answered if result.exact),
    )
    return scored
