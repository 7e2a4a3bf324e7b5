"""Workload ``serve-tpch``: a query server over TPC-H-like data with rare writes.

One closed-loop client sends SQL text to one :class:`repro.QueryServer`
(default caches and admission).  Requests are drawn from a Zipf
distribution (s = 1.1) over a pool of generated SPC / RA / aggregate
queries × α ∈ {0.05, 0.2}; one operation in 200 is a write, a
``Relation.append`` of a lineitem row.  A write bumps the publication epoch
and so rotates every result-cache key, while plan keys survive as long as
⌊α·|D|⌋ holds.  Result-cache hits make parse and cache lookup the blocking
steps, misses exercise plan reuse, and writes force refills.

The pool and its popularity ranking are part of the workload definition
(generator seed 3, 32 queries, rank = pool order).  Each epoch of 199
requests sends every key once and splits the other 135 by Zipf shares;
``--seed`` drives their order and the rows the writes append.

Every served answer is checked, outside the timed region, against a fresh
``Beas.answer`` at the served α and the same epoch.  Realised RC and η
soundness are scored over the pool at epoch 0, after ``peak_rss_mb`` is
read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from layers import layer_metrics
from measure import Clock, Ledger, Report, Timings, answer_metrics, check_answer, eta_unsound, executor_config
from measure import median, peak_rss_mb, run_blocks, timed_setup
from oracle import Oracle, eta_sound_share
from spans import Tracer, wrap_answer_layers

WORKLOAD = "serve-tpch"


@dataclass(frozen=True)
class ServeConfig:
    scale: int = 4
    pool_seed: int = 3
    pool_size: int = 32
    alphas: Tuple[float, ...] = (0.05, 0.2)
    zipf_s: float = 1.1
    #: Operations per epoch; the last one is a write.
    write_every: int = 200
    block_size: int = 1000
    #: Builds per run; ``setup_s`` is their median.
    setup_repeats: int = 3
    #: Timed ``answer_exact`` calls per pool query.
    exact_repeats: int = 5


@dataclass(frozen=True)
class Op:
    kind: str  # "answer" or "write"
    key: int = -1  # index into the (query, α) pool
    sql: str = ""
    alpha: float = 0.0
    row: tuple = ()

    @property
    def label(self) -> str:
        return f"write:{self.row}" if self.kind == "write" else f"answer:k{self.key}@{self.alpha}"


def epoch_quota(pool_size: int, zipf_s: float, requests: int) -> List[int]:
    """Requests per pool key in one epoch.

    Every key is sent once, so every key misses exactly once per epoch; the
    other requests are split by Zipf shares, largest remainder first.
    """
    spare = requests - pool_size
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(pool_size)]
    shares = [spare * weight / sum(weights) for weight in weights]
    quota = [int(share) for share in shares]
    by_remainder = sorted(range(pool_size), key=lambda key: (quota[key] - shares[key], key))
    for key in by_remainder[: spare - sum(quota)]:
        quota[key] += 1
    return [count + 1 for count in quota]


class Stream:
    """The seeded operation stream, cut into blocks on demand.

    An epoch is ``write_every - 1`` requests, each key's :func:`epoch_quota`
    of them in a seeded order, then one write of a seeded lineitem row.
    Fixed counts per epoch fix every key's hits and misses, so the figures
    do not move with the seed; the seed moves the order and the rows.
    """

    def __init__(self, config: ServeConfig, seed: int, pool: List[Tuple[str, float]], lineitems: List[tuple]):
        self.config = config
        self.rng = random.Random(seed)
        self.pool = pool
        self.lineitems = lineitems
        quota = epoch_quota(len(pool), config.zipf_s, config.write_every - 1)
        self.epoch_keys = [key for key, count in enumerate(quota) for _ in range(count)]
        self.blocks: List[List[Op]] = []

    def block(self, index: int) -> List[Op]:
        while len(self.blocks) <= index:
            epochs = self.config.block_size // self.config.write_every
            self.blocks.append([op for _ in range(epochs) for op in self._epoch()])
        return self.blocks[index]

    def _epoch(self) -> List[Op]:
        rng = self.rng
        keys = list(self.epoch_keys)
        rng.shuffle(keys)
        base = self.lineitems[rng.randrange(len(self.lineitems))]
        row = base[:3] + (rng.randint(1, 50), round(rng.uniform(900.0, 50000.0), 2)) + base[5:]
        return [Op("answer", key, *self.pool[key]) for key in keys] + [Op("write", row=row)]


def make_inputs(config: ServeConfig, seed: int):
    from repro.workloads import tpch
    from repro.workloads.querygen import QueryGenerator

    workload = tpch.generate(scale=config.scale)
    queries = QueryGenerator(workload, seed=config.pool_seed).workload_mix(config.pool_size)
    pool = [(q.sql, alpha) for q in queries for alpha in config.alphas]
    lineitems = list(workload.database.relation("lineitem"))
    return workload, Stream(config, seed, pool, lineitems)


def run(seed: int, seconds: float, trace: bool, config: ServeConfig = ServeConfig()) -> Report:
    from repro import Beas, QueryServer
    from repro.algebra import predicates

    workload, stream = make_inputs(config, seed)
    predicates.clear_program_cache()  # the run's server starts with a cold program cache
    report = Report(WORKLOAD, seed, trace, executor_config(), Ledger())
    tracer = Tracer() if trace else None

    def build():
        beas = Beas(workload.database, constraints=workload.constraints, families=workload.families)
        return QueryServer(beas)

    try:
        server = timed_setup(build, config.setup_repeats, report, tracer)
        if tracer is not None:
            wrap_answer_layers(tracer)
        _measure(server, stream, seconds, report, tracer)
        report.metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.close()
    report.ops = [op.label for op in stream.block(0)]
    scored = _score(server.beas.access_schema, stream.pool, config, report)
    if tracer is not None:
        report.layers.update(layer_metrics(tracer, server.beas.access_schema, report, scored))
        report.notes["tracer"] = tracer
    return report


class _Verifier:
    """Checks each served answer against a fresh ``Beas.answer`` of its epoch.

    A result the server computed without a cached plan is itself a fresh
    ``Beas.answer`` at the served α and epoch, so it is the reference; any
    other first answer of a (key, served α) in an epoch is recomputed.
    """

    def __init__(self, beas, ledger: Ledger) -> None:
        self.beas = beas
        self.ledger = ledger
        self.fresh: Dict[tuple, tuple] = {}  # (key, served α) -> (reference result, results checked)
        self.program_cache_hits = 0

    def new_epoch(self) -> None:
        self.fresh.clear()

    def check(self, op: Op, envelope) -> None:
        from repro.algebra import predicates

        result = envelope.result
        slot = (op.key, envelope.served_alpha)
        if slot not in self.fresh:
            if not envelope.result_cache_hit and not envelope.plan_cache_hit:
                self.fresh[slot] = (result, [result])
                return
            before = predicates.program_cache_info()["hits"]
            try:
                fresh = self.beas.answer(op.sql, envelope.served_alpha)
            except Exception as exc:  # the server answered what a fresh call cannot
                self.ledger.fail("served_mismatch", f"{op.label}: fresh answer raised {exc!r}")
                return
            finally:
                self.program_cache_hits += predicates.program_cache_info()["hits"] - before
            self.fresh[slot] = (fresh, [])
        fresh, checked = self.fresh[slot]
        if any(result is seen for seen in checked):
            return
        checked.append(result)
        if result.rows != fresh.rows or envelope.eta != fresh.eta:
            self.ledger.fail(
                "served_mismatch",
                f"{op.label} epoch {envelope.publication_epoch}: served {len(result.rows)} rows "
                f"eta {envelope.eta}, fresh {len(fresh.rows)} rows eta {fresh.eta}",
            )


def _measure(server, stream: Stream, seconds: float, report: Report, tracer: Optional[Tracer]) -> None:
    from repro.algebra import predicates

    ledger = report.ledger
    lineitem = server.beas.database.relation("lineitem")
    verifier = _Verifier(server.beas, ledger)
    window = {
        name: 0
        for name in ("result_hits", "result_misses", "plan_hits", "plan_misses", "writes", "tuples", "budget")
    }
    answers = Timings()
    by_outcome = {"hit": Timings(), "miss": Timings()}
    waits: List[float] = []
    programs_before = predicates.program_cache_info()["hits"]

    def send(op: Op):
        if op.kind == "write":
            return lineitem.append(op.row)
        return server.serve(op.sql, op.alpha)

    def observe(block: int, index: int, op: Op, outcome, seconds: float) -> None:
        if not isinstance(outcome, Exception):
            _observe(block, op, outcome, seconds)
        if block == 0 and index == len(stream.block(0)) - 1:
            # The server's program-cache hits in the window, without the verifier's.
            hits = predicates.program_cache_info()["hits"] - programs_before
            window["program_cache_hits"] = hits - verifier.program_cache_hits

    def _observe(block: int, op: Op, outcome, seconds: float) -> None:
        if op.kind == "write":
            verifier.new_epoch()
            if block == 0:
                window["writes"] += 1
            return
        hit, plan_hit = outcome.result_cache_hit, outcome.plan_cache_hit
        answers.add(block, seconds)
        by_outcome["hit" if hit else "miss"].add(block, seconds)
        waits.append(outcome.wait_seconds)
        if block == 0:
            window["result_hits" if hit else "result_misses"] += 1
            if not hit:
                window["plan_hits" if plan_hit else "plan_misses"] += 1
                window["tuples"] += outcome.result.tuples_accessed
                window["budget"] += outcome.result.budget
        verifier.check(op, outcome)

    blocks = run_blocks(stream.block, send, observe, seconds, ledger, tracer, stop_every=stream.config.write_every)
    report.metrics.update(answer_metrics(answers))
    report.samples.update(answers=len(answers), blocks=blocks.count)
    for outcome, timings in by_outcome.items():
        report.notes[f"{outcome}_p50_ms"] = median(timings.values()) * 1e3
    report.notes.update(blocks=blocks, answers=answers, queue_wait_s=sum(waits) / blocks.count)
    tuples, budget = window.pop("tuples"), window.pop("budget")
    report.counts.update({f"serving.{name}": value for name, value in window.items()})
    report.counts.update(tuples_charged=tuples, budget=budget)


def _score(access_schema, pool: List[Tuple[str, float]], config: ServeConfig, report: Report):
    """Exact-path timing and the RC oracle over the pool, at epoch 0.

    Epoch 0 is rebuilt from a fresh copy of the data and the served access
    schema (indexes are snapshots of epoch 0), so the scores are those of
    the answers every run serves in its first epoch.
    """
    from time import perf_counter

    from repro import Beas
    from repro.algebra.sql import parse_query
    from repro.workloads import tpch

    database = tpch.generate(scale=config.scale).database
    beas = Beas(database, access_schema=access_schema)
    ledger = report.ledger
    exact: Dict[str, object] = {}
    exact_times = Timings()
    clock = Clock()
    for repeat in range(config.exact_repeats):
        for sql in dict.fromkeys(sql for sql, _ in pool):
            clock.tick()
            start = perf_counter()
            exact[sql] = beas.answer_exact(sql)
            exact_times.add(repeat, (perf_counter() - start) * clock.factor)
    report.metrics["exact_p50_ms"] = median(exact_times.values()) * 1e3
    report.samples["exact"] = len(exact_times)

    asts = {sql: parse_query(sql) for sql in exact}
    scored: List[Tuple[float, float]] = []
    with Oracle(WORKLOAD, f"tpch scale={config.scale}") as oracle:
        for key, (sql, alpha) in enumerate(pool):
            label = f"answer:k{key}@{alpha}"
            try:
                result = beas.answer(sql, alpha)
            except Exception as exc:  # counted like a raising request
                ledger.fail("raised", f"epoch 0 {label}: {type(exc).__name__}: {exc}")
                continue
            check_answer(ledger, label, result, exact[sql])
            rc = oracle.rc_accuracy(asts[sql], sql, database, result.rows, exact[sql])
            scored.append((result.eta, rc))
            if eta_unsound(result.eta, rc):
                ledger.fail("eta_unsound", f"epoch 0 {label}: eta {result.eta:.4f} > RC {rc:.4f}")
    report.metrics["rc_mean"] = sum(rc for _, rc in scored) / len(scored)
    report.metrics["eta_sound"] = eta_sound_share(scored)
    report.counts["eta_unsound"] = len(ledger.failures["eta_unsound"])
    return scored
