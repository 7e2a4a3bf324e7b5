"""Experiment harness: run BEAS and the baselines over query workloads.

The benchmarks in ``benchmarks/`` are thin wrappers over this module: each
figure of the paper corresponds to one sweep function here, returning plain
dictionaries of series that the benchmark prints.  Measured end-to-end runs
come from the ``beasbench`` benchmark (see ``beasbench/README.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..accuracy.fmeasure import f_measure
from ..accuracy.mac import mac_accuracy
from ..accuracy.rc import rc_accuracy
from ..algebra.ast import QueryNode
from ..algebra.evaluator import evaluate_exact
from ..baselines.base import Approximator
from ..baselines.blinkdb import StratifiedSampling
from ..baselines.histogram import MultiDimHistogram
from ..baselines.sampling import UniformSampling
from ..core.framework import Beas
from ..relational.relation import Relation
from ..workloads.base import Workload
from ..workloads.querygen import GeneratedQuery


@dataclass
class QueryOutcome:
    """Accuracy and cost of answering one query with one method."""

    method: str
    query: str
    query_class: str
    alpha: float
    rc: float
    mac: float
    f_measure: float
    eta: Optional[float]
    rows: int
    exact_rows: int
    tuples_accessed: Optional[int]
    seconds: float
    supported: bool = True


def build_beas(workload: Workload, max_level: Optional[int] = None) -> Beas:
    """Construct BEAS over a workload with its declared access schema."""
    return Beas(
        workload.database,
        constraints=workload.constraints,
        families=workload.families,
        max_level=max_level,
    )


def default_baselines(workload: Workload, seed: int = 0) -> List[Approximator]:
    """The paper's three baselines configured for a workload."""
    qcs = {}
    for info in workload.attributes:
        if info.kind == "categorical":
            qcs.setdefault(info.relation, []).append(info.attribute)
    return [
        UniformSampling(workload.database, seed=seed),
        MultiDimHistogram(workload.database, seed=seed),
        StratifiedSampling(workload.database, qcs_columns=qcs, seed=seed),
    ]


def _measure(
    method: str,
    query: GeneratedQuery,
    ast: QueryNode,
    answers: Relation,
    exact: Relation,
    workload: Workload,
    alpha: float,
    seconds: float,
    eta: Optional[float] = None,
    accessed: Optional[int] = None,
    supported: bool = True,
) -> QueryOutcome:
    schema = ast.output_schema(workload.database.schema)
    rc = rc_accuracy(ast, workload.database, answers, exact).accuracy if supported else 0.0
    mac = mac_accuracy(answers, exact, schema).accuracy if supported else 0.0
    f = f_measure(answers, exact).f_measure if supported else 0.0
    return QueryOutcome(
        method=method,
        query=query.name,
        query_class=query.query_class,
        alpha=alpha,
        rc=rc,
        mac=mac,
        f_measure=f,
        eta=eta,
        rows=len(answers) if supported else 0,
        exact_rows=len(exact),
        tuples_accessed=accessed,
        seconds=seconds,
        supported=supported,
    )


def run_beas_query(
    beas: Beas,
    workload: Workload,
    query: GeneratedQuery,
    alpha: float,
    exact: Optional[Relation] = None,
) -> QueryOutcome:
    """Answer one query with BEAS and measure its accuracy."""
    ast = query.ast
    if exact is None:
        exact = evaluate_exact(ast, workload.database)
    start = time.perf_counter()
    result = beas.answer(ast, alpha)
    seconds = time.perf_counter() - start
    return _measure(
        "BEAS",
        query,
        ast,
        result.rows,
        exact,
        workload,
        alpha,
        seconds,
        eta=result.eta,
        accessed=result.tuples_accessed,
    )


def run_baseline_query(
    baseline: Approximator,
    workload: Workload,
    query: GeneratedQuery,
    alpha: float,
    exact: Optional[Relation] = None,
) -> QueryOutcome:
    """Answer one query with a baseline (already built for ``alpha``)."""
    ast = query.ast
    if exact is None:
        exact = evaluate_exact(ast, workload.database)
    supported = baseline.supports(ast)
    start = time.perf_counter()
    if supported:
        try:
            answers = baseline.answer(ast)
        except Exception:
            answers = Relation(ast.output_schema(workload.database.schema))
            supported = False
    else:
        answers = Relation(ast.output_schema(workload.database.schema))
    seconds = time.perf_counter() - start
    return _measure(
        baseline.name,
        query,
        ast,
        answers,
        exact,
        workload,
        alpha,
        seconds,
        supported=supported,
    )


def accuracy_sweep(
    workload: Workload,
    queries: Sequence[GeneratedQuery],
    alphas: Sequence[float],
    include_baselines: bool = True,
    max_level: Optional[int] = None,
    seed: int = 0,
) -> List[QueryOutcome]:
    """Run BEAS (and optionally the baselines) over queries × alphas (Exp-1)."""
    beas = build_beas(workload, max_level=max_level)
    exact_cache: Dict[str, Relation] = {}
    outcomes: List[QueryOutcome] = []
    for query in queries:
        exact_cache[query.name] = evaluate_exact(query.ast, workload.database)
    for alpha in alphas:
        baselines = default_baselines(workload, seed=seed) if include_baselines else []
        for baseline in baselines:
            baseline.build(alpha)
        for query in queries:
            exact = exact_cache[query.name]
            outcomes.append(run_beas_query(beas, workload, query, alpha, exact))
            for baseline in baselines:
                outcomes.append(run_baseline_query(baseline, workload, query, alpha, exact))
    return outcomes


def mean_by(
    outcomes: Iterable[QueryOutcome],
    key: Callable[[QueryOutcome], object],
    value: Callable[[QueryOutcome], float],
) -> Dict[object, float]:
    """Group outcomes by ``key`` and average ``value`` within each group."""
    groups: Dict[object, List[float]] = {}
    for outcome in outcomes:
        groups.setdefault(key(outcome), []).append(value(outcome))
    return {k: sum(v) / len(v) for k, v in groups.items() if v}


def series_by_method_and_alpha(
    outcomes: Sequence[QueryOutcome], measure: str = "rc"
) -> Dict[str, Dict[float, float]]:
    """Pivot outcomes into ``{method: {alpha: mean accuracy}}`` series."""
    series: Dict[str, Dict[float, float]] = {}
    methods = {o.method for o in outcomes}
    for method in sorted(methods):
        method_outcomes = [o for o in outcomes if o.method == method]
        series[method] = mean_by(
            method_outcomes, key=lambda o: o.alpha, value=lambda o: getattr(o, measure)
        )
    # BEAS also reports its deterministic bound η as its own series.
    beas_outcomes = [o for o in outcomes if o.method == "BEAS" and o.eta is not None]
    if beas_outcomes and measure == "rc":
        series["BEAS(eta)"] = mean_by(
            beas_outcomes, key=lambda o: o.alpha, value=lambda o: o.eta or 0.0
        )
    return series
