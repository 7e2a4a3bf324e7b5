"""Differential tests for the compiled accuracy bound and BEAS_RA's ``d′``.

chAT scores candidate upgrades against a per-step worst resolution over the
query's compiled bound attributes; the reference below is the plain greedy
loop that re-derives ``L`` from a full resolution map for every candidate.
``refine_bound_with_induced`` computes ``d′`` with the nearest-neighbour
kernel; the reference is a nested loop over
:func:`~repro.relational.kernels.naive_min_distance`.  Both must agree
exactly — levels, tariffs and bounds are compared with ``==``.
"""

import pytest

from repro.algebra.ast import QueryNode, Union
from repro.algebra.spc import maximal_induced_query
from repro.algebra.sql import parse_query
from repro.core import planner
from repro.core.beas_ra import refine_bound_with_induced
from repro.core.chat import choose_access_templates
from repro.core.executor import PlanExecutor
from repro.core.lower_bound import distance_bounds, lower_bound
from repro.experiments.harness import build_beas
from repro.relational.database import AccessMeter
from repro.relational.distance import INFINITY
from repro.relational.kernels import naive_min_distance
from repro.relational.relation import Relation
from repro.workloads import airca, tfacc
from repro.workloads.querygen import QueryGenerator

ALPHAS = (0.001, 0.01, 0.05, 0.2)
WORKLOADS = ("tpch", "airca", "social", "tfacc")


@pytest.fixture(scope="module")
def workloads(tpch_workload, tpch_beas, social_workload, social_beas):
    """Per workload: the workload, its BEAS instance and the seed-3 query mix."""
    built = {"tpch": (tpch_workload, tpch_beas), "social": (social_workload, social_beas)}
    for name, workload in (
        ("airca", airca.generate(flights=600, airports=20, seed=29)),
        ("tfacc", tfacc.generate(accidents=300, stops=100)),
    ):
        built[name] = (workload, build_beas(workload))
    return {
        name: (workload, beas, QueryGenerator(workload, seed=3).workload_mix(20))
        for name, (workload, beas) in built.items()
    }


# -- chAT -----------------------------------------------------------------------


def _reference_chat(plan, query, budget, db_schema):
    """chAT's greedy ascent, re-deriving ``L`` from a full resolution map per candidate."""

    def upgraded(step, measure):
        step.accessor.level += 1
        try:
            return measure()
        finally:
            step.accessor.level -= 1

    def bound():
        return lower_bound(query, plan.resolution_map(), db_schema)

    eta = bound()
    while True:
        best = None
        best_step = None
        for index, step in enumerate(plan.steps):
            if not step.accessor.can_upgrade():
                continue
            new_tariff = upgraded(step, plan.tariff)
            if new_tariff > budget:
                continue
            key = (-(upgraded(step, bound) - eta), new_tariff, index)
            if best is None or key < best:
                best = key
                best_step = step
        if best_step is None:
            break
        best_step.accessor.level += 1
        eta = bound()
    return eta


def _outcome(plan, eta):
    return [step.accessor.level for step in plan.steps], plan.tariff(), eta


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_chat_matches_reference(workloads, name, alpha, monkeypatch):
    _, beas, mix = workloads[name]
    pairs = []

    def checked(plan, query, budget, db_schema):
        reference = plan.copy()
        expected = _reference_chat(reference, query, budget, db_schema)
        eta = choose_access_templates(plan, query, budget, db_schema)
        pairs.append((_outcome(plan, eta), _outcome(reference, expected)))
        return eta

    monkeypatch.setattr(planner, "choose_access_templates", checked)
    for query in mix:
        beas.plan(query.ast, alpha)

    assert len(pairs) == len(mix)
    for got, expected in pairs:
        assert got == expected


def test_chat_differential_is_not_vacuous(workloads):
    """The mixes exercise upgrades, not just level-0 plans."""
    _, beas, mix = workloads["airca"]
    plans = [beas.plan(query.ast, 0.2) for query in mix]
    assert any(step.accessor.level > 0 for plan in plans for step in plan.fetch_plan.steps)


# -- distance_bounds ----------------------------------------------------------------


class _Opaque(QueryNode):
    """A node the bound's induction does not know."""

    def children(self):
        return ()


class TestDistanceBounds:
    RESOLUTIONS = {"h.price": 0.3, "h.type": 0.1, "g.price": 0.5, "x.unrelated": 9.0}

    def bounds(self, social_db, sql, resolutions=None):
        query = parse_query(sql) if isinstance(sql, str) else sql
        if resolutions is None:
            resolutions = self.RESOLUTIONS
        return distance_bounds(query, resolutions, social_db.schema)

    def test_union_takes_worst_side(self, social_db):
        sql = (
            "select h.price from poi as h where h.type = 'hotel' "
            "union select g.price from poi as g where g.price <= 50"
        )
        assert self.bounds(social_db, sql) == (0.5, 0.5)

    def test_difference_folds_in_negated_side(self, social_db):
        sql = (
            "select h.price from poi as h where h.type = 'hotel' "
            "except select g.price from poi as g where g.price <= 50"
        )
        assert self.bounds(social_db, sql) == (0.5, 0.5)
        assert self.bounds(social_db, sql, {"h.price": 0.3, "h.type": 0.1}) == (0.3, 0.3)

    def test_group_by_count_ignores_aggregated_column(self, social_db):
        sql = "select h.city, count(h.price) from poi as h where h.type = 'hotel' group by h.city"
        assert self.bounds(social_db, sql) == (0.1, 0.1)

    def test_group_by_sum_tracks_aggregated_column(self, social_db):
        sql = "select h.city, sum(h.price) from poi as h where h.type = 'hotel' group by h.city"
        assert self.bounds(social_db, sql) == (0.3, 0.3)

    def test_unknown_node_falls_back_to_worst_resolution(self, social_db):
        assert self.bounds(social_db, _Opaque()) == (9.0, 9.0)
        assert self.bounds(social_db, _Opaque(), {}) == (0.0, 0.0)

    def test_unknown_node_under_union_dominates(self, social_db):
        known = parse_query("select h.price from poi as h where h.type = 'hotel'")
        assert self.bounds(social_db, Union(known, _Opaque())) == (9.0, 9.0)


# -- BEAS_RA d′ --------------------------------------------------------------------------


def _reference_refine(plan, executor, database, answers):
    """``η'`` with ``d′`` from a nested loop over the naive nearest-answer scan."""
    query = plan.query
    induced = maximal_induced_query(query)
    induced_answers = executor.evaluate(induced)
    resolutions = plan.resolution_map()
    d_rel, _ = distance_bounds(query, resolutions, database.schema)
    _, induced_cov = distance_bounds(induced, resolutions, database.schema)
    distances = [a.distance for a in query.output_schema(database.schema).attributes]
    rows = list(answers.rows)
    d_prime = max(
        (naive_min_distance(row, rows, distances) for row in induced_answers), default=0.0
    )
    if d_prime == INFINITY:
        return 0.0
    return 1.0 / (1.0 + max(d_rel, d_prime + induced_cov))


def _executed(beas, query, alpha):
    plan = beas.plan(query, alpha)
    executor = PlanExecutor(beas.database, plan, AccessMeter(budget=plan.budget, enforce=False))
    return plan, executor, executor.execute()


@pytest.mark.parametrize("name", WORKLOADS)
def test_refine_bound_matches_reference(workloads, name):
    workload, beas, mix = workloads[name]
    generator = QueryGenerator(workload, seed=5)
    queries = [q.ast for q in mix if q.ast.has_difference()]
    queries += [generator.ra(1, 3, differences).ast for differences in (1, 2, 3)]
    checked = 0
    for query in queries:
        for alpha in (0.01, 0.2):
            plan, executor, answers = _executed(beas, query, alpha)
            refined = refine_bound_with_induced(plan, executor, beas.database, answers)
            assert refined == _reference_refine(plan, executor, beas.database, answers)
            checked += 1
    assert checked >= 6


EMPTY_SIDE_SQL = (
    "select h.price from poi as h where h.type = 'hotel' and h.price <= -1000 "
    "except select g.price from poi as g where g.price <= 50"
)


def test_refine_bound_with_no_induced_answers(social_beas, social_db):
    """No induced answers: ``d′ = 0`` and ``η' = 1/(1 + max(d_rel, d̂_cov))``."""
    query = parse_query(EMPTY_SIDE_SQL)
    plan, executor, answers = _executed(social_beas, query, 0.2)
    induced = maximal_induced_query(query)
    assert len(executor.evaluate(induced)) == 0
    resolutions = plan.resolution_map()
    d_rel, _ = distance_bounds(query, resolutions, social_db.schema)
    _, induced_cov = distance_bounds(induced, resolutions, social_db.schema)
    expected = 1.0 / (1.0 + max(d_rel, induced_cov))
    assert refine_bound_with_induced(plan, executor, social_db, answers) == expected
    assert _reference_refine(plan, executor, social_db, answers) == expected


def test_refine_bound_with_no_answers(social_beas, social_db):
    """Induced answers but no answers: ``d′ = ∞`` and ``η' = 0``."""
    query = parse_query(
        "select h.price from poi as h where h.type = 'hotel' "
        "except select g.price from poi as g where g.price <= 50"
    )
    plan, executor, _ = _executed(social_beas, query, 0.2)
    assert len(executor.evaluate(maximal_induced_query(query))) > 0
    empty = Relation(query.output_schema(social_db.schema))
    assert refine_bound_with_induced(plan, executor, social_db, empty) == 0.0
    assert _reference_refine(plan, executor, social_db, empty) == 0.0
