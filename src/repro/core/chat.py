"""Procedure chAT — choosing access templates under a budget (Fig. 3).

Starting from a fetching plan whose template accessors sit at level 0, chAT
repeatedly upgrades the template whose next level yields the largest
improvement of the accuracy lower bound ``L`` while keeping the plan's tariff
within the budget ``B = α·|D|``.  Upgrading a step doubles its own ``N`` and
therefore also the input bounds of every step downstream of it, so the tariff
is re-derived from the whole plan after every candidate upgrade rather than
locally.

``L`` is the worst resolution over one fixed set of qualified attributes
(:func:`~repro.core.lower_bound.bound_attributes`), compiled once per query.
The worst resolution of the plan is the worst over its steps, and an upgrade
changes only the upgraded step's, so chAT keeps one worst resolution per
step: scoring a candidate re-reads the upgraded step's resolutions and takes
a maximum over the steps, without walking the query or building a
resolution map.  The result is exactly ``lower_bound(query,
plan.resolution_map(), db_schema)`` of every candidate plan.

The procedure terminates when no template can be upgraded without exceeding
the budget (or all templates are at their maximum level), and returns the
lower bound ``η`` of the final plan.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..algebra.ast import QueryNode
from ..relational.schema import DatabaseSchema
from .lower_bound import bound_attributes
from .plan import FetchPlan, FetchStep


def _bound_names(step: FetchStep, attributes: Optional[FrozenSet[str]]) -> Tuple[str, ...]:
    """The step's fetched attributes whose resolution enters ``L``."""
    names = step.accessor.x + step.accessor.y
    if attributes is None:
        return names
    return tuple(a for a in names if f"{step.alias}.{a}" in attributes)


def _step_worst(step: FetchStep, names: Sequence[str]) -> float:
    """The step's worst resolution over ``names`` at its current level."""
    worst = 0.0
    for attribute in names:
        value = step.accessor.resolution_of(attribute)
        if value > worst:
            worst = value
    return worst


def _eta(worst: Sequence[float]) -> float:
    """``L = 1 / (1 + d)`` with ``d`` the worst resolution over all steps."""
    return 1.0 / (1.0 + max(worst, default=0.0))


def choose_access_templates(
    plan: FetchPlan,
    query: QueryNode,
    budget: int,
    db_schema: DatabaseSchema,
) -> float:
    """Run chAT on ``plan`` in place and return the resulting bound ``η``.

    Greedy ascent: in each iteration pick the fetch step whose next template
    level gives the largest increase of ``L`` among those that keep
    ``tariff(ξ_F) <= budget``; ties are broken by the smaller resulting
    tariff (cheaper upgrades first) and then by plan order.
    """
    attributes = bound_attributes(query, db_schema)
    names = [_bound_names(step, attributes) for step in plan.steps]
    worst: List[float] = [_step_worst(step, n) for step, n in zip(plan.steps, names)]
    eta = _eta(worst)

    while True:
        best: Optional[Tuple[float, int, int]] = None  # (-gain, tariff, index)
        best_worst = 0.0
        for index, step in enumerate(plan.steps):
            if not step.accessor.can_upgrade():
                continue
            step.accessor.level += 1
            try:
                new_tariff = plan.tariff()
                if new_tariff > budget:
                    continue
                upgraded = _step_worst(step, names[index])
            finally:
                step.accessor.level -= 1
            trial = worst[:index] + [upgraded] + worst[index + 1:]
            gain = _eta(trial) - eta
            key = (-gain, new_tariff, index)
            if best is None or key < best:
                best = key
                best_worst = upgraded
        if best is None:
            break
        index = best[2]
        plan.steps[index].accessor.level += 1
        worst[index] = best_worst
        eta = _eta(worst)

    return eta
