"""The accuracy lower-bound function ``L`` (Section 5, chAT).

Given a query and the per-attribute resolutions of the accessors its fetching
plan uses, ``L(ξ) = 1 / (1 + max(d_rel, d_cov))`` where ``d_rel`` and
``d_cov`` are upper bounds on the relevance and coverage distances of the
plan's answers, derived inductively over the query structure:

* base relation / scan — no error beyond the resolutions of the fetched
  attributes;
* ``σ_{R[A] op c}`` / ``σ_{R[A] op R[B]}`` — the relevance bound absorbs the
  resolution of the selection attributes (the relaxed condition may admit
  values off by that much);
* ``π``, ``×`` — combine children; coverage is bounded by the worst
  resolution among attributes visible in the output;
* ``Q1 ∪ Q2`` — worst of the two sides;
* ``Q1 − Q2`` — worst of the two sides as well (the paper keeps only
  ``Q1``'s bounds; the extra coverage term ``d' + d̂_cov`` of BEAS_RA is
  applied after execution, Section 6);
* ``gpBy(Q', X, min/max(V))`` — inherits ``Q'``'s bounds; for
  ``sum``/``count``/``avg`` the aggregate-value error cannot be bounded by
  resolutions alone, so the bound covers the group-key attributes (the
  paper's Corollary 7 likewise only carries the guarantees of Theorem 6 over
  to ``min``/``max``).

Every case is the maximum resolution over one set of qualified attributes
that depends on the query alone — or over every fetched attribute, for a
node the induction does not know.  :func:`bound_attributes` compiles that
set once; :func:`worst_resolution` then scores any resolution map against
it without walking the query again, which is what lets chAT score each
candidate upgrade in time linear in the plan's steps.

Because every template upgrade lowers some resolution, ``L`` is monotone in
the chosen levels — exactly the property chAT's greedy ascent relies on — and
monotone in α (Theorems 5(3) and 6(4)).
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Optional, Set, Tuple

from ..algebra.aggregates import AggregateFunction
from ..algebra.ast import (
    Difference,
    GroupBy,
    Product,
    Project,
    QueryNode,
    Rename,
    Scan,
    Select,
    Union,
    resolve_attribute,
)
from ..relational.schema import DatabaseSchema


def _collect_selection_attributes(node: QueryNode, db_schema: DatabaseSchema) -> Set[str]:
    """Qualified attributes used in selection conditions anywhere in the query."""
    attributes: Set[str] = set()
    for current in node.walk():
        if isinstance(current, Select):
            schema = current.child.output_schema(db_schema)
            for ref in current.condition.attributes():
                try:
                    attributes.add(resolve_attribute(schema, ref))
                except Exception:
                    attributes.add(ref.qualified)
    return attributes


def _collect_output_attributes(node: QueryNode, db_schema: DatabaseSchema) -> Set[str]:
    """Qualified attributes visible in the output of an SPC node."""
    try:
        return set(node.output_schema(db_schema).attribute_names)
    except Exception:
        return set()


def bound_attributes(node: QueryNode, db_schema: DatabaseSchema) -> Optional[FrozenSet[str]]:
    """The qualified attributes whose worst resolution bounds ``d_rel`` and ``d_cov``.

    ``None`` stands for every fetched attribute (the unknown-node fallback).
    The set depends on the query only, so callers that score many resolution
    maps for one query (chAT) compile it once.
    """
    if isinstance(node, (Union, Difference)):
        # Worst of the two sides.  For a difference the paper inherits the
        # bounds of the positive side and corrects the coverage after
        # execution (BEAS_RA).  We additionally fold in the negated side's
        # bounds: the set-difference guard removes answers within the
        # *negated* side's fetch resolution, so a coarse negated side hurts
        # coverage — folding it in keeps the bound sound (it only gets more
        # conservative) and lets chAT spend budget on the negated side where
        # that pays off.
        left = bound_attributes(node.left, db_schema)
        right = bound_attributes(node.right, db_schema)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(node, GroupBy):
        # Group-by answers expose the group-key attributes plus one aggregate
        # value.  The bound tracks the resolutions of the group keys, the
        # child's selection attributes and — except for count, which ignores
        # the aggregated attribute's values — the aggregate column.
        child_schema = node.child.output_schema(db_schema)
        selection_attrs = _collect_selection_attributes(node.child, db_schema)
        output_attrs = {resolve_attribute(child_schema, ref) for ref in node.group_columns}
        if node.aggregate is not AggregateFunction.COUNT:
            output_attrs.add(resolve_attribute(child_schema, node.agg_column))
        return frozenset(selection_attrs | output_attrs)
    if isinstance(node, (Project, Rename, Select, Product, Scan)):
        selection_attrs = _collect_selection_attributes(node, db_schema)
        output_attrs = _collect_output_attributes(node, db_schema)
        return frozenset(selection_attrs | output_attrs)
    return None


def worst_resolution(
    attributes: Optional[FrozenSet[str]], resolutions: Mapping[str, float]
) -> float:
    """The largest resolution over ``attributes`` (every attribute for ``None``)."""
    if attributes is None:
        return max(resolutions.values(), default=0.0)
    worst = 0.0
    for qualified in attributes:
        value = float(resolutions.get(qualified, 0.0))
        if value > worst:
            worst = value
    return worst


def distance_bounds(
    node: QueryNode,
    resolutions: Mapping[str, float],
    db_schema: DatabaseSchema,
) -> Tuple[float, float]:
    """Upper bounds ``(d_rel, d_cov)`` for a query under given fetch resolutions."""
    worst = worst_resolution(bound_attributes(node, db_schema), resolutions)
    return worst, worst


def lower_bound(
    node: QueryNode,
    resolutions: Mapping[str, float],
    db_schema: DatabaseSchema,
) -> float:
    """``L(ξ) = 1 / (1 + max(d_rel, d_cov))``."""
    d_rel, d_cov = distance_bounds(node, resolutions, db_schema)
    return 1.0 / (1.0 + max(d_rel, d_cov))


def theoretical_floor(
    node: QueryNode,
    access_schema,
    budget: int,
) -> float:
    """The query-independent floor of Theorem 5(2): ``1/(1 + max_ψ d̄_{ψ,k*})``.

    ``k* = ⌊log2(B / ||Q||)⌋ - 1`` — the level every whole-relation template
    could afford if the budget were split evenly across the query's relation
    atoms.  The bound returned by BEAS is always at least this floor.
    """
    import math

    relation_count = max(1, node.relation_count())
    per_atom = max(1, budget // relation_count)
    k_star = max(0, int(math.floor(math.log2(per_atom))) - 1)
    worst = 0.0
    for family in access_schema.families:
        level = min(k_star, family.max_level)
        res = family.resolution(level)
        worst = max(worst, max(res.values(), default=0.0))
    return 1.0 / (1.0 + worst)
