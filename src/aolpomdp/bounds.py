"""Lower/upper bounds per root action, overlap analysis, and the
refine-until-separated planning loop.

The lower bound of an action is its optimal adaptive open-loop value under the
current topology, the upper bound its adaptive fully-observable value.  When
the best action's lower bound clears every other action's upper bound, the
action is provably optimal for the original POMDP.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import DiscretePomdp, ExactBelief
from .oracle import exact_bounds
from .topology import (OPEN, Topology, enumerate_keys, key_depth,
                       refine_topology)


@dataclass(frozen=True)
class BoundPair:
    lower: float
    upper: float
    action: int
    topology_id: str = ""
    estimation_meta: dict = None

    @property
    def is_estimated(self) -> bool:
        return self.estimation_meta is not None


@dataclass(frozen=True)
class SeparationResult:
    status: str                    # "separated" | "overlapping"
    optimal_action: int = None
    margin: float = math.nan
    overlapping_set: frozenset = frozenset()

    @property
    def separated(self) -> bool:
        return self.status == "separated"


class ExactEvaluator:
    """Bound evaluator backed by the brute-force oracle (exact beliefs only)."""

    def __init__(self, node_budget: int = 10 ** 6):
        self.node_budget = node_budget

    def bounds(self, model, belief, action, topology, horizon) -> tuple:
        if not isinstance(belief, ExactBelief):
            raise TypeError("the exact evaluator requires an ExactBelief")
        return exact_bounds(model, belief, action, topology, horizon,
                            self.node_budget)


def compute_bounds(model: DiscretePomdp, belief, topology: Topology,
                   horizon: int, evaluator) -> dict:
    """Per-action (lower, upper) bound pairs under one topology, one
    `evaluator.bounds` call per action."""
    actions = range(model.num_actions)
    pairs = [evaluator.bounds(model, belief, a, topology, horizon)
             for a in actions]
    meta = getattr(evaluator, "estimation_meta", None)
    return {a: BoundPair(*pairs[a], a, topology.topology_id,
                         meta() if callable(meta) else None)
            for a in actions}


def check_separation(bound_map: dict, slack: float = 0.0) -> SeparationResult:
    """Separated iff the argmax-upper action's lower bound clears every other
    upper bound (ties on the argmax broken by lowest action index)."""
    actions = sorted(bound_map)
    if len(actions) == 1:
        return SeparationResult("separated", actions[0], math.inf)
    best = max(actions, key=lambda a: (bound_map[a].upper, -a))
    others = [bound_map[a].upper for a in actions if a != best]
    margin = bound_map[best].lower - max(others)
    if margin + slack >= 0.0:
        return SeparationResult("separated", best, margin)
    overlapping = frozenset(
        a for a in actions
        if bound_map[a].upper >= bound_map[best].lower - slack)
    return SeparationResult("overlapping", margin=margin,
                            overlapping_set=overlapping)


def default_refinement_selection(topology: Topology, model: DiscretePomdp,
                                 horizon: int, overlapping: frozenset,
                                 flips: int = 1) -> list:
    """Shallowest open nodes on paths under overlapping root actions.

    The root itself is always a candidate when open; ties break by lowest
    action index then lowest observation index (key order).
    """
    candidates = []
    for key in enumerate_keys(topology, model.num_actions,
                              model.num_observations, horizon - 1):
        if topology.beta(key) != OPEN:
            continue
        if key and overlapping and key[0][1] not in overlapping:
            continue
        candidates.append(key)
    candidates.sort(key=lambda k: (key_depth(k), k))
    return candidates[:flips]


@dataclass
class PlanResult:
    action: int
    separation: SeparationResult
    topology_trace: list
    bound_trace: list = field(default_factory=list)

    @property
    def guaranteed(self) -> bool:
        return self.separation.separated


def plan_with_guarantees(model: DiscretePomdp, belief, initial_topology: Topology,
                         horizon: int, evaluator, refinement_policy=None,
                         max_refinements: int = 32, slack: float = 0.0,
                         flips_per_refinement: int = 1) -> PlanResult:
    """Loop: compute bounds, check separation, refine the topology.

    On refinement exhaustion the action with the greatest lower bound is
    returned together with the unresolved (overlapping) separation result.
    """
    if refinement_policy is None:
        refinement_policy = default_refinement_selection
    topology = initial_topology
    trace = [topology]
    bound_trace = []
    bound_map = {}
    for iteration in range(max_refinements + 1):
        bound_map = compute_bounds(model, belief, topology, horizon, evaluator)
        for a, pair in sorted(bound_map.items()):
            bound_trace.append((iteration, a, pair.lower, pair.upper,
                                topology.topology_id))
        result = check_separation(bound_map, slack)
        if result.separated:
            return PlanResult(result.optimal_action, result, trace, bound_trace)
        if iteration == max_refinements:
            break
        selection = refinement_policy(topology, model, horizon,
                                      result.overlapping_set,
                                      flips_per_refinement)
        if not selection:
            break
        topology = refine_topology(topology, selection, model.num_observations)
        trace.append(topology)
    fallback = max(sorted(bound_map), key=lambda a: (bound_map[a].lower, -a))
    return PlanResult(fallback, check_separation(bound_map, slack), trace,
                      bound_trace)
