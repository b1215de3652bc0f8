"""Brute-force exact values on tiny POMDPs by full belief-tree enumeration.

Ground truth for every bound and guarantee test: the optimal Q of the original
problem, and the topology-dependent adaptive open-loop (lower) and adaptive
fully-observable (upper) values.  No sampling anywhere; fully-observable
branches enumerate every next state with its exact transition probability.
One recursion yields the lower and upper value together, and the upper value
of a point-mass node with no closed node below it, the finite-horizon MDP
Q-value, is computed once per model (`DiscretePomdp.afo_table`).
"""
from __future__ import annotations

import numpy as np

from .core import DiscretePomdp, ExactBelief, expected_reward
from .topology import (OPEN, NodeBudgetError, Topology, child_key,
                       exact_branches, key_depth)

DEFAULT_NODE_BUDGET = 10 ** 6


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, units: int = 1):
        self.remaining -= units
        if self.remaining < 0:
            raise NodeBudgetError("exact enumeration exceeded the node budget")


def best_immediate_rewards(model: DiscretePomdp,
                           beliefs: np.ndarray) -> np.ndarray:
    """max_a r(b, a) for each row b of the (K, S) array `beliefs`, all K×A
    pairs in one call.

    Each (1, S) @ (S, 1) core of the matmul is one vector dot over the same
    strided reward column as `b @ reward[:, a]` (`expected_reward`), so every
    score is bit-identical to it; the gemm `beliefs @ reward` sums in another
    order.
    """
    scores = np.matmul(beliefs[:, None, None, :],
                       model.reward.T[None, :, :, None])
    return scores[..., 0, 0].max(axis=1)


def _q_values(model: DiscretePomdp, belief: ExactBelief, action: int,
              key: tuple, depth: int, end_depth: int, topology: Topology,
              kinds: tuple, budgets: tuple) -> list:
    """Value of one (belief, action) node for each of `kinds` ("aol",
    "afo"), charging the node to each kind's budget.

    A closed node's branches do not depend on the kind, so it is expanded
    once for all kinds; at an open node the kinds split into one recursion
    each.
    """
    for budget in budgets:
        budget.spend()
    immediate = expected_reward(model, belief, action)
    if depth + 1 >= end_depth:
        return [immediate] * len(kinds)
    beta = topology.beta(key)
    if beta == OPEN and len(kinds) > 1:
        futures = [_futures(model, belief, action, key, depth, end_depth,
                            topology, beta, (kind,), (budget,))[0]
                   for kind, budget in zip(kinds, budgets)]
    else:
        futures = _futures(model, belief, action, key, depth, end_depth,
                           topology, beta, kinds, budgets)
    return [immediate + future for future in futures]


def _futures(model: DiscretePomdp, belief: ExactBelief, action: int,
             key: tuple, depth: int, end_depth: int, topology: Topology,
             beta: int, kinds: tuple, budgets: tuple) -> list:
    """Expected best child value of a node for each of `kinds`, over one
    expansion that all of them share."""
    probabilities, labels, beliefs = exact_branches(model, belief, action,
                                                    beta, kinds[0])
    if depth + 2 >= end_depth:
        # last layer: each child's value is its best immediate reward
        for budget in budgets:
            budget.spend(len(probabilities) * model.num_actions)
        future = 0.0
        for p, value in zip(probabilities,
                            best_immediate_rewards(model, beliefs).tolist()):
            future += p * value
        return [future] * len(kinds)
    actions = range(model.num_actions)
    if beta == OPEN and kinds == ("afo",):
        child_k = child_key(key, action, beta, None)
        if topology.all_open_below(child_k):
            future = 0.0
            for p, state, row in zip(probabilities, labels, beliefs):
                future += p * max(_tabled_afo(model, row, state, a, child_k,
                                              depth + 1, end_depth, topology,
                                              budgets[0])
                                  for a in actions)
            return [future]
    futures = [0.0] * len(kinds)
    for p, label, row in zip(probabilities, labels, beliefs):
        child = ExactBelief._derived(row)
        child_k = child_key(key, action, beta, label)
        values = [_q_values(model, child, a, child_k, depth + 1, end_depth,
                            topology, kinds, budgets) for a in actions]
        for i, column in enumerate(zip(*values)):
            futures[i] += p * max(column)
    return futures


def _tabled_afo(model: DiscretePomdp, row: np.ndarray, state: int,
                action: int, key: tuple, depth: int, end_depth: int,
                topology: Topology, budget: _Budget) -> float:
    """afo value of the point-mass node `row` (on `state`) whose subtree holds
    no closed node.  It depends only on (state, remaining depth, action), so
    the first recursion stores its value and spent units in
    `model.afo_table`, and a later lookup spends the same units."""
    entry_key = (state, end_depth - depth, action)
    entry = model.afo_table.get(entry_key)
    if entry is None:
        before = budget.remaining
        value = _q_values(model, ExactBelief._derived(row), action, key, depth,
                          end_depth, topology, ("afo",), (budget,))[0]
        entry = model.afo_table[entry_key] = (value, before - budget.remaining)
    else:
        budget.spend(entry[1])
    return entry[0]


def _value(model: DiscretePomdp, belief: ExactBelief, action: int,
           key: tuple, end_depth: int, topology: Topology, kind: str,
           node_budget: int) -> float:
    return _q_values(model, belief, action, key, key_depth(key), end_depth,
                     topology, (kind,), (_Budget(node_budget),))[0]


def exact_q_star(model: DiscretePomdp, belief: ExactBelief, action: int,
                 horizon: int, node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """Exact optimal Q-value of the original POMDP over `horizon` steps."""
    return _value(model, belief, action, (), horizon, Topology.fully_closed(),
                  "aol", node_budget)


def exact_aol_value(model: DiscretePomdp, belief: ExactBelief, action: int,
                    topology: Topology, horizon: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """Optimal adaptive open-loop value: at open nodes the next action is
    chosen before the observation expectation, over the propagated belief."""
    return _value(model, belief, action, (), horizon, topology, "aol",
                  node_budget)


def exact_afo_value(model: DiscretePomdp, belief: ExactBelief, action: int,
                    topology: Topology, horizon: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """Optimal adaptive fully-observable value: at simplified nodes the true
    next state is revealed, so the backup maximizes per state branch."""
    return _value(model, belief, action, (), horizon, topology, "afo",
                  node_budget)


def exact_bounds(model: DiscretePomdp, belief: ExactBelief, action: int,
                 topology: Topology, horizon: int,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> tuple:
    """(`exact_aol_value`, `exact_afo_value`) from one recursion; each side
    keeps its own node budget, and a node both share is charged to both."""
    return tuple(_q_values(model, belief, action, (), 0, horizon, topology,
                           ("aol", "afo"),
                           (_Budget(node_budget), _Budget(node_budget))))


def exact_continuation_value(model: DiscretePomdp, belief: ExactBelief,
                             action: int, start_key: tuple, end_depth: int,
                             topology: Topology, kind: str,
                             node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """Exact value of a subtree rooted mid-tree at the node keyed `start_key`
    (used by extended-horizon Q)."""
    return _value(model, belief, action, start_key, end_depth, topology, kind,
                  node_budget)
