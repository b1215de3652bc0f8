"""Brute-force exact values on tiny POMDPs by full belief-tree enumeration.

Ground truth for every bound and guarantee test: the optimal Q of the original
problem, and the topology-dependent adaptive open-loop (lower) and adaptive
fully-observable (upper) values.  No sampling anywhere; fully-observable
branches enumerate every next state with its exact transition probability.
One recursion yields the lower and upper value together, and the value of a
node whose subtree has one mode, which depends only on its belief and
remaining depth, is computed once per model (`DiscretePomdp.value_table`).
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
    futures = [0.0] * len(kinds)
    for p, label, row in zip(probabilities, labels, beliefs):
        values = _best_values(model, row, child_key(key, action, beta, label),
                              depth + 1, end_depth, topology, kinds, budgets)
        for i, value in enumerate(values):
            futures[i] += p * value
    return futures


def _best_values(model: DiscretePomdp, row: np.ndarray, key: tuple,
                 depth: int, end_depth: int, topology: Topology,
                 kinds: tuple, budgets: tuple) -> list:
    """Best value over actions of the node `row` keyed `key`, for each of
    `kinds`.

    The value of a node whose subtree has one mode (`Topology.uniform_below`)
    depends only on its belief and remaining depth, so the first recursion
    stores it with the units it spent in `model.value_table`, and a later
    lookup spends the same units on each kind's budget.  Under an open
    subtree each kind has its own entry; under a closed one both kinds expand
    the same branches and share one.
    """
    mode = topology.uniform_below(key)
    if mode is None:
        return _maxima(model, row, key, depth, end_depth, topology, kinds,
                       budgets)
    if mode == OPEN and len(kinds) > 1:
        return [_best_values(model, row, key, depth, end_depth, topology,
                             (kind,), (budget,))[0]
                for kind, budget in zip(kinds, budgets)]
    tag = kinds[0] if mode == OPEN else None
    entry_key = (mode, tag, end_depth - depth, row.tobytes())
    entry = model.value_table.get(entry_key)
    if entry is None:
        before = budgets[0].remaining
        value = _maxima(model, row, key, depth, end_depth, topology, kinds,
                        budgets)[0]
        entry = model.value_table[entry_key] = (
            value, before - budgets[0].remaining)
    else:
        for budget in budgets:
            budget.spend(entry[1])
    return [entry[0]] * len(kinds)


def _maxima(model: DiscretePomdp, row: np.ndarray, key: tuple, depth: int,
            end_depth: int, topology: Topology, kinds: tuple,
            budgets: tuple) -> list:
    """Each kind's best value over actions at the node `row`, by
    recursion."""
    child = ExactBelief._derived(row)
    values = [_q_values(model, child, a, key, depth, end_depth, topology,
                        kinds, budgets) for a in range(model.num_actions)]
    return [max(column) for column in zip(*values)]


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
