"""Brute-force exact values on tiny POMDPs by full belief-tree enumeration.

Ground truth for every bound and guarantee test: the optimal Q of the original
problem, and the topology-dependent adaptive open-loop (lower) and adaptive
fully-observable (upper) values.  No sampling anywhere; fully-observable
branches enumerate every next state with its exact transition probability.
"""
from __future__ import annotations

import numpy as np

from .core import DiscretePomdp, ExactBelief, expected_reward
from .topology import (NodeBudgetError, Topology, child_key, exact_branches,
                       key_depth)

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


def _q_value(model: DiscretePomdp, belief: ExactBelief, action: int,
             key: tuple, depth: int, end_depth: int,
             topology: Topology, kind: str, budget: _Budget) -> float:
    budget.spend()
    immediate = expected_reward(model, belief, action)
    if depth + 1 >= end_depth:
        return immediate
    future = 0.0
    beta = topology.beta(key)
    probabilities, labels, beliefs = exact_branches(model, belief, action,
                                                    beta, kind)
    if depth + 2 >= end_depth:
        # last layer: each child's value is its best immediate reward
        budget.spend(len(probabilities) * model.num_actions)
        for p, value in zip(probabilities,
                            best_immediate_rewards(model, beliefs).tolist()):
            future += p * value
        return immediate + future
    for p, label, row in zip(probabilities, labels, beliefs):
        child = ExactBelief._derived(row)
        child_k = child_key(key, action, beta, label)
        future += p * max(_q_value(model, child, a, child_k, depth + 1,
                                   end_depth, topology, kind, budget)
                          for a in range(model.num_actions))
    return immediate + future


def exact_q_star(model: DiscretePomdp, belief: ExactBelief, action: int,
                 horizon: int, node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """Exact optimal Q-value of the original POMDP over `horizon` steps."""
    return _q_value(model, belief, action, (), 0, horizon,
                    Topology.fully_closed(), "aol", _Budget(node_budget))


def exact_aol_value(model: DiscretePomdp, belief: ExactBelief, action: int,
                    topology: Topology, horizon: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """Optimal adaptive open-loop value: at open nodes the next action is
    chosen before the observation expectation, over the propagated belief."""
    return _q_value(model, belief, action, (), 0, horizon,
                    topology, "aol", _Budget(node_budget))


def exact_afo_value(model: DiscretePomdp, belief: ExactBelief, action: int,
                    topology: Topology, horizon: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """Optimal adaptive fully-observable value: at simplified nodes the true
    next state is revealed, so the backup maximizes per state branch."""
    return _q_value(model, belief, action, (), 0, horizon,
                    topology, "afo", _Budget(node_budget))


def exact_continuation_value(model: DiscretePomdp, belief: ExactBelief,
                             action: int, start_key: tuple, end_depth: int,
                             topology: Topology, kind: str,
                             node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """Exact value of a subtree rooted mid-tree at the node keyed `start_key`
    (used by extended-horizon Q)."""
    return _q_value(model, belief, action, start_key, key_depth(start_key),
                    end_depth, topology, kind, _Budget(node_budget))
