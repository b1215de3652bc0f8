"""Exact reference for the benchmark's output checks.

A dense Bayes filter and a finite-horizon Q* recursion over plain numpy
arrays: transition (A, S, S), observation (S, O), reward (S, A).  Written
apart from `aolpomdp.core` and `aolpomdp.oracle` so that a fault there cannot
hide itself by agreeing with its own check.  Observation branches are kept
whenever their probability is above zero; nothing is pruned.
"""
from __future__ import annotations

import numpy as np


class ImpossibleObservation(ValueError):
    """The filter was asked to condition on an observation of probability 0."""


def bayes_filter(transition, observation, belief, action, obs):
    """Posterior over states after taking `action` and seeing `obs`."""
    joint = (belief @ transition[action]) * observation[:, obs]
    evidence = joint.sum()
    if evidence <= 0.0:
        raise ImpossibleObservation(
            f"observation {obs} has probability 0 after action {action}")
    return joint / evidence


def filter_trace(transition, observation, initial, steps):
    """Beliefs before each step of an executed (action, observation) trace.

    Returns one belief per step plus the belief after the last step.
    """
    beliefs = [np.asarray(initial, dtype=float)]
    for action, obs in steps:
        beliefs.append(bayes_filter(transition, observation, beliefs[-1],
                                    action, obs))
    return beliefs


def q_star(transition, observation, reward, belief, horizon):
    """Optimal Q-values of every action over `horizon` steps at `belief`.

    Q_1(b, a) = r(b, a);  Q_h(b, a) = r(b, a) + sum_z P(z | b, a) max_a' Q_{h-1}(b_az, a').
    """
    q = belief @ reward
    if horizon <= 1:
        return q
    for a in range(transition.shape[0]):
        joint = (belief @ transition[a])[:, None] * observation
        evidence = joint.sum(axis=0)
        for z in np.flatnonzero(evidence > 0.0):
            posterior = joint[:, z] / evidence[z]
            q[a] += evidence[z] * q_star(transition, observation, reward,
                                         posterior, horizon - 1).max()
    return q


def optimality_tolerance(q) -> float:
    """Slack under which two Q-values count as tied.

    The program's oracle drops observation branches of probability below
    1e-9, which moves a value by at most about 1e-9 * v_max per dropped
    branch; this slack is well above that and well below any real gap.
    """
    return 1e-6 * max(1.0, float(np.max(np.abs(q))))


def is_optimal(q, action: int) -> bool:
    return bool(q[action] >= q.max() - optimality_tolerance(q))
