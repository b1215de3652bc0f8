"""Skip-replanning guarantees: likelihood-ratio factors, extended-horizon
values, future-step bounds, the SRG certificate check, and the execution loop.

At planning time the posterior at a future step k is unknown, but with an
open-loop action prefix it is sandwiched multiplicatively between the
open-loop propagated belief scaled by the per-step min/max likelihood-ratio
product.  That turns the current session's adaptive open-loop / fully
observable values into bounds on the optimal Q at *any* realized posterior,
which is what certifies executing future actions without replanning.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundPair, SeparationResult, check_separation
from .core import (DiscretePomdp, ExactBelief, expected_reward,
                   propagate_open_loop, reachable_step, state_support,
                   exact_bayes_update)
from .oracle import exact_continuation_value
from .topology import (OPEN, Topology, TopologyContractError, child_key,
                       key_depth)


class EmptyLikelihoodSupportError(ValueError):
    """A restricted observation set has no positive likelihood entry."""


class PositivityError(ValueError):
    """The residual value is negative; the multiplicative sandwich is only
    directional for positive values.  Configure a reward offset making the
    reward function non-negative before enabling skip-replanning."""


@dataclass(frozen=True)
class LikelihoodRatioFactor:
    value: float
    per_step: tuple
    observation_sets: tuple


@dataclass
class SrgStep:
    index: int
    status: str                    # "separated" | "failed"
    action: int = None
    bounds: dict = None
    separation: SeparationResult = None
    failure_reason: str = ""


@dataclass
class SrgCertificate:
    depth: int
    actions: list                  # a*_0 .. a*_k for the certified prefix
    steps: list
    allowed_observation_sets: list

    @property
    def certified_depth(self) -> int:
        n = 0
        for step in self.steps:
            if step.status != "separated":
                break
            n += 1
        return n


def _likelihood_ratio(model: DiscretePomdp, support: np.ndarray,
                      observations, step: int) -> float:
    """min/max positive likelihood over the reachable states `support` (a
    mask) and the allowed `observations` at prefix step `step`."""
    block = model.observation[np.ix_(np.flatnonzero(support),
                                     sorted(observations))]
    positive = block[block > 0.0]
    if positive.size == 0:
        raise EmptyLikelihoodSupportError(
            f"step {step}: no positive likelihood over the restricted sets")
    return float(positive.min()) / float(positive.max())


def compute_ck(model: DiscretePomdp, belief, actions,
               observation_sets=None) -> LikelihoodRatioFactor:
    """Product over steps of min/max positive observation likelihood ratios,
    restricted to the per-step reachable states and allowed observations."""
    k = len(actions)
    if observation_sets is None:
        observation_sets = [frozenset(range(model.num_observations))] * k
    if len(observation_sets) != k:
        raise ValueError("need one observation set per step")
    per_step = []
    support = state_support(model, belief)
    for j, (action, obs_set) in enumerate(zip(actions, observation_sets),
                                          start=1):
        support = reachable_step(model, support, action)
        per_step.append(_likelihood_ratio(model, support, obs_set, j))
    value = float(np.prod(per_step)) if per_step else 1.0
    return LikelihoodRatioFactor(value, tuple(per_step),
                                 tuple(frozenset(s) for s in observation_sets))


def _check_open_prefix(topology: Topology, forced_actions) -> None:
    if not topology.is_open_prefix(len(forced_actions), forced_actions):
        raise TopologyContractError(
            "topology must be open-loop over the forced action prefix")


def _extended(model: DiscretePomdp, prefix, action: int):
    """`prefix` extended open-loop by `action`: one propagation."""
    rewards, belief, key = prefix
    return (rewards + expected_reward(model, belief, action),
            propagate_open_loop(model, belief, [action]),
            child_key(key, action, OPEN, None))


def _open_loop_prefix(model: DiscretePomdp, belief: ExactBelief,
                      forced_actions):
    """(sum of expected rewards, propagated belief, node key) along the
    open-loop prefix."""
    prefix = (0.0, belief, ())
    for a in forced_actions:
        prefix = _extended(model, prefix, a)
    return prefix


def _q_tilde(model: DiscretePomdp, prefix, action: int, topology: Topology,
             plan_horizon: int, mode: str, node_budget: int = 10 ** 6) -> float:
    rewards, propagated, key = prefix
    return rewards + exact_continuation_value(
        model, propagated, action, key, key_depth(key) + plan_horizon,
        topology, mode, node_budget)


def q_tilde(model: DiscretePomdp, belief: ExactBelief, forced_actions,
            action: int, topology: Topology, plan_horizon: int, mode: str,
            node_budget: int = 10 ** 6) -> float:
    """Extended-horizon value: horizon len(prefix) + plan_horizon with the
    prefix actions enforced open-loop, optimal continuation afterwards."""
    _check_open_prefix(topology, forced_actions)
    return _q_tilde(model, _open_loop_prefix(model, belief, forced_actions),
                    action, topology, plan_horizon, mode, node_budget)


def _step_bounds(model: DiscretePomdp, prefix, c_k: float, candidates,
                 topology: Topology, plan_horizon: int,
                 tolerance: float = 1e-9) -> dict:
    """`future_bounds` of each candidate after one shared open-loop prefix
    (from `_open_loop_prefix`) with likelihood-ratio factor `c_k`."""
    rewards, _, key = prefix
    k = key_depth(key)
    bound_map = {}
    for candidate in candidates:
        res_aol = _q_tilde(model, prefix, candidate, topology, plan_horizon,
                           "aol") - rewards
        res_afo = _q_tilde(model, prefix, candidate, topology, plan_horizon,
                           "afo") - rewards
        if res_aol < -tolerance or res_afo < -tolerance:
            raise PositivityError(
                f"negative residual value (aol={res_aol:.6g}, "
                f"afo={res_afo:.6g})")
        bound_map[candidate] = BoundPair(
            c_k * res_aol, res_afo / c_k, candidate, topology.topology_id,
            {"c_k": c_k, "k": k})
    return bound_map


def future_bounds(model: DiscretePomdp, belief: ExactBelief, actions,
                  topology: Topology, plan_horizon: int,
                  observation_sets=None, tolerance: float = 1e-9) -> BoundPair:
    """Bounds on Q* at step k for any realized posterior: the scaled residual
    extended-horizon values (actions = a_0..a_{k-1} prefix plus candidate a_k)."""
    if not actions:
        raise ValueError("need at least the candidate action")
    candidate = actions[-1]
    prefix_actions = list(actions[:-1])
    factor = compute_ck(model, belief, prefix_actions, observation_sets)
    _check_open_prefix(topology, prefix_actions)
    prefix = _open_loop_prefix(model, belief, prefix_actions)
    return _step_bounds(model, prefix, factor.value, [candidate], topology,
                        plan_horizon, tolerance)[candidate]


def allowed_observation_sets(model: DiscretePomdp, belief: ExactBelief,
                             actions, top_m: int = 4) -> list:
    """Top-m observations by predictive likelihood under the open-loop
    propagated belief at each step (ties broken by lowest index)."""
    sets = []
    for a in actions:
        belief = propagate_open_loop(model, belief, [a])
        sets.append(_top_observations(model, belief, top_m))
    return sets


def _top_observations(model: DiscretePomdp, propagated: ExactBelief,
                      top_m: int) -> frozenset:
    predictive = propagated.probabilities @ model.observation
    order = np.argsort(-predictive, kind="stable")
    return frozenset(int(z) for z in order[:top_m])


def check_srg(model: DiscretePomdp, belief: ExactBelief, first_action: int,
              depth: int, topology: Topology, observation_sets=None,
              plan_horizon: int = None, allowed_top_m: int = None) -> SrgCertificate:
    """Sequential future-step separation check (meaningful only while every
    preceding step separated; evaluation stops at the first failure).

    With `allowed_top_m` set and no explicit sets, the allowed observation set
    for each step is derived from the certified prefix as it grows.  The
    prefix, its reachable states and its per-step likelihood ratios are
    extended by one action per step, not recomputed from the root.
    """
    plan_horizon = plan_horizon or model.horizon
    actions = [first_action]
    steps = []
    built_sets = []
    ratios = []
    prefix = _open_loop_prefix(model, belief, [])
    support = state_support(model, belief)
    for i in range(1, depth + 1):
        prefix = _extended(model, prefix, actions[-1])
        support = reachable_step(model, support, actions[-1])
        if observation_sets is not None:
            if len(observation_sets) < i:
                raise ValueError("need one observation set per step")
            built_sets.append(observation_sets[i - 1])
        elif allowed_top_m is not None:
            built_sets.append(_top_observations(model, prefix[1],
                                                allowed_top_m))
        else:
            built_sets.append(frozenset(range(model.num_observations)))
        try:
            ratios.append(_likelihood_ratio(model, support, built_sets[-1], i))
            _check_open_prefix(topology, actions)
            bound_map = _step_bounds(model, prefix, float(np.prod(ratios)),
                                     range(model.num_actions), topology,
                                     plan_horizon)
            separation = check_separation(bound_map)
        except (PositivityError, EmptyLikelihoodSupportError) as exc:
            steps.append(SrgStep(i, "failed", failure_reason=str(exc)))
            break
        if not separation.separated:
            steps.append(SrgStep(i, "failed", bounds=bound_map,
                                 separation=separation,
                                 failure_reason="overlapping bounds"))
            break
        steps.append(SrgStep(i, "separated", separation.optimal_action,
                             bound_map, separation))
        actions.append(separation.optimal_action)
    return SrgCertificate(depth, actions, steps, built_sets[:len(steps)])


@dataclass
class SkipConfig:
    enabled: bool = True
    max_skip_depth: int = 2
    allowed_top_m: int = 4
    plan_horizon: int = None


@dataclass
class TraceRow:
    step: int
    action: int
    observation: int
    in_allowed: bool
    skipped: bool
    reward: float
    cumulative: float
    planning_time: float
    srg_time: float


@dataclass
class EpisodeTrace:
    rows: list = field(default_factory=list)
    certificates: list = field(default_factory=list)

    @property
    def total_reward(self) -> float:
        return self.rows[-1].cumulative if self.rows else 0.0

    @property
    def skip_ratio(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.skipped for r in self.rows) / len(self.rows)


def execute_with_skipping(model: DiscretePomdp, environment, planner,
                          skip_config: SkipConfig) -> EpisodeTrace:
    """Execution loop: plan at the root, certify future open-loop steps, and
    execute them without replanning while the realized observation stays in
    the allowed set.

    After each planned step that does not end the episode, the SRG check runs
    on the belief the action was planned at; `srg_time` records its compute
    time.
    """
    if skip_config.enabled and float(model.reward.min()) < 0.0:
        raise PositivityError(
            "skip-replanning requires non-negative rewards; declare a reward "
            "offset in the environment configuration")
    belief = ExactBelief(model.initial_belief)
    trace = EpisodeTrace()
    cumulative = 0.0
    step = 0
    done = False
    while not done:
        t0 = time.perf_counter()
        action = planner(belief, step)
        planning_time = time.perf_counter() - t0
        observation, reward, done = environment.step(action)
        cumulative += reward
        trace.rows.append(TraceRow(step, action, observation, True, False,
                                   reward, cumulative, planning_time, 0.0))
        certificate = None
        if skip_config.enabled and not done:
            depth = skip_config.max_skip_depth
            t1 = time.perf_counter()
            certificate = check_srg(
                model, belief, action, depth,
                Topology(default_mode=OPEN, forced_open_depth=depth), None,
                skip_config.plan_horizon or model.horizon,
                skip_config.allowed_top_m)
            trace.rows[-1].srg_time = time.perf_counter() - t1
            trace.certificates.append(certificate)
        belief = _track(model, belief, action, observation)
        step += 1
        if certificate is None:
            continue
        for i, srg_step in enumerate(certificate.steps, start=1):
            if done or srg_step.status != "separated":
                break
            allowed = certificate.allowed_observation_sets[i - 1]
            if observation not in allowed:
                break
            skip_action = srg_step.action
            observation, reward, done = environment.step(skip_action)
            cumulative += reward
            trace.rows.append(TraceRow(step, skip_action, observation,
                                       observation in allowed, True,
                                       reward, cumulative, 0.0, 0.0))
            belief = _track(model, belief, skip_action, observation)
            step += 1
    return trace


def _track(model: DiscretePomdp, belief: ExactBelief, action: int,
           observation: int) -> ExactBelief:
    posterior, _ = exact_bayes_update(model, belief, action, observation)
    return posterior
