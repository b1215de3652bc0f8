"""Sparse-sampling bound estimators over particle beliefs (AT-SparsePFT).

Estimates the adaptive open-loop (lower) and adaptive fully-observable (upper)
values of a topology by recursive sampling: closed-loop nodes sample
observations and reweight a particle filter child per draw, open-loop nodes
propagate the particle set without reweighting, fully-observable nodes sample
next-state branches and average their per-branch maxima.  Every recursion
branch derives its RNG stream deterministically from the path, so identical
config and seed always produce identical estimates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DiscretePomdp, ParticleBelief, ParticleDepletionError,
                   sample_transitions)
from .topology import AugmentedHistory, OPEN, Topology


@dataclass(frozen=True)
class SparseConfig:
    num_particles: int
    num_observations: int
    horizon: int
    seed: int
    num_state_branches: int = None   # fully-observable branch count; defaults to
                                     # num_observations for tractability

    def __post_init__(self):
        if min(self.num_particles, self.num_observations, self.horizon) < 1:
            raise ValueError("all sampling counts must be positive")

    @property
    def c(self) -> int:
        return min(self.num_particles, self.num_observations)

    @property
    def fo_branches(self) -> int:
        return self.num_state_branches or self.num_observations


_MODE_TAG = {"aol": 1, "afo": 2}


def _rng(config: SparseConfig, mode: str, path: tuple) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((config.seed, _MODE_TAG[mode]) + path))


def _estimate(model: DiscretePomdp, belief: ParticleBelief, action: int,
              history: AugmentedHistory, depth: int, topology: Topology,
              config: SparseConfig, mode: str, path: tuple) -> float:
    immediate = float(belief.weights @ model.reward[belief.states, action])
    if depth + 1 >= config.horizon:
        return immediate
    beta = topology.beta(history.key)
    rng = _rng(config, mode, path)
    if beta == OPEN and mode == "aol":
        next_states = sample_transitions(model, belief.states, action, rng)
        child = ParticleBelief(next_states, belief.weights)
        child_h = history.extended_open(action)
        future = max(_estimate(model, child, a, child_h, depth + 1, topology,
                               config, mode, path + (action, 0, a))
                     for a in range(model.num_actions))
        return immediate + future
    if beta == OPEN and mode == "afo":
        pool = sample_transitions(model, belief.states, action, rng)
        picks = rng.choice(belief.num_particles, size=config.fo_branches,
                           p=belief.weights)
        total = 0.0
        for j, idx in enumerate(picks):
            state = int(pool[idx])
            child = ParticleBelief.from_states(
                np.full(config.num_particles, state))
            child_h = history.extended_fully_observable(action, state)
            total += max(_estimate(model, child, a, child_h, depth + 1, topology,
                                   config, mode, path + (action, j + 1, a))
                         for a in range(model.num_actions))
        return immediate + total / config.fo_branches
    # Closed-loop: propagate once, then sample observations from the
    # transitioned particles' predictive mixture and reweight per draw.
    next_states = sample_transitions(model, belief.states, action, rng)
    predictive = belief.weights @ model.observation[next_states]
    mass = float(predictive.sum())
    if mass <= 0.0:
        raise ParticleDepletionError(
            "no observation has positive likelihood for any sampled particle",
            path=path)
    draws = rng.choice(model.num_observations, size=config.num_observations,
                       p=predictive / mass)
    total = 0.0
    for j, z in enumerate(draws):
        weights = belief.weights * model.observation[next_states, z]
        if float(weights.sum()) <= 0.0:
            raise ParticleDepletionError(
                f"sampled observation {int(z)} depleted the particle set",
                path=path + (action, int(z)))
        child = ParticleBelief(next_states, weights)
        child_h = history.extended_closed(action, int(z))
        total += max(_estimate(model, child, a, child_h, depth + 1, topology,
                               config, mode, path + (action, j + 1, a))
                     for a in range(model.num_actions))
    return immediate + total / config.num_observations


def estimate_lb(model: DiscretePomdp, belief: ParticleBelief, action: int,
                topology: Topology, config: SparseConfig) -> float:
    """Sampled lower bound: adaptive open-loop value estimate."""
    return _estimate(model, belief, action, AugmentedHistory(), 0, topology,
                     config, "aol", (action,))


def estimate_ub(model: DiscretePomdp, belief: ParticleBelief, action: int,
                topology: Topology, config: SparseConfig) -> float:
    """Sampled upper bound: adaptive fully-observable value estimate."""
    return _estimate(model, belief, action, AugmentedHistory(), 0, topology,
                     config, "afo", (action,))


def _subtree_signature(topology: Topology, action: int) -> tuple:
    entries = tuple(sorted((k, b) for k, b in topology.assignment
                           if k and k[0] == ("a", action)))
    return (entries, topology.beta(()), topology.default_mode,
            topology.forced_open_depth)


class SparsePftEvaluator:
    """Bound evaluator for `compute_bounds` / `plan_with_guarantees`.

    Root-action estimates are cached per (side, action) and reused across
    topology refinements that left the action's subtree untouched; the cache
    is keyed by a signature of the subtree's mode assignment so it can never
    alias across topology changes.
    """

    def __init__(self, config: SparseConfig):
        self.config = config
        self._cache = {}
        self._cache_context = None
        self.cache_hits = 0
        self.cache_misses = 0

    def estimation_meta(self) -> dict:
        return {"N": self.config.num_particles,
                "NO": self.config.num_observations,
                "C": self.config.c,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses}

    def _cached(self, side: str, model, belief, action, topology, compute):
        context = (model, belief)
        if (self._cache_context is None
                or context[0] is not self._cache_context[0]
                or context[1] is not self._cache_context[1]):
            self._cache_context = context
            self._cache.clear()
        sig = _subtree_signature(topology, action)
        hit = self._cache.get((side, action))
        if hit is not None and hit[0] == sig:
            self.cache_hits += 1
            return hit[1]
        self.cache_misses += 1
        value = compute()
        self._cache[(side, action)] = (sig, value)
        return value

    def lower(self, model, belief, action, topology, horizon):
        config = self._with_horizon(horizon)
        return self._cached("lb", model, belief, action, topology,
                            lambda: estimate_lb(model, belief, action, topology,
                                                config))

    def upper(self, model, belief, action, topology, horizon):
        config = self._with_horizon(horizon)
        return self._cached("ub", model, belief, action, topology,
                            lambda: estimate_ub(model, belief, action, topology,
                                                config))

    def _with_horizon(self, horizon: int) -> SparseConfig:
        if horizon == self.config.horizon:
            return self.config
        return SparseConfig(self.config.num_particles,
                            self.config.num_observations, horizon,
                            self.config.seed, self.config.num_state_branches)
