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
                   cdf_table, sample_transitions)
from .topology import OPEN, Topology, child_key


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
        if self.num_state_branches is not None and self.num_state_branches < 1:
            raise ValueError("num_state_branches must be positive, or None for "
                             "num_observations")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    @property
    def c(self) -> int:
        return min(self.num_particles, self.num_observations)

    @property
    def fo_branches(self) -> int:
        return self.num_state_branches or self.num_observations


_MODE_TAG = {"aol": 1, "afo": 2}


def _stream_head(seed: int, mode: str) -> tuple:
    """The entropy words of `SeedSequence((seed, tag) + path)` before the
    path: `seed` as 32-bit little-endian words, then the mode's tag."""
    words = [seed & 0xFFFFFFFF]
    while seed > 0xFFFFFFFF:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    return tuple(words) + (_MODE_TAG[mode],)


def _rng(words: tuple) -> np.random.Generator:
    """`default_rng(SeedSequence(words))`, seeded from a uint32 array, which
    holds the same entropy and is cheaper to mix than the tuple."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(np.array(words, dtype=np.uint32))))


def _best_leaf(weights: np.ndarray, reward_rows: np.ndarray) -> float:
    """Value of a leaf child: its best immediate reward.  `reward_rows` is
    `reward[states].T` made C-contiguous, so row a gives the same dot product
    as the column `reward[states, a]`."""
    return max([float(weights @ row) for row in reward_rows])


def _leaf_rows(model: DiscretePomdp, states: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(model.reward[states].T)


def _estimate(model: DiscretePomdp, belief: ParticleBelief, action: int,
              key: tuple, depth: int, topology: Topology,
              config: SparseConfig, mode: str, head: tuple,
              path: tuple) -> float:
    immediate = float(belief.weights @ model.reward[belief.states, action])
    if depth + 1 >= config.horizon:
        return immediate
    # Children on the last layer are scored by `_best_leaf`, not recursion.
    leaves = depth + 2 >= config.horizon
    beta = topology.beta(key)
    rng = _rng(head + path)
    next_states = sample_transitions(model, belief.states, action, rng)

    def best(child, label, branch):
        child_k = child_key(key, action, beta, label)
        return max([_estimate(model, child, a, child_k, depth + 1,
                              topology, config, mode, head,
                              path + (action, branch, a))
                    for a in range(model.num_actions)])

    if beta == OPEN and mode == "aol":
        child = ParticleBelief._derived(next_states, belief.weights)
        if leaves:
            return immediate + _best_leaf(child.weights,
                                          _leaf_rows(model, next_states))
        return immediate + best(child, None, 0)
    if beta == OPEN and mode == "afo":
        picks = cdf_table(belief.weights).searchsorted(
            rng.random(config.fo_branches), side="right")
        uniform = np.full(config.num_particles, 1.0 / config.num_particles)
        total = 0.0
        for j, idx in enumerate(picks.tolist(), start=1):
            state = int(next_states[idx])
            child = ParticleBelief._derived(
                np.full(config.num_particles, state), uniform)
            if leaves:
                total += _best_leaf(child.weights,
                                    _leaf_rows(model, child.states))
            else:
                total += best(child, state, j)
        return immediate + total / config.fo_branches
    # Closed-loop: propagate once, then sample observations from the
    # transitioned particles' predictive mixture and reweight per draw.
    likelihoods = model.observation[next_states]
    predictive = belief.weights @ likelihoods
    mass = float(predictive.sum())
    if mass <= 0.0:
        raise ParticleDepletionError(
            "no observation has positive likelihood for any sampled particle",
            path=path)
    draws = cdf_table(predictive / mass).searchsorted(
        rng.random(config.num_observations), side="right")
    rows = _leaf_rows(model, next_states) if leaves else None
    total = 0.0
    for j, z in enumerate(draws.tolist(), start=1):
        weights = belief.weights * likelihoods[:, z]
        if float(weights.sum()) <= 0.0:
            raise ParticleDepletionError(
                f"sampled observation {z} depleted the particle set",
                path=path + (action, z))
        child = ParticleBelief._derived(next_states, weights)
        if leaves:
            total += _best_leaf(child.weights, rows)
        else:
            total += best(child, z, j)
    return immediate + total / config.num_observations


def estimate_lb(model: DiscretePomdp, belief: ParticleBelief, action: int,
                topology: Topology, config: SparseConfig) -> float:
    """Sampled lower bound: adaptive open-loop value estimate."""
    return _estimate(model, belief, action, (), 0, topology, config, "aol",
                     _stream_head(config.seed, "aol"), (action,))


def estimate_ub(model: DiscretePomdp, belief: ParticleBelief, action: int,
                topology: Topology, config: SparseConfig) -> float:
    """Sampled upper bound: adaptive fully-observable value estimate."""
    return _estimate(model, belief, action, (), 0, topology, config, "afo",
                     _stream_head(config.seed, "afo"), (action,))


def _subtree_signature(topology: Topology, action: int) -> tuple:
    entries = tuple(sorted((k, b) for k, b in topology.assignment
                           if k and k[0] == ("a", action)))
    return (entries, topology.beta(()), topology.default_mode)


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

    def bounds(self, model, belief, action, topology, horizon) -> tuple:
        config = self._with_horizon(horizon)
        return (self._cached("lb", model, belief, action, topology,
                             lambda: estimate_lb(model, belief, action,
                                                 topology, config)),
                self._cached("ub", model, belief, action, topology,
                             lambda: estimate_ub(model, belief, action,
                                                 topology, config)))

    def _with_horizon(self, horizon: int) -> SparseConfig:
        if horizon == self.config.horizon:
            return self.config
        return SparseConfig(self.config.num_particles,
                            self.config.num_observations, horizon,
                            self.config.seed, self.config.num_state_branches)
