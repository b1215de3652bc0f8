"""Tabular POMDP model, belief representations, and the basic belief updates.

All models are dense and discrete: transition tensors of shape (A, S, S),
observation matrices of shape (S, O), rewards of shape (S, A).  Beliefs are
either exact probability vectors or weighted particle sets.  Every stochastic
operation takes an explicit numpy Generator so that results are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_TOL = 1e-9
# Smallest predictive probability of an observation that is conditioned on:
# the Bayes update rejects an observation at or below it, and the exact
# expansion drops it, so every observation the tracker can follow is a branch
# of the exact values.
MIN_EVIDENCE = PROB_TOL * PROB_TOL


class ImpossibleObservationError(ValueError):
    """Raised when conditioning on an observation with zero predictive probability."""


class ParticleDepletionError(RuntimeError):
    """All particle weights became zero; the belief can no longer be normalized."""

    def __init__(self, message: str, path: tuple = ()):
        super().__init__(message)
        self.path = path


def _check_prob_vector(vec: np.ndarray, name: str) -> None:
    if np.any(vec < -PROB_TOL):
        raise ValueError(f"{name} has negative entries")
    if not abs(float(vec.sum()) - 1.0) <= PROB_TOL:  # also rejects NaN
        raise ValueError(f"{name} does not sum to 1 (sum={vec.sum()!r})")


def cdf_table(probabilities: np.ndarray) -> np.ndarray:
    """Read-only CDF of each row (last axis) of `probabilities`.

    Built as `Generator.choice` builds it (`cumsum`, then divided by the last
    entry), so `int(row.searchsorted(rng.random(), side="right"))` draws the
    same index from the same uniform as `rng.choice(n, p=probabilities)`.
    `bisect.bisect_right(row.tolist(), u)` makes the same float comparisons
    and returns the same index, for one draw without numpy overhead.
    """
    cdf = np.cumsum(probabilities, axis=-1)
    cdf /= cdf[..., -1:]
    cdf.setflags(write=False)
    return cdf


@dataclass(frozen=True)
class DiscretePomdp:
    """Explicit finite POMDP: transition (A,S,S), observation (S,O), reward (S,A)."""

    transition: np.ndarray
    observation: np.ndarray
    reward: np.ndarray
    initial_belief: np.ndarray
    horizon: int
    r_max: float

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=float)
        z = np.asarray(self.observation, dtype=float)
        r = np.asarray(self.reward, dtype=float)
        b0 = np.asarray(self.initial_belief, dtype=float)
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            raise ValueError("transition must have shape (A, S, S)")
        num_a, num_s = t.shape[0], t.shape[1]
        if z.shape[0] != num_s or z.ndim != 2:
            raise ValueError("observation must have shape (S, O)")
        if r.shape != (num_s, num_a):
            raise ValueError("reward must have shape (S, A)")
        if b0.shape != (num_s,):
            raise ValueError("initial_belief must have shape (S,)")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        for name, arr in (("transition", t), ("observation", z)):
            if not arr.min() >= 0.0:  # also rejects NaN
                first = np.argwhere(~(arr >= 0.0))[0].tolist()
                raise ValueError(f"{name}{first} is negative or NaN")
        for a in range(num_a):
            for s in range(num_s):
                _check_prob_vector(t[a, s], f"transition[{a},{s}]")
        for s in range(num_s):
            _check_prob_vector(z[s], f"observation[{s}]")
        _check_prob_vector(b0, "initial_belief")
        if (not np.isfinite(self.r_max)
                or not np.all(np.abs(r) <= self.r_max + PROB_TOL)):
            raise ValueError("rewards must satisfy |r| <= r_max")
        for arr in (t, z, r, b0):
            arr.setflags(write=False)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "observation", z)
        object.__setattr__(self, "reward", r)
        object.__setattr__(self, "initial_belief", b0)

    @property
    def num_states(self) -> int:
        return self.transition.shape[1]

    @property
    def num_actions(self) -> int:
        return self.transition.shape[0]

    @property
    def num_observations(self) -> int:
        return self.observation.shape[1]

    @property
    def v_max(self) -> float:
        return self.horizon * self.r_max

    @cached_property
    def transition_cdf(self) -> np.ndarray:
        """(A, S, S) CDF table of `transition`, built on first use."""
        return cdf_table(self.transition)

    @cached_property
    def observation_cdf(self) -> np.ndarray:
        """(S, O) CDF table of `observation`, built on first use."""
        return cdf_table(self.observation)

    @cached_property
    def draw_rows(self) -> tuple:
        """Python-list rows for one draw at a time (AT-POMCP):
        (transition CDF rows [action][state], observation CDF rows [state],
        reward rows [state]).  A CDF row is None until its first draw
        converts it from `transition_cdf` or `observation_cdf`; the reward
        rows are converted when this is built, on first use."""
        return ([[None] * self.num_states for _ in range(self.num_actions)],
                [None] * self.num_states, self.reward.tolist())

    @cached_property
    def likelihoods(self) -> np.ndarray:
        """(O, S) read-only C-contiguous copy of `observation.T`: row z holds
        P(z | x) for every state x.  Built on first use."""
        rows = np.ascontiguousarray(self.observation.T)
        rows.setflags(write=False)
        return rows

    @cached_property
    def value_table(self) -> dict:
        """The exact oracle's values of belief nodes whose subtree has one
        mode: (mode, tag, remaining depth, belief bytes) -> (best value over
        actions, node-budget units its recursion spent).  The tag is the kind
        ("aol" or "afo") under an open subtree and None under a closed one,
        where both kinds expand the same branches.  Empty until the oracle
        fills it."""
        return {}


@dataclass(frozen=True)
class ExactBelief:
    """Exact probability vector over states."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        _check_prob_vector(p, "belief")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def _derived(cls, p: np.ndarray) -> "ExactBelief":
        """Belief computed from a validated model and belief (a posterior, an
        open-loop propagation or a point mass): the checks and the clip of the
        public constructor are no-ops on it and are skipped."""
        p.setflags(write=False)
        belief = object.__new__(cls)
        object.__setattr__(belief, "probabilities", p)
        return belief

    @classmethod
    def uniform(cls, num_states: int) -> "ExactBelief":
        return cls(np.full(num_states, 1.0 / num_states))

    @property
    def support(self) -> frozenset:
        return frozenset(np.flatnonzero(self.probabilities > 0.0).tolist())


@dataclass(frozen=True)
class ParticleBelief:
    """Weighted particle set; weights are kept normalized."""

    states: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.int64)
        w = np.asarray(self.weights, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("at least one particle is required")
        if w.shape != s.shape:
            raise ValueError("weights must match particles")
        if not w.min() >= 0.0:
            raise ValueError("weights must be non-negative, not NaN")
        total = float(w.sum())
        if not np.isfinite(total):
            raise ValueError("total particle weight must be finite")
        if total <= 0.0:
            raise ParticleDepletionError("total particle weight is zero")
        w = w / total
        s.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "weights", w)

    @classmethod
    def _derived(cls, states: np.ndarray, weights: np.ndarray) -> "ParticleBelief":
        """Particle set computed from a validated model and belief (a
        propagation, a reweighting or a fully observable branch): the checks
        of the public constructor hold by construction and are skipped.  The
        weights are normalized as the public constructor normalizes them."""
        total = float(weights.sum())
        if total <= 0.0:
            raise ParticleDepletionError("total particle weight is zero")
        weights = weights / total
        states.setflags(write=False)
        weights.setflags(write=False)
        belief = object.__new__(cls)
        object.__setattr__(belief, "states", states)
        object.__setattr__(belief, "weights", weights)
        return belief

    @classmethod
    def from_states(cls, states) -> "ParticleBelief":
        states = np.asarray(states, dtype=np.int64)
        return cls(states, np.full(states.shape, 1.0 / states.size))

    @classmethod
    def from_exact(cls, belief: ExactBelief, num_particles: int,
                   rng: np.random.Generator) -> "ParticleBelief":
        states = rng.choice(belief.probabilities.size, size=num_particles,
                            p=belief.probabilities)
        return cls.from_states(states)

    @property
    def num_particles(self) -> int:
        return self.states.size


def expected_reward(model: DiscretePomdp, belief, action: int) -> float:
    """r(b, a) = E_{x|b}[r(x, a)] for either belief representation."""
    if isinstance(belief, ExactBelief):
        return float(belief.probabilities @ model.reward[:, action])
    return float(belief.weights @ model.reward[belief.states, action])


def observation_predictive(model: DiscretePomdp, belief: ExactBelief,
                           action: int) -> np.ndarray:
    """P(z | b, a) for every observation z."""
    propagated = model.transition[action].T @ belief.probabilities
    return propagated @ model.observation


def condition(model: DiscretePomdp, propagated: np.ndarray, observation: int,
              action: int):
    """Bayes' rule for `observation` given the propagated state distribution
    `propagated` of taking `action`.

    Returns (evidence, posterior): P(z | b, a) and the read-only posterior.
    """
    joint = model.likelihoods[observation] * propagated
    evidence = joint.sum()
    if evidence <= MIN_EVIDENCE:
        raise ImpossibleObservationError(
            f"observation {observation} has zero probability under "
            f"(belief, action={action})")
    posterior = joint / evidence
    posterior.setflags(write=False)
    return float(evidence), posterior


def exact_bayes_update(model: DiscretePomdp, belief: ExactBelief, action: int,
                       observation: int):
    """Full Bayes step: propagate through the transition model, condition on z.

    Returns (posterior, predictive probability of the observation).
    """
    propagated = model.transition[action].T @ belief.probabilities
    evidence, posterior = condition(model, propagated, observation, action)
    return ExactBelief._derived(posterior), evidence


def propagate_open_loop(model: DiscretePomdp, belief: ExactBelief,
                        actions) -> ExactBelief:
    """Push a belief through the transition model only, with no conditioning."""
    p = belief.probabilities
    for a in actions:
        p = model.transition[a].T @ p
    return ExactBelief._derived(p)


def sample_transitions(model: DiscretePomdp, states: np.ndarray, action: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Sample one successor for each state in `states` under `action`.

    Reads rows of the cached `model.transition_cdf`.  Each draw is the first
    state whose CDF entry reaches the uniform, which is the number of entries
    below it; the last entry is exactly 1, so every uniform in [0, 1) draws a
    valid state index."""
    cdf = model.transition_cdf[action].take(states, axis=0)
    draws = rng.random(states.size)
    return (cdf >= draws[:, None]).argmax(axis=1)


def state_support(model: DiscretePomdp, belief) -> np.ndarray:
    """Boolean mask of the states `belief` puts mass on; for a particle
    belief, its particle set."""
    if isinstance(belief, ExactBelief):
        return belief.probabilities > 0.0
    support = np.zeros(model.num_states, dtype=bool)
    support[np.unique(belief.states)] = True
    return support


def reachable_step(model: DiscretePomdp, support: np.ndarray,
                   action: int) -> np.ndarray:
    """Mask of the states one step of `action` can reach from the mask
    `support`."""
    return (model.transition[action][support] > 0.0).any(axis=0)


def reachable_states(model: DiscretePomdp, belief, actions) -> frozenset:
    """Exact support of the open-loop propagated state distribution.

    For particle beliefs the initial support is the particle set, which makes
    the result a superset-safe approximation of the true reachable set.
    """
    support = state_support(model, belief)
    for a in actions:
        support = reachable_step(model, support, a)
    return frozenset(np.flatnonzero(support).tolist())
