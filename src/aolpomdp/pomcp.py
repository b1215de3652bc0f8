"""Anytime MCTS solver with progressive topology adaptation (AT-POMCP).

UCB tree search over node keys (`topology.child_key`): under an open topology
sibling observation branches merge into a single node, so the tree stays
small; on a progressive schedule (triggered once the simulation index exceeds
pw_k * j**pw_alpha) randomly chosen visited open nodes are switched to
closed-loop.  Transitioned nodes keep their visit counts and values; the
running mean converges to the new-topology value as visits accumulate.

Every draw bisects a CDF row of the model with one uniform
(`bisect.bisect_right` on a Python-list row of `DiscretePomdp.draw_rows`),
making the float comparisons that `Generator.choice` makes with a probability
row, so searches draw the same random stream as with `choice`, at a fraction
of its cost.  A simulation is one descent loop followed by a backup over its
path; node statistics are Python lists, so no step does numpy scalar work.
"""
from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import DiscretePomdp, ExactBelief, ParticleBelief, cdf_table
from .topology import OPEN, Topology, child_key, key_depth, refine_topology


@dataclass(frozen=True)
class PomcpConfig:
    horizon: int
    seed: int
    ucb_constant: float = 1.0
    pw_k: float = 100.0
    pw_alpha: float = 1.0
    num_simulations: int = None      # deterministic budget; wall clock if None
    time_budget_ms: float = None
    transition_flips: int = 1        # nodes flipped per topology transition
    adapt_topology: bool = True

    def __post_init__(self):
        if self.num_simulations is None and self.time_budget_ms is None:
            raise ValueError("either num_simulations or time_budget_ms is required")
        if self.pw_alpha <= 0 or self.pw_alpha > 1 or self.pw_k <= 0:
            raise ValueError("progressive schedule parameters must be positive "
                             "with alpha in (0, 1]")


@dataclass
class SearchNode:
    visits: int = 0
    action_visits: list = None
    action_values: list = None


@dataclass
class SearchDiagnostics:
    simulations: int = 0
    transitions: list = field(default_factory=list)
    nodes: int = 0


@dataclass
class SearchResult:
    action: int
    value: float
    root_values: np.ndarray
    root_visits: np.ndarray
    diagnostics: SearchDiagnostics
    topology: Topology


def random_topo_transition(topology: Topology, visited_keys, num_observations: int,
                           horizon: int, rng: np.random.Generator,
                           flips: int = 1):
    """Flip up to `flips` uniformly chosen visited open nodes to closed-loop.

    Returns (topology, flipped_keys, identity_flag); the identity flag is set
    when no open node was available.
    """
    candidates = sorted(k for k in visited_keys
                        if key_depth(k) < horizon and topology.beta(k) == OPEN)
    if not candidates:
        return topology, [], True
    chosen = rng.choice(len(candidates), size=min(flips, len(candidates)),
                        replace=False)
    flipped = [candidates[int(i)] for i in chosen]
    return refine_topology(topology, flipped, num_observations), flipped, False


class AtPomcp:
    """Topology-based MCTS solver; baseline POMCP is the same search with a
    fully closed topology and adaptation disabled."""

    def __init__(self, model: DiscretePomdp, config: PomcpConfig,
                 initial_topology: Topology = None):
        self.model = model
        self.config = config
        if initial_topology is None:
            initial_topology = (Topology.fully_open() if config.adapt_topology
                                else Topology.fully_closed())
        self.topology = initial_topology
        self.tree = {}
        self.rng = np.random.default_rng(config.seed)
        self.adaptation_index = 1
        # the simulation index past which the next transition is due,
        # pw_k * adaptation_index ** pw_alpha
        self.adapt_after = config.pw_k if config.adapt_topology else math.inf
        self.diagnostics = SearchDiagnostics()

    # -- generative model ---------------------------------------------------

    def _generate(self, state: int, action: int):
        transition_rows, observation_rows, rewards = self.model.draw_rows
        row = transition_rows[action][state]
        if row is None:
            row = transition_rows[action][state] = (
                self.model.transition_cdf[action, state].tolist())
        next_state = bisect_right(row, self.rng.random())
        row = observation_rows[next_state]
        if row is None:
            row = observation_rows[next_state] = (
                self.model.observation_cdf[next_state].tolist())
        obs = bisect_right(row, self.rng.random())
        return next_state, obs, rewards[state][action]

    def _rollout(self, state: int, depth: int) -> float:
        total = 0.0
        while depth < self.config.horizon:
            action = int(self.rng.integers(self.model.num_actions))
            state, _, reward = self._generate(state, action)
            total += reward
            depth += 1
        return total

    # -- search -------------------------------------------------------------

    def _node(self, key: tuple) -> SearchNode:
        node = self.tree.get(key)
        if node is None:
            num_actions = self.model.num_actions
            node = SearchNode(action_visits=[0] * num_actions,
                              action_values=[0.0] * num_actions)
            self.tree[key] = node
            self.diagnostics.nodes += 1
        return node

    def _ucb_action(self, node: SearchNode) -> int:
        visits = node.action_visits
        if 0 in visits:
            return visits.index(0)
        c, log_n = self.config.ucb_constant, math.log(node.visits)
        scores = [q + c * math.sqrt(log_n / n)
                  for q, n in zip(node.action_values, visits)]
        return scores.index(max(scores))

    def _adapt(self, sim_index: int):
        self.adaptation_index += 1
        self.adapt_after = (self.config.pw_k
                            * self.adaptation_index ** self.config.pw_alpha)
        self.topology, flipped, identity = random_topo_transition(
            self.topology, self.tree.keys(), self.model.num_observations,
            self.config.horizon, self.rng, self.config.transition_flips)
        if not identity:
            self.diagnostics.transitions.append(
                (sim_index, self.adaptation_index, len(flipped),
                 self.open_fraction()))

    def simulate(self, state: int, key: tuple, depth: int,
                 sim_index: int) -> float:
        """One simulation from `state` at node `key`: descend by UCB to the
        first new node, roll out from it, then back the return up the path."""
        tree, horizon, path, total = self.tree, self.config.horizon, [], 0.0
        while depth < horizon:
            node = tree.get(key)
            if node is None:
                self._node(key)
                total = self._rollout(state, depth)
                break
            action = self._ucb_action(node)
            state, obs, reward = self._generate(state, action)
            if sim_index > self.adapt_after:
                self._adapt(sim_index)
            key = child_key(key, action, self.topology.beta(key), obs)
            path.append((node, action, reward))
            depth += 1
        for node, action, reward in reversed(path):
            total = reward + total
            node.visits += 1
            n = node.action_visits[action] + 1
            node.action_visits[action] = n
            value = node.action_values[action]
            node.action_values[action] = value + (total - value) / n
        return total

    def open_fraction(self) -> float:
        keys = [k for k in self.tree if key_depth(k) < self.config.horizon]
        if not keys:
            return 1.0
        return sum(self.topology.beta(k) == OPEN for k in keys) / len(keys)

    def search(self, root_belief) -> SearchResult:
        if isinstance(root_belief, ExactBelief):
            states = range(self.model.num_states)
            root_cdf = cdf_table(root_belief.probabilities).tolist()
        elif isinstance(root_belief, ParticleBelief):
            states = root_belief.states.tolist()
            root_cdf = cdf_table(root_belief.weights).tolist()
        else:
            raise TypeError("root belief must be exact or particle-based")
        deadline = None
        if self.config.num_simulations is None:
            deadline = time.perf_counter() + self.config.time_budget_ms / 1000.0
        sim_index = 0
        while True:
            sim_index += 1
            if self.config.num_simulations is not None:
                if sim_index > self.config.num_simulations:
                    break
            elif time.perf_counter() >= deadline:
                break
            state = states[bisect_right(root_cdf, self.rng.random())]
            self.simulate(state, (), 0, sim_index)
        self.diagnostics.simulations = sim_index - 1
        root_node = self._node(())
        root_values = np.array(root_node.action_values)
        root_visits = np.array(root_node.action_visits, dtype=np.int64)
        visited = root_visits > 0
        values = np.where(visited, root_values, -np.inf)
        best = int(np.argmax(values)) if visited.any() else 0
        return SearchResult(best, float(root_values[best]), root_values,
                            root_visits, self.diagnostics, self.topology)

