"""Anytime MCTS solver with progressive topology adaptation (AT-POMCP).

UCB tree search over node keys (`topology.child_key`): under an open topology
sibling observation branches merge into a single node, so the tree stays
small.  The search starts fully open-loop.  On a progressive schedule (due
once the simulation index exceeds pw_k * j**pw_alpha) each topology
transition closes the next `transition_flips` layers, shallowest first,
until every layer but the last is closed-loop (the last layer's mode reaches
no node: its children are leaves); the first transition closes the root.
The layers are one integer, `closed_depth`: nodes shallower than it are
closed-loop.  A transition drops the nodes below the first newly closed
layer, whose keys no descent reaches any more.  Every node it keeps holds
returns sampled under the coarser topology, which understate the closed-loop
value; it keeps each action's mean as the weight of one visit, so fresh
closed-loop returns outweigh the stale ones and the running mean converges
to the new-topology value (a non-stationary bandit, after Kocsis &
Szepesvari 2006).

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
from .topology import CLOSED, OPEN, child_key, key_depth


@dataclass(frozen=True)
class PomcpConfig:
    horizon: int
    seed: int
    ucb_constant: float = 1.0
    pw_k: float = 100.0
    pw_alpha: float = 1.0
    num_simulations: int = None      # deterministic budget; wall clock if None
    time_budget_ms: float = None
    transition_flips: int = 1        # layers closed per topology transition
    adapt_topology: bool = True

    def __post_init__(self):
        if self.num_simulations is None and self.time_budget_ms is None:
            raise ValueError("either num_simulations or time_budget_ms is required")
        if self.pw_alpha <= 0 or self.pw_alpha > 1 or self.pw_k <= 0:
            raise ValueError("progressive schedule parameters must be positive "
                             "with alpha in (0, 1]")
        if self.transition_flips < 1:
            raise ValueError("transition_flips must be at least 1, got "
                             f"{self.transition_flips}")


@dataclass
class SearchNode:
    visits: int = 0
    action_visits: list = None
    action_values: list = None


@dataclass
class SearchDiagnostics:
    simulations: int = 0
    transitions: list = field(default_factory=list)
    nodes: int = 0                   # nodes created, dropped ones included


@dataclass
class SearchResult:
    action: int
    value: float
    root_values: np.ndarray
    root_visits: np.ndarray
    diagnostics: SearchDiagnostics


class AtPomcp:
    """Topology-based MCTS solver; baseline POMCP is the same search with a
    fully closed topology and adaptation disabled."""

    def __init__(self, model: DiscretePomdp, config: PomcpConfig):
        self.model = model
        self.config = config
        # nodes shallower than this are closed-loop, the others open-loop
        self.closed_depth = 0 if config.adapt_topology else config.horizon
        self.tree = {}
        self.rng = np.random.default_rng(config.seed)
        self.adaptation_index = 1
        # the simulation index past which the next transition is due,
        # pw_k * adaptation_index ** pw_alpha, while an open layer is left
        self.adapt_after = (config.pw_k
                            if self.closed_depth < config.horizon - 1
                            else math.inf)
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
        """Close the next `transition_flips` layers.  A key deeper than the
        first of them took an open step at that layer, so no descent reaches
        it any more; every kept node keeps each action's mean as the weight
        of one visit."""
        first, last = self.closed_depth, self.config.horizon - 1
        self.tree = {key: node for key, node in self.tree.items()
                     if key_depth(key) <= first}
        for node in self.tree.values():
            visits = [min(n, 1) for n in node.action_visits]
            node.action_visits, node.visits = visits, sum(visits)
        self.closed_depth = min(first + self.config.transition_flips, last)
        self.adaptation_index += 1
        self.adapt_after = (self.config.pw_k
                            * self.adaptation_index ** self.config.pw_alpha
                            if self.closed_depth < last else math.inf)
        self.diagnostics.transitions.append(
            (sim_index, self.adaptation_index, self.closed_depth - first))

    def simulate(self, state: int, key: tuple, depth: int) -> float:
        """One simulation from `state` at node `key`: descend by UCB to the
        first new node, roll out from it, then back the return up the path."""
        tree, horizon, path, total = self.tree, self.config.horizon, [], 0.0
        closed_depth = self.closed_depth
        while depth < horizon:
            node = tree.get(key)
            if node is None:
                self._node(key)
                total = self._rollout(state, depth)
                break
            action = self._ucb_action(node)
            state, obs, reward = self._generate(state, action)
            key = child_key(key, action,
                            CLOSED if depth < closed_depth else OPEN, obs)
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
        """The share of the tree's nodes that are open-loop: all of them
        before the first transition, none once only the last layer is open
        (its mode reaches no node)."""
        if not self.tree or self.closed_depth == 0:
            return 1.0
        if self.closed_depth >= self.config.horizon - 1:
            return 0.0
        return (sum(key_depth(key) >= self.closed_depth for key in self.tree)
                / len(self.tree))

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
            if sim_index > self.adapt_after:
                self._adapt(sim_index)
            state = states[bisect_right(root_cdf, self.rng.random())]
            self.simulate(state, (), 0)
        self.diagnostics.simulations = sim_index - 1
        root_node = self._node(())
        root_values = np.array(root_node.action_values)
        root_visits = np.array(root_node.action_visits, dtype=np.int64)
        visited = root_visits > 0
        values = np.where(visited, root_values, -np.inf)
        best = int(np.argmax(values)) if visited.any() else 0
        return SearchResult(best, float(root_values[best]), root_values,
                            root_visits, self.diagnostics)

