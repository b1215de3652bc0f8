"""Node keys, belief-tree topologies, topology refinement, and the exact
child expansion of a belief-tree node.

A topology assigns each tree node a binary mode: 1 means the node's children
are generated by the simplified updater (open-loop for lower bounds, fully
observable for upper bounds), 0 means the standard closed-loop updater.  It
is an assignment of modes to node keys over a default mode, which every
unassigned node takes.  The lower and upper assignments are carried as one
shared structure, keyed by a node's tuple of ('a', i) and ('z', j) entries
(`child_key`): a state never enters a key, so a node of the fully-observable
tree has the same key as its open-loop twin.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import DiscretePomdp, ExactBelief, MIN_EVIDENCE

OPEN = 1
CLOSED = 0


class NodeBudgetError(RuntimeError):
    """Tree enumeration exceeded the declared node budget."""


class TopologyContractError(ValueError):
    """A topology violates a structural precondition (e.g. not open-prefix)."""


def key_depth(key: tuple) -> int:
    return sum(1 for tag, _ in key if tag == "a")


def child_key(key: tuple, action: int, beta: int, observation: int) -> tuple:
    """Key of the child reached by `action` and `observation` from the node
    keyed `key` of mode `beta`.  An open node's children, open-loop or fully
    observable, share one key: a state never enters a key."""
    if beta == OPEN:
        return key + (("a", action),)
    return key + (("a", action), ("z", observation))


@dataclass(frozen=True)
class Topology:
    """Paired mode assignment (shared by the lower and upper bound trees)."""

    assignment: tuple = ()          # sorted ((key, beta), ...) pairs
    default_mode: int = OPEN

    def __post_init__(self):
        object.__setattr__(self, "_map", dict(self.assignment))

    def beta(self, key: tuple) -> int:
        return self._map.get(key, self.default_mode)

    @classmethod
    def fully_open(cls) -> "Topology":
        return cls(default_mode=OPEN)

    @classmethod
    def fully_closed(cls) -> "Topology":
        return cls(default_mode=CLOSED)

    @classmethod
    def from_assignment(cls, mapping: dict,
                        default_mode: int = OPEN) -> "Topology":
        return cls(tuple(sorted(mapping.items())), default_mode)

    def flip_to_closed(self, key: tuple, num_observations: int) -> "Topology":
        """Switch `key` to closed-loop, re-keying its descendants.

        Closing a node inserts an observation entry right after each of its
        action children, so every assignment entry below the node is expanded
        into one copy per observation (mode inheritance for the new children).
        """
        mapping = {}
        for old_key, beta in self.assignment:
            if (len(old_key) > len(key) and old_key[:len(key)] == key
                    and old_key[len(key)][0] == "a"):
                head = old_key[:len(key) + 1]
                tail = old_key[len(key) + 1:]
                for z in range(num_observations):
                    mapping[head + (("z", z),) + tail] = beta
            else:
                mapping[old_key] = beta
        mapping[key] = CLOSED
        return Topology.from_assignment(mapping, self.default_mode)

    def is_open_prefix(self, depth: int, action_chain) -> bool:
        """True if every node along the given action chain up to `depth` is open."""
        key = ()
        for i in range(depth):
            if self.beta(key) != OPEN:
                return False
            key = child_key(key, action_chain[i], OPEN, None)
        return True

    def uniform_below(self, key: tuple):
        """The mode of every node at or below `key` (OPEN or CLOSED), or None
        if the subtree holds nodes of both modes.

        The subtree has the default mode unless an entry at or below `key`
        assigns the other one.
        """
        if not self.assignment:     # skips building the prefix set
            return self.default_mode
        return None if key in self._mixed_prefixes else self.default_mode

    @cached_property
    def _mixed_prefixes(self) -> frozenset:
        """Every prefix (itself included) of the keys whose mode differs from
        the default: the keys whose subtree is mixed."""
        return frozenset(
            assigned[:end] for assigned, beta in self.assignment
            if beta != self.default_mode
            for end in range(len(assigned) + 1))

    @cached_property
    def topology_id(self) -> str:
        payload = repr((self.assignment, self.default_mode))
        return hashlib.sha1(payload.encode()).hexdigest()[:12]


def _child_keys(key: tuple, beta: int, num_actions: int,
                num_observations: int) -> list:
    """Keys of the children of the node keyed `key` of mode `beta`, by action
    and, below a closed node, by observation."""
    labels = [None] if beta == OPEN else range(num_observations)
    return [child_key(key, a, beta, z)
            for a in range(num_actions) for z in labels]


def enumerate_keys(topology: Topology, num_actions: int, num_observations: int,
                   horizon: int):
    """All node keys reachable under a topology, over the full observation space."""
    keys = [()]
    frontier = [()]
    for _ in range(horizon):
        frontier = [child for key in frontier
                    for child in _child_keys(key, topology.beta(key),
                                             num_actions, num_observations)]
        keys.extend(frontier)
    return keys


def random_topology(num_actions: int, num_observations: int, horizon: int,
                    rng: np.random.Generator, p_open: float = 0.5) -> Topology:
    """Random mixed topology over the reachable key space."""
    mapping = {}
    frontier = [()]
    for _ in range(horizon):
        nxt = []
        for key in frontier:
            beta = mapping[key] = OPEN if rng.random() < p_open else CLOSED
            nxt.extend(_child_keys(key, beta, num_actions, num_observations))
        frontier = nxt
    return Topology.from_assignment(mapping, default_mode=CLOSED)


def refine_topology(topology: Topology, selection,
                    num_observations: int) -> Topology:
    """Close the selected nodes that are still open, shallowest first."""
    for key in sorted(set(selection), key=lambda k: (key_depth(k), k)):
        if topology.beta(key) == OPEN:
            topology = topology.flip_to_closed(key, num_observations)
    return topology


def exact_branches(model: DiscretePomdp, belief: ExactBelief, action: int,
                   beta: int, kind: str):
    """Every branch of taking `action` at a node of mode `beta`, as arrays.

    Returns (probabilities, labels, beliefs): the branch probabilities and
    labels as lists and the child beliefs as the rows of one read-only,
    C-contiguous (K, S) array.  Open nodes of the lower-bound tree (`kind`
    "aol") have one branch, the open-loop propagated belief, labelled None;
    open nodes of the upper-bound tree ("afo") branch on each reachable next
    state (the label) with a point-mass belief; closed nodes branch on each
    observation (the label) of predictive probability above `MIN_EVIDENCE`
    with its Bayes posterior.  The evidence is summed as `core.condition`
    sums it, so the branches are exactly the observations that the Bayes
    update accepts, with its numbers.
    """
    propagated = model.transition[action].T @ belief.probabilities
    if beta == OPEN and kind == "aol":
        beliefs = propagated[None, :]
        beliefs.setflags(write=False)
        return [1.0], [None], beliefs
    if beta == OPEN:
        states = (propagated > 0.0).nonzero()[0]
        beliefs = np.zeros((states.size, model.num_states))
        beliefs[np.arange(states.size), states] = 1.0
        beliefs.setflags(write=False)
        return propagated[states].tolist(), states.tolist(), beliefs
    # a sum of non-negative terms is at least its largest term, so the
    # matrix product is positive wherever the row sum passes the threshold
    kept = (propagated @ model.observation > 0.0).nonzero()[0]
    joint = model.likelihoods[kept] * propagated
    evidence = joint.sum(axis=1)
    if evidence.min() <= MIN_EVIDENCE:
        possible = evidence > MIN_EVIDENCE
        kept, joint = kept[possible], joint[possible]
        evidence = evidence[possible]
    posteriors = joint / evidence[:, None]
    posteriors.setflags(write=False)
    return evidence.tolist(), kept.tolist(), posteriors


@dataclass
class BeliefTreeNode:
    key: tuple
    belief: ExactBelief
    depth: int


@dataclass
class BeliefTree:
    nodes: dict = field(default_factory=dict)

    def depth_counts(self) -> dict:
        counts = {}
        for node in self.nodes.values():
            counts[node.depth] = counts.get(node.depth, 0) + 1
        return counts


def build_tree(model: DiscretePomdp, root_belief: ExactBelief, topology: Topology,
               horizon: int, branch_budget: int = 10 ** 6,
               kind: str = "aol") -> BeliefTree:
    """Enumerate the belief tree that the oracle evaluates for a topology.

    Nodes are keyed by their path of (action, branch label) pairs, so the
    single open-loop child of an action is one node, while the fully
    observable children of an open node keep one node per next state; each
    node carries its topology key.
    """
    tree = BeliefTree()
    tree.nodes[()] = BeliefTreeNode((), root_belief, 0)
    frontier = [((), tree.nodes[()])]
    count = 1
    for depth in range(horizon):
        nxt = []
        for path, node in frontier:
            beta = topology.beta(node.key)
            for a in range(model.num_actions):
                _, labels, beliefs = exact_branches(model, node.belief, a,
                                                    beta, kind)
                for label, row in zip(labels, beliefs):
                    count += 1
                    if count > branch_budget:
                        raise NodeBudgetError(
                            f"tree exceeds branch budget {branch_budget}")
                    child_path = path + ((a, label),)
                    child = BeliefTreeNode(child_key(node.key, a, beta, label),
                                           ExactBelief._derived(row),
                                           depth + 1)
                    tree.nodes[child_path] = child
                    nxt.append((child_path, child))
        frontier = nxt
    return tree
