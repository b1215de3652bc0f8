import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aolpomdp import CLOSED, OPEN, DiscretePomdp, ExactBelief, \
    ImpossibleObservationError, Topology, build_tree, exact_bayes_update, \
    exact_q_star, observation_predictive, random_topology, reachable_states, \
    refine_topology
from aolpomdp.bench import random_tiny_model
from aolpomdp.core import MIN_EVIDENCE
from aolpomdp.topology import (TopologyContractError, child_key,
                               enumerate_keys, exact_branches, key_depth)
from conftest import make_models


def test_child_key_adds_an_observation_only_below_closed_nodes():
    # the open-loop child (no label) and every fully observable child (a next
    # state as label) of an open node share one key
    open_child = child_key((), 1, OPEN, None)
    assert open_child == (("a", 1),)
    assert all(child_key((), 1, OPEN, state) == open_child
               for state in range(4))
    closed_child = child_key(open_child, 0, CLOSED, 2)
    assert closed_child == (("a", 1), ("a", 0), ("z", 2))
    assert key_depth(closed_child) == 2


def test_fully_open_and_closed_defaults():
    assert Topology.fully_open().beta((("a", 0),)) == OPEN
    assert Topology.fully_closed().beta(()) == CLOSED


def test_forced_open_prefix():
    topo = Topology(default_mode=CLOSED, forced_open_depth=2)
    assert topo.beta(()) == OPEN
    assert topo.beta((("a", 1),)) == OPEN
    assert topo.beta((("a", 1), ("a", 0))) == CLOSED
    with pytest.raises(TopologyContractError):
        topo.flip_to_closed((("a", 1),), num_observations=2)


def test_flip_to_closed_rekeys_descendants():
    topo = Topology.from_assignment({
        (): OPEN,
        (("a", 0),): OPEN,
        (("a", 0), ("a", 1)): CLOSED,
    }, default_mode=CLOSED)
    flipped = topo.flip_to_closed((("a", 0),), num_observations=2)
    assert flipped.beta((("a", 0),)) == CLOSED
    # the grandchild assignment is duplicated across both observation branches
    for z in range(2):
        assert flipped.beta((("a", 0), ("a", 1), ("z", z))) == CLOSED


def test_all_open_below_tracks_closed_nodes():
    a0, a1 = (("a", 0),), (("a", 1),)
    assert Topology.fully_open().uniform_below(()) == OPEN
    srg = Topology(default_mode=OPEN, forced_open_depth=3)
    assert srg.uniform_below(()) == OPEN and srg.uniform_below(a0 + a1) == OPEN
    assert Topology.fully_closed().uniform_below(a0) != OPEN
    # a closed default closes every node below the forced-open prefix
    assert Topology(default_mode=CLOSED,
                    forced_open_depth=3).uniform_below(a0) != OPEN
    refined = Topology.fully_open().flip_to_closed(a0 + a1, 2)
    assert refined.uniform_below(()) != OPEN
    assert refined.uniform_below(a0) != OPEN
    assert refined.uniform_below(a0 + a1) != OPEN
    assert refined.uniform_below(a1) == OPEN
    assert refined.uniform_below(a0 + a1 + (("z", 1),)) == OPEN
    assert refined.uniform_below(a0 + (("a", 0),)) == OPEN
    # a closed entry inside the forced-open prefix is overridden to open
    forced = Topology.from_assignment({a0: CLOSED}, OPEN, forced_open_depth=2)
    assert forced.uniform_below(()) == OPEN


def test_uniform_below_classifies_closed_and_mixed_subtrees():
    a0, a1, z0 = (("a", 0),), (("a", 1),), (("z", 0),)
    closed = Topology.fully_closed()
    assert closed.uniform_below(()) == CLOSED
    assert closed.uniform_below(a0 + z0 + a1 + z0) == CLOSED
    # a closed node is mixed below an open one, and the reverse
    refined = Topology.fully_open().flip_to_closed(a0, 2)
    assert refined.uniform_below(()) is None
    assert refined.uniform_below(a0) is None
    assert refined.uniform_below(a0 + a1 + z0) == OPEN
    # under a closed default the forced-open prefix is open and what lies
    # below it closed
    prefix = Topology(default_mode=CLOSED, forced_open_depth=2)
    assert prefix.uniform_below(()) is None
    assert prefix.uniform_below(a0) is None
    assert prefix.uniform_below(a0 + a1) == CLOSED
    # an open entry anywhere below a key mixes a closed default
    opened = Topology.from_assignment({a0 + z0: OPEN}, CLOSED)
    assert opened.uniform_below(()) is None
    assert opened.uniform_below(a0 + z0) is None
    assert opened.uniform_below(a0 + (("z", 1),)) == CLOSED
    assert opened.uniform_below(a1 + z0) == CLOSED


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_uniform_below_matches_the_modes_of_the_subtree(seed):
    """On random and refined topologies, every reachable key at or below a
    key that `uniform_below` classifies, up to the horizon, has that mode."""
    gen = np.random.default_rng(seed)
    num_a, num_z = int(gen.integers(1, 3)), int(gen.integers(1, 3))
    horizon = 3
    topology = random_topology(num_a, num_z, horizon, gen)
    opened = Topology.fully_open()
    candidates = [topology, opened, Topology.fully_closed()]
    for base in (topology, opened):
        keys = enumerate_keys(base, num_a, num_z, horizon - 1)
        candidates.append(refine_topology(
            base, [keys[int(gen.integers(len(keys)))]], num_z))
    for candidate in candidates:
        keys = enumerate_keys(candidate, num_a, num_z, horizon)
        for key in keys:
            uniform = candidate.uniform_below(key)
            if uniform is not None:
                assert {candidate.beta(k) for k in keys
                        if k[:len(key)] == key} == {uniform}


def _scanned_uniform_below(topology, key):
    """`Topology.uniform_below` as a scan of the whole assignment."""
    default, forced = topology.default_mode, topology.forced_open_depth
    if default == CLOSED and forced and key_depth(key) < forced:
        return None
    for assigned, beta in topology.assignment:
        if (beta != default and assigned[:len(key)] == key
                and (beta == OPEN or key_depth(assigned) >= forced)):
            return None
    return default


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_uniform_below_matches_a_scan_of_the_assignment(seed):
    """On random topologies, with and without a forced-open prefix, and on
    topologies refined from the fully open, fully closed and SRG forms, the
    prefix-set lookup answers what a scan of the assignment answers, for
    every reachable key."""
    gen = np.random.default_rng(seed)
    num_a, num_z, horizon = int(gen.integers(1, 4)), int(gen.integers(1, 3)), 3
    depth = int(gen.integers(1, horizon))
    mixed = random_topology(num_a, num_z, horizon, gen)
    candidates = [mixed, Topology(mixed.assignment, OPEN, depth),
                  Topology(mixed.assignment, CLOSED, depth)]
    for topology in (Topology.fully_open(), Topology.fully_closed(),
                     Topology(default_mode=OPEN, forced_open_depth=depth)):
        for _ in range(3):
            keys = [key for key in enumerate_keys(topology, num_a, num_z,
                                                  horizon - 1)
                    if key_depth(key) >= topology.forced_open_depth]
            topology = refine_topology(
                topology, [keys[int(gen.integers(len(keys)))]], num_z)
            candidates.append(topology)
    for topology in candidates:
        for key in enumerate_keys(topology, num_a, num_z, horizon):
            assert (topology.uniform_below(key)
                    == _scanned_uniform_below(topology, key))


def test_enumerate_keys_counts():
    open_keys = enumerate_keys(Topology.fully_open(), 3, 2, 2)
    # 1 root + 3 depth-1 + 9 depth-2 nodes
    assert len(open_keys) == 13
    closed_keys = enumerate_keys(Topology.fully_closed(), 3, 2, 2)
    assert len(closed_keys) == 1 + 6 + 36


def test_open_tree_width_independent_of_observations():
    for nz in (2, 8):
        model = make_models(5, 1, max_observations=2)[0]
        tree = build_tree(model, ExactBelief(model.initial_belief),
                          Topology.fully_open(), 3, kind="aol")
        counts = tree.depth_counts()
        for d in range(1, 4):
            assert counts[d] == model.num_actions ** d


def test_closed_tree_branches_on_observations():
    model = make_models(5, 1)[0]
    tree = build_tree(model, ExactBelief(model.initial_belief),
                      Topology.fully_closed(), 2, kind="aol")
    counts = tree.depth_counts()
    assert counts[1] <= model.num_actions * model.num_observations
    assert counts[1] > model.num_actions


def test_fully_observable_tree_keeps_one_child_per_next_state():
    model = random_tiny_model(np.random.default_rng(5))
    root = ExactBelief(model.initial_belief)
    tree = build_tree(model, root, Topology.fully_open(), 2, kind="afo")
    counts = tree.depth_counts()
    assert counts[1] == sum(len(reachable_states(model, root, [a]))
                            for a in range(model.num_actions))
    assert counts[2] == sum(len(reachable_states(model, node.belief, [a]))
                            for node in tree.nodes.values() if node.depth == 1
                            for a in range(model.num_actions))
    # the next states of one action are separate nodes under one topology key
    assert {node.key for node in tree.nodes.values() if node.depth == 1} \
        == {(("a", a),) for a in range(model.num_actions)}


def test_refine_noop_on_closed_node():
    topo = Topology.fully_closed()
    assert refine_topology(topo, [()], 2) == topo
    refined = refine_topology(Topology.fully_open(), [(("a", 0),)], 2)
    assert refined.beta((("a", 0),)) == CLOSED
    assert refined.beta(()) == OPEN
    assert refine_topology(refined, [(("a", 0),)], 2) == refined


def test_key_depth():
    assert key_depth(()) == 0
    assert key_depth((("a", 0), ("z", 1), ("a", 2))) == 2


def test_every_observation_the_tracker_follows_is_a_branch():
    """An observation of predictive probability 5e-13 is accepted by the Bayes
    update, so the exact expansion keeps it as a branch."""
    likelihoods = np.array([[1.0 - 1e-12, 1e-12], [1.0, 0.0]])
    eye = np.eye(2)
    model = DiscretePomdp(np.array([eye, eye]), likelihoods,
                          np.array([[1.0, -1.0], [-1.0, 1.0]]),
                          np.array([0.5, 0.5]), horizon=2, r_max=1.0)
    belief = ExactBelief(model.initial_belief)
    posterior, evidence = exact_bayes_update(model, belief, 0, 1)
    probabilities, labels, beliefs = exact_branches(model, belief, 0, CLOSED,
                                                    "aol")
    assert labels == [0, 1]
    assert probabilities[1] == evidence
    assert np.array_equal(beliefs[1], posterior.probabilities)


def test_observation_at_the_threshold_follows_the_bayes_update():
    """Observation 1 has evidence within rounding of `MIN_EVIDENCE`: a
    matrix product puts it above, while the Bayes update's row sum lands on
    it and rejects it.  The exact expansion keeps exactly the observations
    the Bayes update accepts, so the oracle does not raise."""
    p = np.array([0.5819159202480427, 0.4180840797519573])
    tiny = np.array([1.0946899692737675e-18, 8.682044993416298e-19])
    eye = np.eye(2)
    model = DiscretePomdp(np.array([eye, eye]), np.stack([1.0 - tiny, tiny], 1),
                          np.array([[1.0, -1.0], [-1.0, 1.0]]), p, horizon=2,
                          r_max=1.0)
    belief = ExactBelief(model.initial_belief)
    probabilities, labels, beliefs = exact_branches(model, belief, 0, CLOSED,
                                                    "aol")
    accepted = []
    for z in range(model.num_observations):
        try:
            posterior, evidence = exact_bayes_update(model, belief, 0, z)
        except ImpossibleObservationError:
            continue
        accepted.append(z)
        i = labels.index(z)
        assert probabilities[i] == evidence
        assert np.array_equal(beliefs[i], posterior.probabilities)
    assert labels == accepted
    assert np.isfinite(exact_q_star(model, belief, 0, 2))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_closed_children_are_bayes_updates(seed):
    """Every closed branch carries exactly what `exact_bayes_update` returns
    for its observation, and the kept observations are those of
    predictive probability above the tolerance.  Up to 12 states, so that
    sums also take numpy's pairwise path (8 or more terms)."""
    gen = np.random.default_rng(seed)
    model = random_tiny_model(gen, max_states=12, max_observations=4)
    belief = ExactBelief(gen.dirichlet(np.ones(model.num_states)))
    action = int(gen.integers(model.num_actions))
    probabilities, labels, beliefs = exact_branches(model, belief, action,
                                                    CLOSED, "aol")
    predictive = observation_predictive(model, belief, action)
    assert labels == np.flatnonzero(predictive > MIN_EVIDENCE).tolist()
    assert len(probabilities) == len(beliefs) == len(labels)
    for evidence, z, row in zip(probabilities, labels, beliefs):
        posterior, expected = exact_bayes_update(model, belief, action, z)
        assert evidence == expected
        assert np.array_equal(row, posterior.probabilities)
