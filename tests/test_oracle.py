import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aolpomdp import (DiscretePomdp, ExactBelief, ExactEvaluator, Topology,
                      exact_afo_value, exact_aol_value, exact_q_star,
                      random_topology)
from aolpomdp.bench import random_tiny_model
from aolpomdp.envs import build_tunnel_pomdp, tunnel_spec
from aolpomdp.oracle import (best_immediate_rewards, exact_bounds,
                             exact_continuation_value)
from aolpomdp.topology import (CLOSED, OPEN, NodeBudgetError, enumerate_keys,
                               exact_branches)
from conftest import make_models


def test_horizon_one_is_immediate_reward(tiger_like):
    belief = ExactBelief(np.array([0.5, 0.5]))
    for a in range(2):
        expected = float(belief.probabilities @ tiger_like.reward[:, a])
        assert exact_q_star(tiger_like, belief, a, 1) == pytest.approx(expected)
        assert exact_aol_value(tiger_like, belief, a, Topology.fully_open(),
                               1) == pytest.approx(expected)


def test_tiger_like_two_step_value(tiger_like):
    # Listen then commit: hand-computed backup over both observations.
    belief = ExactBelief(np.array([0.5, 0.5]))
    q_listen = exact_q_star(tiger_like, belief, 0, 2)
    # z=0 branch: posterior (0.85, 0.15), commit worth 5.5 beats listening (-1);
    # z=1 branch: commit worth -15.5, listening (-1) wins.
    # Q = -1 + 0.5 * 5.5 + 0.5 * (-1) = 1.25.
    assert q_listen == pytest.approx(1.25)


def test_closed_topology_equals_q_star():
    for model in make_models(31, 8):
        belief = ExactBelief(model.initial_belief)
        for a in range(model.num_actions):
            q = exact_q_star(model, belief, a, model.horizon)
            lb = exact_aol_value(model, belief, a, Topology.fully_closed(),
                                 model.horizon)
            ub = exact_afo_value(model, belief, a, Topology.fully_closed(),
                                 model.horizon)
            assert lb == pytest.approx(q, abs=1e-12)
            assert ub == pytest.approx(q, abs=1e-12)


def test_open_loop_below_fully_observable():
    for model in make_models(37, 8):
        belief = ExactBelief(model.initial_belief)
        for a in range(model.num_actions):
            lb = exact_aol_value(model, belief, a, Topology.fully_open(),
                                 model.horizon)
            ub = exact_afo_value(model, belief, a, Topology.fully_open(),
                                 model.horizon)
            assert lb <= ub + 1e-9


def test_node_budget_enforced():
    model = make_models(41, 1, max_states=4, max_actions=3,
                        max_observations=3)[0]
    belief = ExactBelief(model.initial_belief)
    with pytest.raises(NodeBudgetError):
        exact_q_star(model, belief, 0, 6, node_budget=10)


def test_continuation_matches_full_value(tiger_like):
    belief = ExactBelief(np.array([0.5, 0.5]))
    full = exact_q_star(tiger_like, belief, 0, 2)
    cont = exact_continuation_value(tiger_like, belief, 0, (), 2,
                                    Topology.fully_closed(), "aol")
    assert cont == pytest.approx(full)


# Exact values asserted with ==, so any change to the float arithmetic of the
# recursion shows.  One row per action: Q*, then (aol, afo) under each
# topology in turn.
GOLDEN_RANDOM_MODELS = [
    [
        (-0.18631549311468087, -0.18631549311468093, 0.04340813803047561,
         -0.18631549311468087, -0.18631549311468087, -0.18631549311468087,
         -0.15742707268174988),
        (0.025013878736052597, 0.02501387873605257, 0.30644007030044806,
         0.025013878736052597, 0.025013878736052597, 0.025013878736052597,
         0.0504553236734952),
        (0.1995698636026827, 0.1995698636026828, 0.32577971370975567,
         0.1995698636026827, 0.1995698636026827, 0.1995698636026827,
         0.22036489057948028),
    ],
    [
        (1.3992057151663593, 1.3992057151663593, 1.3992057151663593,
         1.3992057151663593, 1.3992057151663593, 1.3992057151663593,
         1.3992057151663593),
        (0.44743256594764047, 0.4474325659476407, 0.4474325659476407,
         0.44743256594764047, 0.44743256594764047, 0.4474325659476407,
         0.4474325659476407),
    ],
    [
        (0.43887430008994754, 0.4016362002642903, 0.6241071368379011,
         0.43887430008994754, 0.43887430008994754, 0.40163620026429026,
         0.5028960210167766),
        (-0.3434524525483422, -0.45730294469391664, -0.1792740321991933,
         -0.3434524525483422, -0.3434524525483422, -0.4357731619848432,
         -0.2748978784138074),
    ],
]
# random_tiny_model(default_rng(4), max_states=12, max_observations=4): nine
# states, so evidence sums take numpy's pairwise summation path
GOLDEN_WIDE_MODEL = [
    (-0.04217676765656736, -0.05685969887855605, 1.034975139285117,
     -0.04217676765656736, -0.04217676765656736, -0.04282610024692557,
     0.20543917738389367),
    (0.5156630851687312, 0.46256061816355576, 1.598791188690372,
     0.5156630851687312, 0.5156630851687312, 0.5118114688435553,
     0.6792986133636236),
    (0.22486432986792446, 0.19112060452746682, 1.2714986859822537,
     0.22486432986792446, 0.22486432986792446, 0.22088207904914073,
     0.5359795035816862),
]
GOLDEN_TUNNEL = [
    (103.8125, 103.8125, 103.8125, 103.8125, 103.8125),
    (103.8125, 103.8125, 103.8125, 103.8125, 103.8125),
    (102.17624999999998, 102.17625, 102.17625, 102.17624999999998,
     102.17624999999998),
    (106.84062499999999, 106.84062499999999, 106.840625, 106.84062499999999,
     106.84062499999999),
]


def _value_rows(model, belief, topologies, horizon):
    rows = []
    for a in range(model.num_actions):
        row = [exact_q_star(model, belief, a, horizon)]
        for topo in topologies:
            row += [exact_aol_value(model, belief, a, topo, horizon),
                    exact_afo_value(model, belief, a, topo, horizon)]
        rows.append(tuple(row))
    return rows


def test_exact_values_match_golden_literals():
    for i, model in enumerate(make_models(15, 3)):
        topologies = [Topology.fully_open(), Topology.fully_closed(),
                      random_topology(model.num_actions,
                                      model.num_observations, 3,
                                      np.random.default_rng(31 + i))]
        assert _value_rows(model, ExactBelief(model.initial_belief),
                           topologies, 3) == GOLDEN_RANDOM_MODELS[i]
    gen = np.random.default_rng(4)
    wide = random_tiny_model(gen, max_states=12, max_observations=4)
    topologies = [Topology.fully_open(), Topology.fully_closed(),
                  random_topology(wide.num_actions, wide.num_observations, 3,
                                  gen)]
    assert _value_rows(wide, ExactBelief(wide.initial_belief), topologies,
                       3) == GOLDEN_WIDE_MODEL
    # sparse rows and point-mass children, which full-support models lack
    tunnel = build_tunnel_pomdp(tunnel_spec(length=12))
    assert _value_rows(tunnel, ExactBelief(tunnel.initial_belief),
                       [Topology.fully_open(), Topology.fully_closed()],
                       3) == GOLDEN_TUNNEL


def test_node_budget_is_pinned():
    """The budget counts one unit per (belief, action) node of the recursion,
    leaves included: 820 nodes at horizon 4 for this model."""
    model = make_models(41, 1, max_states=4, max_actions=3,
                        max_observations=3)[0]
    belief = ExactBelief(model.initial_belief)
    exact_q_star(model, belief, 0, 4, node_budget=820)
    with pytest.raises(NodeBudgetError):
        exact_q_star(model, belief, 0, 4, node_budget=819)


_PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


def _tiny_instance(seed):
    gen = np.random.default_rng(seed)
    model = random_tiny_model(gen)
    topology = random_topology(model.num_actions, model.num_observations,
                               model.horizon, gen)
    return model, ExactBelief(model.initial_belief), topology


@_PROPERTY
@given(st.integers(0, 2 ** 32 - 1))
def test_value_sandwich_property(seed):
    model, belief, topology = _tiny_instance(seed)
    for a in range(model.num_actions):
        q = exact_q_star(model, belief, a, model.horizon)
        for topo in (topology, Topology.fully_open()):
            assert exact_aol_value(model, belief, a, topo,
                                   model.horizon) <= q + 1e-9
            assert q <= exact_afo_value(model, belief, a, topo,
                                        model.horizon) + 1e-9


def _cold(model):
    """A copy of `model` whose value table is empty."""
    return dataclasses.replace(model)


@_PROPERTY
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 10 ** 6))
def test_bound_pair_equals_single_values_on_a_cold_table(seed, pick):
    """The evaluator's one-recursion pair `==` the two single-kind values
    computed on a fresh copy of the model, under fully open, fully closed,
    random and once-refined topologies.  The pair's table is shared across
    the topologies, so later ones read it warm."""
    model, belief, topology = _tiny_instance(seed)
    opened = Topology.fully_open()
    keys = enumerate_keys(opened, model.num_actions, model.num_observations,
                          model.horizon - 1)
    refined = opened.flip_to_closed(keys[pick % len(keys)],
                                    model.num_observations)
    evaluator = ExactEvaluator()
    for topo in (opened, Topology.fully_closed(), topology, refined):
        for a in range(model.num_actions):
            assert evaluator.bounds(model, belief, a, topo, model.horizon) \
                == (exact_aol_value(_cold(model), belief, a, topo,
                                    model.horizon),
                    exact_afo_value(_cold(model), belief, a, topo,
                                    model.horizon))


def test_afo_table_hits_spend_the_units_of_the_subtree():
    """Under a fully open topology at horizon 4 every depth-1 node looks up
    the same depth-2 point-mass entries, so the table hits; the afo value
    still costs the 820 units of full enumeration, on a cold and on a warm
    table."""
    model = make_models(41, 1, max_states=4, max_actions=3,
                        max_observations=3)[0]
    belief = ExactBelief(model.initial_belief)
    opened = Topology.fully_open()
    with pytest.raises(NodeBudgetError):
        exact_afo_value(_cold(model), belief, 0, opened, 4, node_budget=819)
    exact_afo_value(_cold(model), belief, 0, opened, 4, node_budget=820)
    exact_afo_value(model, belief, 0, opened, 4)
    assert model.value_table
    with pytest.raises(NodeBudgetError):
        exact_afo_value(model, belief, 0, opened, 4, node_budget=819)
    exact_afo_value(model, belief, 0, opened, 4, node_budget=820)


def test_q_star_table_hits_spend_the_units_of_the_subtree():
    """Q* at horizon 4 fills closed-mode entries on a cold table and reads
    them on a warm one, and costs the 820 units of full enumeration on
    both."""
    model = make_models(41, 1, max_states=4, max_actions=3,
                        max_observations=3)[0]
    belief = ExactBelief(model.initial_belief)
    with pytest.raises(NodeBudgetError):
        exact_q_star(_cold(model), belief, 0, 4, node_budget=819)
    exact_q_star(_cold(model), belief, 0, 4, node_budget=820)
    exact_q_star(model, belief, 0, 4)
    assert model.value_table
    with pytest.raises(NodeBudgetError):
        exact_q_star(model, belief, 0, 4, node_budget=819)
    exact_q_star(model, belief, 0, 4, node_budget=820)


def _point_mass_instance(seed):
    """A tiny horizon-4 model, half of whose transition and observation rows
    are one-hot, from a point-mass start, with a random topology: the same
    point mass recurs as a closed posterior, an open-loop belief and a fully
    observable branch."""
    gen = np.random.default_rng(seed)
    base = random_tiny_model(gen)

    def one_hot_rows(rows):
        rows = rows.copy()
        for index in np.ndindex(rows.shape[:-1]):
            if gen.random() < 0.5:
                rows[index] = np.eye(rows.shape[-1])[gen.integers(
                    rows.shape[-1])]
        return rows

    horizon = 4
    model = DiscretePomdp(one_hot_rows(base.transition),
                          one_hot_rows(base.observation), base.reward,
                          np.eye(base.num_states)[0], horizon, base.r_max)
    topology = random_topology(model.num_actions, model.num_observations,
                               horizon, gen)
    return model, ExactBelief(model.initial_belief), topology


@_PROPERTY
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 10 ** 6))
def test_uniform_entries_never_alias_across_modes(seed, pick):
    """Values under random and once-refined topologies, read from a table
    that fully closed and fully open topologies filled, `==` those computed
    on a fresh copy of the model."""
    model, belief, topology = _point_mass_instance(seed)
    opened = Topology.fully_open()
    keys = enumerate_keys(opened, model.num_actions, model.num_observations,
                          model.horizon - 1)
    refined = opened.flip_to_closed(keys[pick % len(keys)],
                                    model.num_observations)
    for warm in (Topology.fully_closed(), opened):
        for a in range(model.num_actions):
            exact_bounds(model, belief, a, warm, model.horizon)
    for topo in (topology, refined):
        for a in range(model.num_actions):
            for value in (exact_aol_value, exact_afo_value):
                assert value(model, belief, a, topo, model.horizon) \
                    == value(_cold(model), belief, a, topo, model.horizon)


def test_warm_table_leaves_closed_subtrees_exact():
    """A closed node below an open root is enumerated, not read from the
    table that a fully open topology filled."""
    model = make_models(43, 1, max_states=5, max_horizon=4)[0]
    belief = ExactBelief(model.initial_belief)
    horizon = 4
    refined = Topology.fully_open().flip_to_closed((("a", 0),),
                                                   model.num_observations)
    for a in range(model.num_actions):
        exact_afo_value(model, belief, a, Topology.fully_open(), horizon)
    for a in range(model.num_actions):
        assert exact_afo_value(model, belief, a, refined, horizon) \
            == exact_afo_value(_cold(model), belief, a, refined, horizon)


@_PROPERTY
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 10 ** 6))
def test_closing_a_node_never_loosens_a_bound(seed, pick):
    model, belief, topology = _tiny_instance(seed)
    open_keys = [key for key in enumerate_keys(
        topology, model.num_actions, model.num_observations,
        model.horizon - 1) if topology.beta(key) == OPEN]
    if not open_keys:
        return
    refined = topology.flip_to_closed(open_keys[pick % len(open_keys)],
                                      model.num_observations)
    for a in range(model.num_actions):
        assert (exact_aol_value(model, belief, a, refined, model.horizon)
                >= exact_aol_value(model, belief, a, topology,
                                   model.horizon) - 1e-9)
        assert (exact_afo_value(model, belief, a, refined, model.horizon)
                <= exact_afo_value(model, belief, a, topology,
                                   model.horizon) + 1e-9)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_batched_leaf_scores_match_per_child_dots(seed):
    """For every branch kind: the batched last-layer score of each branch
    `==` its best per-action dot `row @ reward[:, a]`, and a horizon-2 value
    sums probability times score in branch order.  Up to 12 states."""
    gen = np.random.default_rng(seed)
    model = random_tiny_model(gen, max_states=12, max_observations=4)
    belief = ExactBelief(gen.dirichlet(np.ones(model.num_states)))
    action = int(gen.integers(model.num_actions))
    columns = [model.reward[:, a] for a in range(model.num_actions)]
    for beta, kind, value in ((OPEN, "aol", exact_aol_value),
                              (OPEN, "afo", exact_afo_value),
                              (CLOSED, "aol", exact_aol_value)):
        probabilities, _, beliefs = exact_branches(model, belief, action,
                                                   beta, kind)
        assert beliefs.flags.c_contiguous and not beliefs.flags.writeable
        per_child = [max(float(row @ column) for column in columns)
                     for row in beliefs]
        assert best_immediate_rewards(model, beliefs).tolist() == per_child
        future = 0.0
        for p, score in zip(probabilities, per_child):
            future += p * score
        topology = Topology(default_mode=beta)
        assert value(model, belief, action, topology, 2) \
            == float(belief.probabilities @ columns[action]) + future
