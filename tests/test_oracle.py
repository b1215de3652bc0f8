import numpy as np
import pytest

from aolpomdp import (ExactBelief, Topology, exact_afo_value, exact_aol_value,
                      exact_q_star)
from aolpomdp.oracle import exact_continuation_value
from aolpomdp.topology import AugmentedHistory, NodeBudgetError
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
    cont = exact_continuation_value(tiger_like, belief, 0, AugmentedHistory(),
                                    0, 2, Topology.fully_closed(), "aol")
    assert cont == pytest.approx(full)
