import math

import numpy as np
import pytest

from aolpomdp import (BoundPair, ExactBelief, ExactEvaluator, Topology,
                      check_separation, exact_q_star, plan_with_guarantees)
from conftest import make_models


def pair(a, lb, ub):
    return BoundPair(lb, ub, a)


def test_single_action_always_separated():
    result = check_separation({0: pair(0, 1.0, 2.0)})
    assert result.separated
    assert result.margin == math.inf


def test_separation_by_margin():
    result = check_separation({0: pair(0, 3.0, 5.0), 1: pair(1, 0.0, 2.5)})
    assert result.separated
    assert result.optimal_action == 0
    assert result.margin == pytest.approx(0.5)


def test_overlap_reported():
    result = check_separation({0: pair(0, 1.0, 5.0), 1: pair(1, 0.0, 2.5)})
    assert not result.separated
    assert result.overlapping_set == frozenset({0, 1})


def test_upper_bound_ties_break_to_lowest_action():
    result = check_separation({0: pair(0, 4.0, 4.0), 1: pair(1, 4.0, 4.0)})
    assert result.separated
    assert result.optimal_action == 0


def test_plan_reaches_separation_and_is_correct():
    evaluator = ExactEvaluator()
    separated = 0
    for model in make_models(51, 15):
        belief = ExactBelief(model.initial_belief)
        result = plan_with_guarantees(model, belief, Topology.fully_open(),
                                      model.horizon, evaluator,
                                      max_refinements=64)
        q = [exact_q_star(model, belief, a, model.horizon)
             for a in range(model.num_actions)]
        if result.guaranteed:
            separated += 1
            assert q[result.action] == pytest.approx(max(q), abs=1e-12)
    assert separated > 0


def test_fully_refined_topology_separates():
    # with enough refinements the loop must terminate separated (bounds
    # collapse onto Q* when everything is closed)
    model = make_models(53, 1, max_states=3, max_actions=2,
                        max_observations=2)[0]
    belief = ExactBelief(model.initial_belief)
    result = plan_with_guarantees(model, belief, Topology.fully_open(),
                                  model.horizon, ExactEvaluator(),
                                  max_refinements=256)
    assert result.guaranteed


def test_bound_trace_export(tiger_like):
    belief = ExactBelief(np.array([0.5, 0.5]))
    result = plan_with_guarantees(tiger_like, belief, Topology.fully_open(), 2,
                                  ExactEvaluator(), max_refinements=8)
    text = result.export_bound_trace()
    lines = text.strip().splitlines()
    assert lines[0] == "iteration,action,lb,ub,topology_id"
    assert len(lines) > 1
