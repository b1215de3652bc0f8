import numpy as np
import pytest

from aolpomdp import (ExactBelief, ParticleBelief, SparseConfig,
                      SparsePftEvaluator, Topology, compute_bounds, estimate_lb,
                      estimate_ub, exact_q_star)
from aolpomdp.topology import CLOSED, OPEN
from conftest import make_models


def particles_for(model, n, seed):
    rng = np.random.default_rng(seed)
    return ParticleBelief.from_exact(ExactBelief(model.initial_belief), n, rng)


def test_estimates_are_deterministic():
    model = make_models(61, 1)[0]
    belief = particles_for(model, 20, 0)
    config = SparseConfig(20, 3, model.horizon, seed=7)
    topo = Topology.fully_open()
    for a in range(model.num_actions):
        first = estimate_lb(model, belief, a, topo, config)
        second = estimate_lb(model, belief, a, topo, config)
        assert first == second
        assert estimate_ub(model, belief, a, topo, config) == \
            estimate_ub(model, belief, a, topo, config)


def test_different_seeds_differ():
    model = make_models(61, 1, max_horizon=3)[0]
    if model.horizon == 1:
        model = make_models(67, 1, max_horizon=3)[0]
    belief = particles_for(model, 20, 0)
    topo = Topology.fully_closed()
    a_vals = {estimate_lb(model, belief, 0, topo,
                          SparseConfig(20, 3, max(model.horizon, 2), seed=s))
              for s in range(5)}
    assert len(a_vals) > 1


def test_estimate_concentrates_with_budget():
    model = make_models(71, 1, max_states=3, max_actions=2,
                        max_observations=2, max_horizon=2)[0]
    belief = ExactBelief(model.initial_belief)
    q = exact_q_star(model, belief, 0, 2)
    errors = {}
    for c in (4, 64):
        vals = []
        for seed in range(30):
            rng = np.random.default_rng((seed, c))
            pb = ParticleBelief.from_exact(belief, c, rng)
            config = SparseConfig(c, c, 2, seed=seed)
            vals.append(estimate_lb(model, pb, 0, Topology.fully_closed(),
                                    config))
        errors[c] = float(np.mean(np.abs(np.array(vals) - q)))
    assert errors[64] <= errors[4] + 1e-9


def test_compute_bounds_estimates_a_pair_per_action():
    model = make_models(73, 1)[0]
    belief = particles_for(model, 16, 1)
    config = SparseConfig(16, 2, model.horizon, seed=3)
    pairs = compute_bounds(model, belief, Topology.fully_open(), model.horizon,
                           SparsePftEvaluator(config))
    assert sorted(pairs) == list(range(model.num_actions))
    for pair in pairs.values():
        assert pair.is_estimated
        assert pair.estimation_meta["C"] == config.c


def test_evaluator_caches_untouched_subtrees():
    model = make_models(79, 1, max_actions=3, max_horizon=3)[0]
    belief = particles_for(model, 16, 2)
    horizon = max(model.horizon, 2)
    config = SparseConfig(16, 2, horizon, seed=5)
    evaluator = SparsePftEvaluator(config)
    # open root and open first child, closed elsewhere
    topo = Topology.from_assignment({(): OPEN, (("a", 0),): OPEN},
                                    default_mode=CLOSED)
    before = {a: evaluator.lower(model, belief, a, topo, horizon)
              for a in range(model.num_actions)}
    assert evaluator.cache_misses == model.num_actions
    # flipping a node under action 0 must only invalidate action 0's entry
    flipped = topo.flip_to_closed((("a", 0),), model.num_observations)
    after = {a: evaluator.lower(model, belief, a, flipped, horizon)
             for a in range(model.num_actions)}
    assert evaluator.cache_hits == model.num_actions - 1
    assert evaluator.cache_misses == model.num_actions + 1
    for a in range(1, model.num_actions):
        assert after[a] == before[a]


def test_fo_branch_count_override():
    model = make_models(83, 1, max_horizon=3)[0]
    horizon = max(model.horizon, 2)
    belief = particles_for(model, 16, 3)
    narrow = SparseConfig(16, 4, horizon, seed=9, num_state_branches=1)
    assert narrow.fo_branches == 1
    wide = SparseConfig(16, 4, horizon, seed=9)
    assert wide.fo_branches == 4
    # both produce finite estimates under an open topology
    for config in (narrow, wide):
        value = estimate_ub(model, belief, 0, Topology.fully_open(), config)
        assert np.isfinite(value)
