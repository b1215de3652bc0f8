import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aolpomdp import (ExactBelief, ParticleBelief, ParticleDepletionError,
                      SparseConfig, SparsePftEvaluator, Topology, compute_bounds,
                      estimate_lb, estimate_ub, exact_q_star, random_topology)
from aolpomdp.sparse import _MODE_TAG, _rng, _stream_head
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
    # one cache entry per (side, action)
    before = {a: evaluator.bounds(model, belief, a, topo, horizon)
              for a in range(model.num_actions)}
    assert evaluator.cache_misses == 2 * model.num_actions
    # flipping a node under action 0 must only invalidate action 0's entries
    flipped = topo.flip_to_closed((("a", 0),), model.num_observations)
    after = {a: evaluator.bounds(model, belief, a, flipped, horizon)
             for a in range(model.num_actions)}
    assert evaluator.cache_hits == 2 * (model.num_actions - 1)
    assert evaluator.cache_misses == 2 * model.num_actions + 2
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


def test_config_rejects_negative_seed_and_zero_state_branches():
    for seed in (-1, 1.5):
        with pytest.raises(ValueError, match="seed"):
            SparseConfig(8, 3, 3, seed=seed)
    with pytest.raises(ValueError, match="num_state_branches"):
        SparseConfig(8, 3, 3, seed=0, num_state_branches=0)
    assert SparseConfig(8, 3, 3, seed=2 ** 64 - 1).fo_branches == 3


# (model, topology, seed) -> (estimate_lb, estimate_ub, estimate_ub with one
# state branch), all for action 0 with N=8, NO=3, horizon 3.
GOLDEN = {
    (0, 'open', 3): (1.4882501584795418, 1.7985758140918375, 1.9700628215985607),
    (0, 'open', 2 ** 40 + 3): (1.6395342214276147, 1.218590807435056, 2.1413111614774674),
    (0, 'closed', 3): (1.4667790926515303, 1.422503077415072, 1.422503077415072),
    (0, 'closed', 2 ** 40 + 3): (1.8458732800444722, 1.6198259237333827, 1.6198259237333827),
    (0, 'random', 3): (1.436372832806263, 1.7305001320189253, 1.7579053739463193),
    (0, 'random', 2 ** 40 + 3): (1.840137392984884, 1.695330315205819, 1.9336785188715346),
    (1, 'open', 3): (0.7732858106898652, 0.8039522598200823, 0.879438903832924),
    (1, 'open', 2 ** 40 + 3): (0.70959395480403, 0.6341073107911882, 0.70959395480403),
    (1, 'closed', 3): (0.7703833371462412, 0.7472851931449396, 0.7472851931449396),
    (1, 'closed', 2 ** 40 + 3): (0.6863109475905399, 0.729945860799061, 0.729945860799061),
    (1, 'random', 3): (0.771055098442162, 0.7472851931449396, 0.7472851931449396),
    (1, 'random', 2 ** 40 + 3): (0.6887838337960995, 0.7214638437008951, 0.7403355047041056),
}


def test_sparse_estimates_match_golden_literals():
    """Estimates are pinned bit for bit: a change to the random streams, the
    draw order or the order of any float sum shows here."""
    models = make_models(89, 2, max_states=4, max_actions=3,
                         max_observations=3)
    for i, model in enumerate(models):
        belief = particles_for(model, 8, i)
        topologies = {"open": Topology.fully_open(),
                      "closed": Topology.fully_closed(),
                      "random": random_topology(model.num_actions,
                                                model.num_observations, 3,
                                                np.random.default_rng(i))}
        for name, topo in topologies.items():
            for seed in (3, 2 ** 40 + 3):
                got = (estimate_lb(model, belief, 0, topo,
                                   SparseConfig(8, 3, 3, seed)),
                       estimate_ub(model, belief, 0, topo,
                                   SparseConfig(8, 3, 3, seed)),
                       estimate_ub(model, belief, 0, topo,
                                   SparseConfig(8, 3, 3, seed, 1)))
                assert got == GOLDEN[i, name, seed], (i, name, seed)


def test_depletion_error_carries_the_node_path():
    # Valid models cannot deplete (every observation row sums to 1), so the
    # likelihoods are zeroed after validation.
    model = make_models(5, 1)[0]
    object.__setattr__(model, "observation", np.zeros_like(model.observation))
    belief = particles_for(model, 8, 0)
    topo = Topology.from_assignment({(): OPEN}, default_mode=CLOSED)
    with pytest.raises(ParticleDepletionError) as info:
        estimate_lb(model, belief, 1, topo, SparseConfig(8, 3, 3, seed=0))
    # root (1,), then action 1's open-loop child (branch 0) and its action 0
    assert info.value.path == (1, 1, 0, 0)


@settings(deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 64 - 1), st.sampled_from(sorted(_MODE_TAG)),
       st.lists(st.integers(0, 2 ** 32 - 1), max_size=7))
def test_path_words_draw_the_tuple_seeded_stream(seed, mode, path):
    path = tuple(path)
    expected = np.random.default_rng(
        np.random.SeedSequence((seed, _MODE_TAG[mode]) + path))
    got = _rng(_stream_head(seed, mode) + path)
    assert got.random(8).tolist() == expected.random(8).tolist()
