import numpy as np
import pytest

from aolpomdp import (AtPomcp, ExactBelief, ParticleBelief, PomcpConfig,
                      exact_q_star)
from aolpomdp.envs import GridWorldSpec, build_beacon_pomdp
from aolpomdp.topology import key_depth
from conftest import make_models


def test_config_requires_a_budget():
    with pytest.raises(ValueError):
        PomcpConfig(horizon=2, seed=0)


def test_config_requires_a_layer_per_transition():
    with pytest.raises(ValueError, match="transition_flips"):
        PomcpConfig(horizon=3, seed=0, num_simulations=10, transition_flips=0)


def test_search_is_deterministic_with_fixed_simulations():
    model = make_models(91, 1, max_horizon=3)[0]
    belief = ExactBelief(model.initial_belief)
    config = PomcpConfig(horizon=max(model.horizon, 2), seed=3,
                         num_simulations=500)
    first = AtPomcp(model, config).search(belief)
    second = AtPomcp(model, config).search(belief)
    assert first.action == second.action
    np.testing.assert_array_equal(first.root_values, second.root_values)
    np.testing.assert_array_equal(first.root_visits, second.root_visits)


_GOLDEN_TRANSITIONS = [(51, 2, 1), (101, 3, 1)]
GOLDEN_SEARCHES = {
    ("exact", True): (
        [0.6255994589577232, -0.18438944921818948, -0.08520496788248948],
        [233, 33, 37], _GOLDEN_TRANSITIONS),
    ("exact", False): (
        [0.6512429688222104, -0.3800210418812043, 0.14679945344723203],
        [307, 27, 65], []),
    ("particle", True): (
        [0.45258044430836036, 0.14150853382241202, -0.044840371725796545],
        [181, 71, 51], _GOLDEN_TRANSITIONS),
    ("particle", False): (
        [0.5010018264966553, 0.017109710434234267, 0.061499486006047384],
        [269, 62, 68], []),
}


@pytest.mark.parametrize("root, adapt", sorted(GOLDEN_SEARCHES))
def test_search_matches_golden_values(root, adapt):
    """Bit-identical to the values recorded when every draw went through
    `Generator.choice(p=...)`: the draws consume the same random stream."""
    model = make_models(5, 1, max_horizon=3)[0]
    belief = (ExactBelief(model.initial_belief) if root == "exact" else
              ParticleBelief(np.array([0, 1, 1, 3]),
                             np.array([0.1, 0.2, 0.3, 0.4])))
    config = PomcpConfig(horizon=3, seed=7, num_simulations=400,
                         ucb_constant=3.0, pw_k=50.0, adapt_topology=adapt)
    result = AtPomcp(model, config).search(belief)
    values, visits, transitions = GOLDEN_SEARCHES[root, adapt]
    assert result.root_values.tolist() == values
    assert result.root_visits.tolist() == visits
    assert result.diagnostics.transitions == transitions


def test_baseline_uses_closed_topology():
    model = make_models(91, 1)[0]
    config = PomcpConfig(horizon=2, seed=0, num_simulations=50,
                         adapt_topology=False)
    solver = AtPomcp(model, config)
    assert solver.closed_depth == config.horizon
    solver.search(ExactBelief(model.initial_belief))
    assert solver.diagnostics.transitions == []
    assert solver.open_fraction() == 0.0


def test_adaptation_flips_toward_closed():
    model = make_models(97, 1, max_horizon=3)[0]
    config = PomcpConfig(horizon=max(model.horizon, 2), seed=1,
                         num_simulations=2000, pw_k=50.0)
    solver = AtPomcp(model, config)
    assert solver.closed_depth == 0
    solver.search(ExactBelief(model.initial_belief))
    assert solver.diagnostics.transitions
    assert solver.open_fraction() < 1.0
    # every recorded transition happened after its schedule threshold
    for sim_index, j, flipped in solver.diagnostics.transitions:
        assert sim_index > config.pw_k * (j - 1) ** config.pw_alpha
        assert 1 <= flipped <= config.transition_flips


def test_transitions_close_layers_shallowest_first():
    model = make_models(97, 1, max_horizon=3)[0]
    horizon = 4
    config = PomcpConfig(horizon=horizon, seed=2, num_simulations=1000,
                         pw_k=50.0)
    solver = AtPomcp(model, config)
    after = []
    adapt = solver._adapt

    def recorded(sim_index):
        adapt(sim_index)
        after.append((solver.closed_depth, solver.open_fraction(),
                      {key: list(node.action_visits)
                       for key, node in solver.tree.items()}))

    solver._adapt = recorded
    solver.search(ExactBelief(model.initial_belief))
    # one layer per transition, until only the last layer is open; the
    # schedule would have fallen due 19 times in 1000 simulations
    assert [depth for depth, _, _ in after] == list(range(1, horizon))
    assert [j for _, j, _ in solver.diagnostics.transitions] == [2, 3, 4]
    for closed_depth, open_fraction, visits in after:
        # right after a transition only nodes above the new layer are kept,
        # closed-loop, each action's stale mean weighted as one visit
        assert visits
        assert open_fraction == 0.0
        for key, action_visits in visits.items():
            assert key_depth(key) < closed_depth
            assert max(action_visits) <= 1
    assert solver.closed_depth == horizon - 1
    assert solver.open_fraction() == 0.0
    # the first transition closed the root: its children carry an observation
    children = [key for key in solver.tree if key_depth(key) == 1]
    assert children
    assert all(len(key) == 2 and key[1][0] == "z" for key in children)


def test_open_fraction_follows_the_closed_layers():
    """1.0 before the first transition and at horizon 1 (no layer to close),
    the share of nodes below the closed layers between transitions, and 0.0
    for the baseline."""
    model = make_models(5, 1, max_horizon=3)[0]
    belief = ExactBelief(model.initial_belief)

    def searched(horizon, num_simulations, adapt=True):
        solver = AtPomcp(model, PomcpConfig(
            horizon=horizon, seed=7, num_simulations=num_simulations,
            ucb_constant=3.0, pw_k=50.0, adapt_topology=adapt))
        solver.search(belief)
        return solver

    before = searched(3, 40)
    assert before.closed_depth == 0 and len(before.tree) > 1
    assert before.open_fraction() == 1.0
    assert searched(1, 100).open_fraction() == 1.0
    # one transition at simulation 51 closed the root: 24 of 25 nodes open
    between = searched(3, 100)
    assert between.closed_depth == 1
    assert between.open_fraction() == 0.96
    assert searched(3, 100, adapt=False).open_fraction() == 0.0


def test_converges_near_optimal_on_tiny_model():
    model = make_models(101, 1, max_states=3, max_actions=2,
                        max_observations=2, max_horizon=2)[0]
    horizon = 2
    belief = ExactBelief(model.initial_belief)
    q = max(exact_q_star(model, belief, a, horizon)
            for a in range(model.num_actions))
    config = PomcpConfig(horizon=horizon, seed=17, num_simulations=5000)
    result = AtPomcp(model, config).search(belief)
    assert abs(result.value - q) < 0.1 * model.v_max


# (root, adapt, seed) -> (root_values, root_visits, transitions, nodes
# created); every adaptive search closes one layer at simulations 101 and
# 201, the root and then depth 1, which leaves only the last layer of
# horizon 3 open and no node open
BEACON_GOLDEN_SEARCHES = {
    ("exact", False, 0): (
        [3.5, 11.9454269636088, -4.520833333333336, 4.392857142857142],
        [1, 495, 2, 1], 0, 331),
    ("exact", False, 1): (
        [2.590909090909091, -1.6111111111111107, 3.541666666666667,
         14.687994233657488],
        [1, 6, 2, 490], 0, 348),
    ("exact", False, 2): (
        [10.129791586831509, 4.458958633958637, 2.727272727272727,
         4.366883116883116],
        [451, 45, 1, 2], 0, 352),
    ("exact", True, 0): (
        [3.7413704716336302, 8.091051415289275, -4.604166666666664,
         2.988095238095238],
        [19, 275, 1, 9], 2, 275),
    ("exact", True, 1): (
        [12.378660106419423, 2.087975175865801, 1.9416005291005294,
         0.5171957671957657],
        [301, 1, 1, 1], 2, 319),
    ("exact", True, 2): (
        [3.8779501748251746, 11.130117615940385, 2.727272727272727,
         -2.4480877772017013],
        [1, 301, 1, 1], 2, 296),
    ("particle", False, 0): (
        [2.25, 5.991666666666667, 3.5, 11.825558503149958],
        [1, 5, 1, 492], 0, 210),
    ("particle", False, 1): (
        [3.5, 7.055451127819549, 12.363344813816495, 5.729166666666667],
        [1, 19, 477, 2], 0, 253),
    ("particle", False, 2): (
        [27.581620315711216, 7.375, 2.25, 7.0],
        [495, 2, 1, 1], 0, 226),
    ("particle", True, 0): (
        [2.25, 6.818543711931346, 3.5, 3.963541666666667],
        [1, 300, 1, 2], 2, 173),
    ("particle", True, 1): (
        [3.5, 4.639459787897287, 4.368055555555555, 11.457464413594268],
        [1, 3, 1, 299], 2, 192),
    ("particle", True, 2): (
        [8.050355388961515, 7.303661616161618, 2.25, 14.085218728639795],
        [12, 6, 1, 285], 2, 215),
}


@pytest.fixture(scope="module")
def beacon_model():
    return build_beacon_pomdp(GridWorldSpec(width=10, height=10, horizon=3))


@pytest.mark.parametrize("root, adapt, seed", sorted(BEACON_GOLDEN_SEARCHES))
def test_beacon_search_matches_golden_values(beacon_model, root, adapt, seed):
    """500-simulation searches on the 10x10 beacon grid, from a uniform exact
    root (draws from many states' rows) and a particle root, are
    bit-identical to the values recorded with numpy `searchsorted` draws and
    array statistics."""
    belief = (ExactBelief.uniform(beacon_model.num_states) if root == "exact"
              else ParticleBelief(np.array([13, 13, 31, 45, 67, 88, 90]),
                                  np.array([0.1, 0.2, 0.1, 0.15, 0.15, 0.2,
                                            0.1])))
    config = PomcpConfig(horizon=3, seed=seed, num_simulations=500,
                         adapt_topology=adapt)
    result = AtPomcp(beacon_model, config).search(belief)
    values, visits, transitions, nodes = BEACON_GOLDEN_SEARCHES[root, adapt,
                                                                seed]
    assert result.root_values.tolist() == values
    assert result.root_visits.tolist() == visits
    assert result.diagnostics.transitions == [
        (100 * j + 1, j + 1, 1) for j in range(1, transitions + 1)]
    assert result.diagnostics.nodes == nodes


def test_draw_rows_are_converted_on_first_draw():
    model = make_models(5, 1, max_horizon=3)[0]
    transition_rows, observation_rows, rewards = model.draw_rows
    assert rewards == model.reward.tolist()
    assert all(row is None for rows in transition_rows for row in rows)
    config = PomcpConfig(horizon=3, seed=7, num_simulations=50)
    AtPomcp(model, config).search(ExactBelief(model.initial_belief))
    assert model.draw_rows is model.draw_rows
    drawn = 0
    for a, rows in enumerate(transition_rows):
        for s, row in enumerate(rows):
            if row is not None:
                assert row == model.transition_cdf[a, s].tolist()
                drawn += 1
    assert drawn
    for s, row in enumerate(observation_rows):
        assert row is None or row == model.observation_cdf[s].tolist()
