import numpy as np
import pytest

from aolpomdp import (AtPomcp, ExactBelief, ParticleBelief, PomcpConfig,
                      Topology, exact_q_star)
from aolpomdp.envs import GridWorldSpec, build_beacon_pomdp
from aolpomdp.pomcp import random_topo_transition
from aolpomdp.topology import OPEN
from conftest import make_models


def test_config_requires_a_budget():
    with pytest.raises(ValueError):
        PomcpConfig(horizon=2, seed=0)


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


_GOLDEN_TRANSITIONS = [(51, 2, 1, 0.9230769230769231),
                       (101, 3, 1, 0.8461538461538461),
                       (151, 4, 1, 0.7692307692307693),
                       (201, 5, 1, 0.7692307692307693)]
GOLDEN_SEARCHES = {
    ("exact", True): (
        [0.5845912279483031, -0.2924477768263245, 0.2746714944721116],
        [272, 32, 95],
        _GOLDEN_TRANSITIONS + [(251, 6, 1, 0.625),
                               (301, 7, 1, 0.6111111111111112),
                               (351, 8, 1, 0.5789473684210527)]),
    ("exact", False): (
        [0.6512429688222104, -0.3800210418812043, 0.14679945344723203],
        [307, 27, 65], []),
    ("particle", True): (
        [0.43618561099947883, 0.057485081450657075, 0.025619385833515404],
        [251, 77, 71],
        _GOLDEN_TRANSITIONS + [(251, 6, 1, 0.7058823529411765),
                               (301, 7, 1, 0.9583333333333334),
                               (351, 8, 1, 0.7619047619047619)]),
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
    assert solver.topology == Topology.fully_closed()
    solver.search(ExactBelief(model.initial_belief))
    assert solver.diagnostics.transitions == []


def test_adaptation_flips_toward_closed():
    model = make_models(97, 1, max_horizon=3)[0]
    config = PomcpConfig(horizon=max(model.horizon, 2), seed=1,
                         num_simulations=2000, pw_k=50.0)
    solver = AtPomcp(model, config)
    assert solver.topology == Topology.fully_open()
    solver.search(ExactBelief(model.initial_belief))
    assert solver.diagnostics.transitions
    assert solver.open_fraction() < 1.0
    # every recorded transition happened after its schedule threshold
    for sim_index, j, flipped, _ in solver.diagnostics.transitions:
        assert sim_index > config.pw_k * (j - 1) ** config.pw_alpha
        assert 1 <= flipped <= config.transition_flips


def test_random_topo_transition_identity_when_everything_closed(rng):
    topo = Topology.fully_closed()
    new, flipped, identity = random_topo_transition(topo, [()], 2, 3, rng)
    assert identity
    assert new == topo
    assert flipped == []


def test_random_topo_transition_flips_visited_open_nodes(rng):
    topo = Topology.fully_open()
    visited = [(), (("a", 0),), (("a", 1),)]
    new, flipped, identity = random_topo_transition(topo, visited, 2, 3, rng,
                                                    flips=2)
    assert not identity
    assert len(flipped) == 2
    for key in flipped:
        assert new.beta(key) != OPEN


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


# (root, adapt, seed) -> (root_values, root_visits, open fraction after each
# transition, nodes); every adaptive search flips one node at simulations
# 101, 201, 301 and 401
BEACON_GOLDEN_SEARCHES = {
    ("exact", False, 0): (
        [3.5, 11.9454269636088, -4.520833333333336, 4.392857142857142],
        [1, 495, 2, 1], [], 331),
    ("exact", False, 1): (
        [2.590909090909091, -1.6111111111111107, 3.541666666666667,
         14.687994233657488],
        [1, 6, 2, 490], [], 348),
    ("exact", False, 2): (
        [10.129791586831509, 4.458958633958637, 2.727272727272727,
         4.366883116883116],
        [451, 45, 1, 2], [], 352),
    ("exact", True, 0): (
        [3.5, 15.28678072768982, -4.604166666666664, 4.392857142857142],
        [1, 495, 2, 1],
        [0.9, 0.9753086419753086, 0.9790209790209791, 0.9794871794871794],
        241),
    ("exact", True, 1): (
        [2.590909090909091, 11.403595189532687, 3.2076719576719577,
         0.5171957671957657],
        [1, 480, 9, 9],
        [0.9411764705882353, 0.978021978021978, 0.9794520547945206,
         0.9805825242718447],
        258),
    ("exact", True, 2): (
        [4.755900349650349, 4.579773004773005, 2.727272727272727,
         13.234056826958698],
        [4, 15, 1, 479], [0.9375, 0.9636363636363636, 0.9583333333333334, 0.95],
        83),
    ("particle", False, 0): (
        [2.25, 5.991666666666667, 3.5, 11.825558503149958],
        [1, 5, 1, 492], [], 210),
    ("particle", False, 1): (
        [3.5, 7.055451127819549, 12.363344813816495, 5.729166666666667],
        [1, 19, 477, 2], [], 253),
    ("particle", False, 2): (
        [27.581620315711216, 7.375, 2.25, 7.0],
        [495, 2, 1, 1], [], 226),
    ("particle", True, 0): (
        [2.25, 7.508987056714332, 3.5, 5.354166666666667],
        [1, 495, 1, 2],
        [0.9, 0.9636363636363636, 0.9577464788732394, 0.9591836734693877],
        109),
    ("particle", True, 1): (
        [3.5, 7.932205346954308, 5.402777777777778, 6.402342755283932],
        [1, 478, 3, 17], [0.9333333333333333, 0.8666666666666667, 0.8, 0.8],
        15),
    ("particle", True, 2): (
        [27.39493763964531, 12.25, 2.25, 7.0],
        [496, 1, 1, 1],
        [0.8888888888888888, 0.7777777777777778, 0.6666666666666666,
         0.5555555555555556],
        9),
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
    values, visits, fractions, nodes = BEACON_GOLDEN_SEARCHES[root, adapt,
                                                              seed]
    assert result.root_values.tolist() == values
    assert result.root_visits.tolist() == visits
    assert result.diagnostics.transitions == [
        (100 * j + 1, j + 1, 1, fraction)
        for j, fraction in enumerate(fractions, start=1)]
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
