import numpy as np
import pytest

from aolpomdp import (AtPomcp, ExactBelief, ParticleBelief, PomcpConfig,
                      Topology, exact_q_star)
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


def test_diagnostics_export_format():
    model = make_models(97, 1)[0]
    config = PomcpConfig(horizon=2, seed=1, num_simulations=1000, pw_k=20.0)
    solver = AtPomcp(model, config)
    solver.search(ExactBelief(model.initial_belief))
    text = solver.diagnostics.export()
    lines = text.strip().splitlines()
    assert lines[0] == "sim_index,adaptation_index,nodes_flipped,open_fraction"
