import numpy as np
import pytest

from aolpomdp import GridEnvironment, GridWorldSpec, build_beacon_pomdp, \
    build_tunnel_pomdp, tunnel_spec


@pytest.fixture
def small_spec():
    return GridWorldSpec(width=6, height=6, beacons=((2, 2),),
                         obstacles=((3, 3),), goal=(4, 4), start=(1, 1),
                         horizon=2)


def test_default_spec_matches_reference_layout():
    spec = GridWorldSpec()
    assert (spec.width, spec.height) == (20, 20)
    assert spec.beacons == ((3, 3),)
    assert spec.obstacles == ((2, 3), (2, 4), (9, 3))
    assert spec.goal == (7, 5)
    assert spec.start == (1, 3)
    assert (spec.p_intended, spec.p_adjacent, spec.p_stay) == (0.5, 0.2, 0.3)
    assert (spec.r_goal, spec.r_obstacle, spec.r_step) == (200.0, -30.0, -0.5)


def test_transition_rows_are_stochastic(small_spec):
    model = build_beacon_pomdp(small_spec)
    np.testing.assert_allclose(model.transition.sum(axis=2), 1.0, atol=1e-12)
    np.testing.assert_allclose(model.observation.sum(axis=1), 1.0, atol=1e-12)


def test_boundary_mass_folds_into_stay(small_spec):
    model = build_beacon_pomdp(small_spec)
    corner = small_spec.index((0, 0))
    # moving up from the top-left corner: intended and both laterals blocked
    # or partially blocked, so stay keeps the leftover mass
    row = model.transition[0, corner]
    assert row[corner] >= small_spec.p_stay + small_spec.p_intended


def test_obstacle_blocks_entry(small_spec):
    model = build_beacon_pomdp(small_spec)
    obstacle = small_spec.index((3, 3))
    neighbor = small_spec.index((2, 3))
    # moving right from (2,3): the intended cell is the obstacle
    row = model.transition[3, neighbor]
    assert row[obstacle] == 0.0
    assert row[neighbor] >= small_spec.p_stay + small_spec.p_intended


def test_observation_error_grows_with_distance(small_spec):
    model = build_beacon_pomdp(small_spec)
    at_beacon = small_spec.index((2, 2))
    far = small_spec.index((5, 5))
    # P(z = x) falls with distance from the beacon
    assert model.observation[at_beacon, at_beacon] > model.observation[far, far]


def test_error_floor_at_beacon(small_spec):
    model = build_beacon_pomdp(small_spec)
    s = small_spec.index((2, 2))
    # clamp floor 0.1 split over 4 in-bounds neighbors
    neighbor = small_spec.index((2, 1))
    assert model.observation[s, neighbor] == pytest.approx(0.1 / 4)


def test_paper_obs_model_flag(small_spec):
    compat = GridWorldSpec(**{**small_spec.__dict__, "paper_obs_model": True})
    model = build_beacon_pomdp(compat)
    s = small_spec.index((2, 2))
    # literal formula: error = min(0.9, 1 - 0) = 0.9 at the beacon
    assert model.observation[s, s] == pytest.approx(1.0 - 0.9)


def test_null_observation_out_of_range():
    spec = GridWorldSpec(width=20, height=20, horizon=2)
    model = build_beacon_pomdp(spec)
    far = spec.index((19, 19))
    assert model.observation[far, spec.null_observation] == 1.0
    near = spec.index((3, 3))
    assert model.observation[near, spec.null_observation] == 0.0


def test_reward_components(small_spec):
    model = build_beacon_pomdp(small_spec)
    goal = small_spec.index(small_spec.goal)
    assert model.reward[goal, 0] == pytest.approx(
        small_spec.r_goal + small_spec.r_step + small_spec.dist_reward_scale)
    obstacle = small_spec.index((3, 3))
    d = 2   # manhattan distance from (3,3) to (4,4)
    assert model.reward[obstacle, 0] == pytest.approx(
        small_spec.r_obstacle + small_spec.r_step
        + small_spec.dist_reward_scale / (1 + d))


def test_tunnel_is_positive_and_out_of_beacon_range():
    spec = tunnel_spec()
    model = build_tunnel_pomdp(spec)
    assert model.reward.min() >= 0.0
    start = spec.index(spec.start)
    assert model.observation[start, spec.null_observation] == 1.0


def test_tunnel_rejects_insufficient_offset():
    with pytest.raises(ValueError):
        build_tunnel_pomdp(tunnel_spec(reward_offset=0.0))


def test_environment_steps_deterministically_per_seed(small_spec):
    model = build_beacon_pomdp(small_spec)

    def run(seed):
        env = GridEnvironment(model, small_spec, np.random.default_rng(seed))
        out = []
        for _ in range(5):
            out.append(env.step(1))
            if out[-1][2]:
                break
        return out

    assert run(7) == run(7)


def test_environment_terminates_at_goal(small_spec):
    model = build_beacon_pomdp(small_spec)
    env = GridEnvironment(model, small_spec, np.random.default_rng(0),
                          step_limit=500)
    done = False
    while not done:
        _, _, done = env.step(3 if env.steps % 2 == 0 else 1)
    assert (small_spec.cell(env.state) == small_spec.goal
            or env.steps >= env.step_limit)


@pytest.mark.parametrize("cells", [dict(obstacles=((6, 0),)),
                                   dict(obstacles=((0, -1),)),
                                   dict(goal=(0, 6)), dict(beacons=((6, 6),))])
def test_spec_rejects_cells_outside_the_grid(small_spec, cells):
    with pytest.raises(ValueError, match="out of bounds"):
        GridWorldSpec(**{**small_spec.__dict__, **cells})
