from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aolpomdp
from aolpomdp import (DiscretePomdp, ExactBelief, ImpossibleObservationError,
                      ParticleBelief, ParticleDepletionError,
                      exact_bayes_update, expected_reward,
                      observation_predictive, propagate_open_loop,
                      reachable_states)
from aolpomdp.core import cdf_table, sample_transitions
from aolpomdp.topology import OPEN, exact_branches
from conftest import make_models


def test_model_validates_stochastic_rows(tiger_like):
    bad = tiger_like.transition.copy()
    bad[0, 0, 0] = 0.7
    with pytest.raises(ValueError):
        DiscretePomdp(bad, tiger_like.observation, tiger_like.reward,
                      tiger_like.initial_belief, 2, 20.0)


@pytest.mark.parametrize("tensor", ["transition", "observation"])
def test_model_rejects_negative_entries(tiger_like, tensor):
    arrays = {"transition": tiger_like.transition.copy(),
              "observation": tiger_like.observation.copy()}
    row = arrays[tensor][0] if tensor == "observation" else arrays[tensor][1, 0]
    row[:] = [1.0 + 1e-12, -1e-12]
    with pytest.raises(ValueError, match="negative"):
        DiscretePomdp(arrays["transition"], arrays["observation"],
                      tiger_like.reward, tiger_like.initial_belief, 2, 20.0)


@pytest.mark.parametrize("entry, message", [
    ("transition", "NaN"), ("observation", "NaN"), ("reward", "r_max"),
    ("initial_belief", "sum to 1")])
def test_model_rejects_nan_entries(tiger_like, entry, message):
    arrays = {name: getattr(tiger_like, name).copy()
              for name in ("transition", "observation", "reward",
                           "initial_belief")}
    arrays[entry].flat[0] = np.nan
    with pytest.raises(ValueError, match=message):
        DiscretePomdp(arrays["transition"], arrays["observation"],
                      arrays["reward"], arrays["initial_belief"], 2, 20.0)


def test_public_belief_rejects_nan():
    with pytest.raises(ValueError, match="sum to 1"):
        ExactBelief(np.array([np.nan, 1.0]))


def test_cdf_tables_are_row_cdfs_and_read_only():
    model = make_models(3, 1)[0]
    for table, probabilities in ((model.transition_cdf, model.transition),
                                 (model.observation_cdf, model.observation)):
        assert table.shape == probabilities.shape
        assert not table.flags.writeable
        rows = probabilities.reshape(-1, probabilities.shape[-1])
        for cdf, row in zip(table.reshape(rows.shape), rows):
            expected = row.cumsum()
            expected /= expected[-1]
            np.testing.assert_array_equal(cdf, expected)
    assert model.transition_cdf is model.transition_cdf


_entries = st.one_of(st.just(0.0), st.floats(1e-12, 1e-6),
                     st.floats(1e-3, 1.0))


@settings(deadline=None, derandomize=True)
@given(st.lists(_entries, min_size=1, max_size=12).filter(lambda r: sum(r) > 0),
       st.integers(1, 40), st.integers(0, 2 ** 64 - 1))
def test_cdf_draws_match_generator_choice(entries, k, seed):
    """A CDF-table draw is `Generator.choice(n, p=row)`, one at a time or
    `size=k` at once: same indices from the same uniforms, and the stream
    ends at the same position."""
    row = np.array(entries) / np.sum(entries)
    cdf = cdf_table(np.stack([row, row[::-1]]))[0]
    table_rng = np.random.default_rng(seed)
    choice_rng = np.random.default_rng(seed)
    drawn = [int(cdf.searchsorted(table_rng.random(), side="right"))
             for _ in range(200)]
    chosen = [int(choice_rng.choice(row.size, p=row)) for _ in range(200)]
    assert drawn == chosen
    drawn = cdf_table(row).searchsorted(table_rng.random(k), side="right")
    chosen = choice_rng.choice(row.size, size=k, p=row)
    assert drawn.tolist() == chosen.tolist()
    assert table_rng.random() == choice_rng.random()


@settings(deadline=None, derandomize=True, max_examples=100)
@given(st.lists(_entries, min_size=1, max_size=12).filter(lambda r: sum(r) > 0),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_bisect_draws_match_searchsorted(entries, uniforms):
    """`bisect_right` on a CDF row as a Python list draws the index that
    `searchsorted(side="right")` draws: at u == 0, at u equal to an entry or
    just below it, and on the tied entries of zero-probability states."""
    cdf = cdf_table(np.array(entries))
    row = cdf.tolist()
    below = [float(np.nextafter(c, 0.0)) for c in row]
    for u in [0.0, *row, *below, *uniforms]:
        assert bisect_right(row, u) == int(cdf.searchsorted(u, side="right"))


class _StuckGenerator:
    """Generator stub whose uniforms all sit just below 1."""

    def random(self, n):
        return np.full(n, 1.0 - 1e-11)


def test_sample_transitions_stays_in_range_when_a_row_sums_below_one():
    # Row 0 of action 0 sums to 1 - 5e-10, which validation accepts; a
    # uniform above that total must still draw a state, not index S.
    transition = np.full((1, 3, 3), 1.0 / 3.0)
    transition[0, 0] = [0.5, 0.5 - 5e-10, 0.0]
    model = DiscretePomdp(transition, np.full((3, 2), 0.5), np.zeros((3, 1)),
                          np.full(3, 1.0 / 3.0), 1, 1.0)
    drawn = sample_transitions(model, np.array([0, 0, 1]), 0, _StuckGenerator())
    assert drawn.tolist() == [1, 1, 2]


@settings(deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 9), _entries), min_size=1,
                max_size=30).filter(lambda ps: sum(w for _, w in ps) > 0))
def test_derived_particle_belief_matches_public_constructor(particles):
    states = np.array([s for s, _ in particles], dtype=np.int64)
    weights = np.array([w for _, w in particles])
    public = ParticleBelief(states, weights)
    derived = ParticleBelief._derived(states.copy(), weights.copy())
    assert derived.weights.tolist() == public.weights.tolist()
    assert derived.states.tolist() == public.states.tolist()
    for array in (derived.states, derived.weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_derived_particle_belief_keeps_the_depletion_error():
    with pytest.raises(ParticleDepletionError):
        ParticleBelief._derived(np.zeros(4, dtype=np.int64), np.zeros(4))


def test_model_validates_reward_magnitude(tiger_like):
    with pytest.raises(ValueError):
        DiscretePomdp(tiger_like.transition, tiger_like.observation,
                      tiger_like.reward, tiger_like.initial_belief, 2, 5.0)


def test_v_max(tiger_like):
    assert tiger_like.v_max == tiger_like.horizon * tiger_like.r_max


def test_expected_reward_matches_both_representations(tiger_like, rng):
    belief = ExactBelief(np.array([0.3, 0.7]))
    exact = expected_reward(tiger_like, belief, 1)
    assert exact == pytest.approx(0.3 * 10.0 + 0.7 * -20.0)
    particles = ParticleBelief.from_exact(belief, 200_000, rng)
    sampled = expected_reward(tiger_like, particles, 1)
    assert sampled == pytest.approx(exact, abs=0.2)


def test_bayes_update_is_bayes_rule(tiger_like):
    belief = ExactBelief(np.array([0.5, 0.5]))
    posterior, evidence = exact_bayes_update(tiger_like, belief, 0, 0)
    assert evidence == pytest.approx(0.5)
    assert posterior.probabilities[0] == pytest.approx(0.85)


def test_impossible_observation_raises():
    transition = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    observation = np.array([[1.0, 0.0], [0.0, 1.0]])
    reward = np.zeros((2, 1))
    model = DiscretePomdp(transition, observation, reward,
                          np.array([1.0, 0.0]), 1, 1.0)
    with pytest.raises(ImpossibleObservationError):
        exact_bayes_update(model, ExactBelief(np.array([1.0, 0.0])), 0, 1)


def test_total_probability_law():
    for model in make_models(7, 10):
        belief = ExactBelief(model.initial_belief)
        for a in range(model.num_actions):
            predictive = observation_predictive(model, belief, a)
            mixture = np.zeros(model.num_states)
            for z in range(model.num_observations):
                if predictive[z] <= 0.0:
                    continue
                posterior, evidence = exact_bayes_update(model, belief, a, z)
                assert evidence == pytest.approx(predictive[z], abs=1e-12)
                mixture += evidence * posterior.probabilities
            propagated = propagate_open_loop(model, belief, [a])
            np.testing.assert_allclose(mixture, propagated.probabilities,
                                       atol=1e-9)


def test_particle_depletion_raises():
    with pytest.raises(ParticleDepletionError):
        ParticleBelief(np.zeros(16, dtype=int), np.zeros(16))


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0],
                                     [-np.inf, 1.0], [1e308, 1e308]])
def test_particle_belief_rejects_nan_and_infinite_weights(weights):
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        ParticleBelief(np.array([0, 1]), np.array(weights))


def test_reachable_states_covers_propagated_support():
    for model in make_models(23, 10):
        belief = ExactBelief(model.initial_belief)
        actions = [a % model.num_actions for a in range(model.horizon)]
        reach = reachable_states(model, belief, actions)
        propagated = propagate_open_loop(model, belief, actions)
        assert propagated.support <= reach


def test_beliefs_are_immutable(tiger_like):
    belief = ExactBelief(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        belief.probabilities[0] = 1.0


def test_public_belief_validates_and_derived_beliefs_are_read_only():
    with pytest.raises(ValueError, match="negative"):
        ExactBelief(np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="sum to 1"):
        ExactBelief(np.array([0.5, 0.4]))
    model = make_models(3, 1)[0]
    belief = ExactBelief(model.initial_belief)
    derived = [exact_bayes_update(model, belief, 0, 0)[0],
               propagate_open_loop(model, belief, [0, 1])]
    derived += [ExactBelief._derived(row)
                for row in exact_branches(model, belief, 0, OPEN, "afo")[2]]
    for child in derived:
        assert not child.probabilities.flags.writeable
        with pytest.raises(ValueError):
            child.probabilities[0] = 0.5


def test_package_exports_resolve():
    missing = [name for name in aolpomdp.__all__
               if not hasattr(aolpomdp, name)]
    assert not missing
