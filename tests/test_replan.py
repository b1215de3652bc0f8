import itertools
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aolpomdp import (DiscretePomdp, ExactBelief, SkipConfig, SrgCertificate,
                      Topology, check_srg, compute_ck, exact_bayes_update,
                      exact_q_star, execute_with_skipping, future_bounds,
                      replan)
from aolpomdp.bench import random_tiny_model
from aolpomdp.core import observation_predictive
from aolpomdp.envs import build_tunnel_pomdp, tunnel_spec
from aolpomdp.replan import (EmptyLikelihoodSupportError, PositivityError,
                             allowed_observation_sets, q_tilde)
from aolpomdp.topology import TopologyContractError
from conftest import make_models


def positive_models(seed, count):
    return make_models(seed, count, positive_rewards=True)


def test_compute_ck_uniform_likelihood_is_one():
    transition = np.array([[[0.5, 0.5], [0.5, 0.5]]])
    observation = np.full((2, 2), 0.5)
    model = DiscretePomdp(transition, observation, np.full((2, 1), 0.5),
                          np.array([1.0, 0.0]), 2, 1.0)
    factor = compute_ck(model, ExactBelief(model.initial_belief), [0, 0])
    assert factor.value == pytest.approx(1.0)


def test_compute_ck_empty_support_raises():
    transition = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    observation = np.array([[1.0, 0.0], [1.0, 0.0]])
    model = DiscretePomdp(transition, observation, np.zeros((2, 1)),
                          np.array([1.0, 0.0]), 2, 1.0)
    with pytest.raises(EmptyLikelihoodSupportError):
        compute_ck(model, ExactBelief(model.initial_belief), [0],
                   observation_sets=[frozenset({1})])


def test_compute_ck_in_unit_interval():
    for model in positive_models(111, 10):
        belief = ExactBelief(model.initial_belief)
        actions = [0] * min(2, model.horizon)
        factor = compute_ck(model, belief, actions)
        assert 0.0 < factor.value <= 1.0 + 1e-12
        assert len(factor.per_step) == len(actions)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_ck_in_unit_interval_property(seed):
    """c_k lies in (0, 1] for any action prefix and any non-empty allowed
    observation sets (random tiny models have full-support likelihoods)."""
    gen = np.random.default_rng(seed)
    model = random_tiny_model(gen)
    k = int(gen.integers(1, model.horizon + 2))
    actions = gen.integers(model.num_actions, size=k).tolist()
    sets = [frozenset(gen.choice(
        model.num_observations, replace=False,
        size=int(gen.integers(1, model.num_observations + 1))).tolist())
        for _ in range(k)]
    for observation_sets in (None, sets):
        factor = compute_ck(model, ExactBelief(model.initial_belief), actions,
                            observation_sets)
        assert 0.0 < factor.value <= 1.0
        assert len(factor.per_step) == k


def test_q_tilde_zero_prefix_is_plain_value():
    model = positive_models(113, 1)[0]
    belief = ExactBelief(model.initial_belief)
    topo = Topology.fully_open()
    value = q_tilde(model, belief, [], 0, topo, 2, "aol")
    from aolpomdp import exact_aol_value
    assert value == pytest.approx(exact_aol_value(model, belief, 0, topo, 2))


def test_future_bounds_sandwich_every_posterior():
    for model in positive_models(127, 8):
        belief = ExactBelief(model.initial_belief)
        topo = Topology.fully_open()
        plan_horizon = 2
        prefix = [0]
        for candidate in range(model.num_actions):
            pair = future_bounds(model, belief, prefix + [candidate], topo,
                                 plan_horizon)
            for z in range(model.num_observations):
                posterior, evidence = exact_bayes_update(model, belief, 0, z)
                if evidence <= 0.0:
                    continue
                q = exact_q_star(model, posterior, candidate, plan_horizon)
                assert pair.lower <= q + 1e-9
                assert q <= pair.upper + 1e-9


def test_restricted_sets_tighten_bounds():
    for model in positive_models(131, 6):
        belief = ExactBelief(model.initial_belief)
        topo = Topology.fully_open()
        full = [frozenset(range(model.num_observations))]
        narrow = allowed_observation_sets(model, belief, [0], top_m=1)
        wide_pair = future_bounds(model, belief, [0, 0], topo, 2, full)
        narrow_pair = future_bounds(model, belief, [0, 0], topo, 2, narrow)
        assert narrow_pair.lower >= wide_pair.lower - 1e-9
        assert narrow_pair.upper <= wide_pair.upper + 1e-9


def test_allowed_sets_are_most_likely():
    model = positive_models(137, 1)[0]
    belief = ExactBelief(model.initial_belief)
    sets = allowed_observation_sets(model, belief, [0], top_m=1)
    predictive = observation_predictive(model, belief, 0)
    assert sets[0] == frozenset({int(np.argmax(predictive))})


def test_check_srg_stops_at_first_failure():
    model = positive_models(139, 1)[0]
    belief = ExactBelief(model.initial_belief)
    cert = check_srg(model, belief, 0, depth=2,
                     topology=Topology.fully_open(), plan_horizon=2,
                     allowed_top_m=model.num_observations)
    assert cert.depth == 2
    statuses = [s.status for s in cert.steps]
    if "failed" in statuses:
        assert statuses.index("failed") == len(statuses) - 1
    assert cert.certified_depth == statuses.count("separated")


def test_closed_prefix_breaks_the_topology_contract():
    """The SRG prefix is open-loop: a topology that closes the root is
    rejected, not evaluated."""
    model = positive_models(139, 1)[0]
    belief = ExactBelief(model.initial_belief)
    closed = Topology.fully_closed()
    with pytest.raises(TopologyContractError):
        future_bounds(model, belief, [0, 0], closed, 2)
    with pytest.raises(TopologyContractError):
        check_srg(model, belief, 0, depth=2, topology=closed, plan_horizon=2)


def _srg_record(cert):
    return (cert.actions,
            [sorted(s) for s in cert.allowed_observation_sets],
            [(s.index, s.status, s.action,
              None if s.bounds is None else
              [(a, p.lower, p.upper) for a, p in sorted(s.bounds.items())],
              s.failure_reason) for s in cert.steps])


# Certificates asserted with ==, so any change to the float arithmetic of the
# SRG prefix or its bounds shows.  Cases: (model, first action, depth,
# explicit observation sets, allowed_top_m, (actions, allowed sets, steps)).
GOLDEN_SRG = [
    ("tunnel", 3, 3, None, 4, (
        [3, 3, 3, 3], [[0, 1, 2, 36]] * 3,
        [(1, "separated", 3, [(0, 70.625, 70.625), (1, 70.625, 70.625),
                              (2, 69.62625, 69.62625),
                              (3, 72.59062499999999, 72.590625)], ""),
         (2, "separated", 3, [(0, 74.55624999999998, 74.55625),
                              (1, 74.55624999999998, 74.55625),
                              (2, 72.73565624999998, 72.73565625),
                              (3, 202.55296875, 202.55296875)], ""),
         (3, "separated", 3, [(0, 330.5496875, 330.5496875),
                              (1, 330.5496875, 330.5496875),
                              (2, 221.47938749999997, 221.47938749999997),
                              (3, 388.0191171875, 388.0191171875)], "")])),
    ("tiny", 0, 2, None, None, (
        [0, 0], [[0, 1], [0, 1]],
        [(1, "separated", 0, [(0, 0.3663864121186803, 0.5354492373383157),
                              (1, 0.2194701499975955, 0.32074094602796743)],
          ""),
         (2, "failed", None, [(0, 0.29777378409060723, 0.6359813066777535),
                              (1, 0.18528573581434926, 0.39573082207969934)],
          "overlapping bounds")])),
    ("short", 0, 2, None, 4, (
        [0], [[1, 8, 9, 10]],
        [(1, "failed", None,
          [(0, 2.880252100840337, 1479.809523809524),
           (1, 2.880252100840337, 1479.809523809524),
           (2, 2.8702074579831938, 1474.6488095238096),
           (3, 2.8936449579831938, 1486.6904761904764)],
          "overlapping bounds")])),
    ("tunnel", 0, 2, [frozenset({20})], None, (
        [0], [[20]],
        [(1, "failed", None, None,
          "step 1: no positive likelihood over the restricted sets")])),
    ("signed", 0, 2, None, None, (
        [0], [[0, 1, 2]],
        [(1, "failed", None, None,
          "negative residual value (aol=-0.230793, afo=-0.230793)")])),
]


def test_check_srg_matches_golden_certificates():
    models = {
        "tunnel": build_tunnel_pomdp(tunnel_spec(length=12, start_col=8,
                                                 horizon=2)),
        "short": build_tunnel_pomdp(tunnel_spec(length=8, start_col=1,
                                                horizon=2)),
        "tiny": positive_models(259, 3)[2],
        "signed": make_models(0, 1)[0],
    }
    for name, first, depth, sets, top_m, expected in GOLDEN_SRG:
        model = models[name]
        cert = check_srg(model, ExactBelief(model.initial_belief), first,
                         depth, Topology.fully_open(), sets,
                         model.horizon, top_m)
        assert _srg_record(cert) == expected, name


def test_execute_requires_positive_rewards(tiger_like):
    class _Env:
        def step(self, action):
            return 0, 0.0, True

    with pytest.raises(PositivityError):
        execute_with_skipping(tiger_like, _Env(), lambda b, s: 0,
                              SkipConfig(enabled=True))


class _ModelEnv:
    """Samples the model itself and ends the episode after `steps` steps;
    each step takes at least `delay_s` seconds."""

    def __init__(self, model, steps, delay_s=0.0):
        self.model = model
        self.steps = steps
        self.delay_s = delay_s
        self.rng = np.random.default_rng(0)
        self.state = int(np.argmax(model.initial_belief))
        self.count = 0

    def step(self, action):
        time.sleep(self.delay_s)
        model = self.model
        reward = float(model.reward[self.state, action])
        self.state = int(self.rng.choice(
            model.num_states, p=model.transition[action, self.state]))
        obs = int(self.rng.choice(model.num_observations,
                                  p=model.observation[self.state]))
        self.count += 1
        return obs, reward, self.count >= self.steps


def test_execute_without_skipping_runs_episode():
    model = positive_models(149, 1)[0]
    trace = execute_with_skipping(model, _ModelEnv(model, 4), lambda b, s: 0,
                                  SkipConfig(enabled=False))
    assert len(trace.rows) == 4
    assert trace.skip_ratio == 0.0
    assert trace.total_reward == pytest.approx(
        sum(r.reward for r in trace.rows))


def test_executor_runs_on_the_main_thread_only():
    model = positive_models(149, 1)[0]
    threads_while_planning = []

    def planner(belief, step):
        threads_while_planning.append(threading.active_count())
        return 0

    trace = execute_with_skipping(
        model, _ModelEnv(model, 4), planner,
        SkipConfig(enabled=True, max_skip_depth=1, plan_horizon=2))
    assert trace.certificates and len(threads_while_planning) >= 2
    assert threads_while_planning == [1] * len(threads_while_planning)
    assert threading.active_count() == 1


def test_no_srg_check_after_the_final_step(monkeypatch):
    model = positive_models(149, 1)[0]
    env = _ModelEnv(model, 3, delay_s=0.02)
    steps_taken_at_check = []

    def record_check(model, belief, first_action, *args):
        steps_taken_at_check.append(env.count)
        return SrgCertificate(0, [first_action], [], [])

    monkeypatch.setattr(replan, "check_srg", record_check)
    trace = execute_with_skipping(model, env, lambda b, s: 0,
                                  SkipConfig(enabled=True))
    assert len(trace.rows) == 3
    # one check after each planned step that did not end the episode
    assert steps_taken_at_check == [1, 2]
