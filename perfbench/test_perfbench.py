"""Tests of the benchmark's own reference, checks and tracer.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench
"""
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from aolpomdp import core, envs, replan, sparse  # noqa: E402

# Listen/commit: the prize sits in state 0 or 1 and stays there.  Listening
# costs 1; committing to the right state pays 10, to the wrong one costs 20.
# Every step observes the state correctly with probability 0.8.
LISTEN_COMMIT = dict(
    transition=np.stack([np.eye(2)] * 3),
    observation=np.array([[0.8, 0.2], [0.2, 0.8]]),
    reward=np.array([[-1.0, 10.0, -20.0], [-1.0, -20.0, 10.0]]),
)


def q(belief, horizon):
    return reference.q_star(LISTEN_COMMIT["transition"],
                            LISTEN_COMMIT["observation"],
                            LISTEN_COMMIT["reward"], np.array(belief), horizon)


def test_bayes_filter_by_hand():
    t, z = LISTEN_COMMIT["transition"], LISTEN_COMMIT["observation"]
    beliefs = reference.filter_trace(t, z, [0.5, 0.5], [(0, 0), (0, 0)])
    np.testing.assert_allclose(beliefs[1], [0.8, 0.2])
    np.testing.assert_allclose(beliefs[2], [16 / 17, 1 / 17])
    with pytest.raises(reference.ImpossibleObservation):
        reference.bayes_filter(t, np.array([[1.0, 0.0], [1.0, 0.0]]),
                               np.array([0.5, 0.5]), 0, 1)


def test_q_star_by_hand():
    # horizon 1 at the uniform belief: -1, (10 - 20) / 2, (10 - 20) / 2
    np.testing.assert_allclose(q([0.5, 0.5], 1), [-1.0, -5.0, -5.0])
    # each observation (probability 1/2) leads to (0.8, 0.2) or its mirror,
    # where the best one-step value is 0.8 * 10 - 0.2 * 20 = 4
    np.testing.assert_allclose(q([0.5, 0.5], 2), [3.0, -1.0, -1.0])
    # at (0.9, 0.1): P(z=0) = 0.74 with posterior (36/37, 1/37), best 340/37;
    # P(z=1) = 0.26 with posterior (9/13, 4/13), best 10/13; 6.8 + 0.2 = 7
    np.testing.assert_allclose(q([0.9, 0.1], 1), [-1.0, 7.0, -17.0])
    np.testing.assert_allclose(q([0.9, 0.1], 2), [6.0, 14.0, -10.0])


def test_q_star_matches_program_oracle_on_tunnel():
    from aolpomdp import oracle

    model = envs.build_tunnel_pomdp(envs.tunnel_spec())
    belief = core.ExactBelief(model.initial_belief)
    mine = reference.q_star(model.transition, model.observation, model.reward,
                            model.initial_belief, 3)
    theirs = [oracle.exact_q_star(model, belief, a, 3)
              for a in range(model.num_actions)]
    np.testing.assert_allclose(mine, theirs, rtol=1e-9)


def _first_step(model, action):
    """A one-row trace whose observation is the likeliest after `action`."""
    predictive = (model.initial_belief @ model.transition[action]) \
        @ model.observation
    return int(np.argmax(predictive))


@pytest.mark.parametrize("skipped", [True, False])
def test_tunnel_check_rejects_a_non_optimal_action(skipped):
    model = envs.build_tunnel_pomdp(envs.tunnel_spec(length=30, start_col=1,
                                                     horizon=3))
    values = reference.q_star(model.transition, model.observation,
                              model.reward, model.initial_belief,
                              workloads.PLAN_HORIZON)
    best, worst = int(np.argmax(values)), int(np.argmin(values))
    assert values[best] - values[worst] > reference.optimality_tolerance(values)
    belief = core.ExactBelief(model.initial_belief)
    for action, expect_problem in ((best, False), (worst, True)):
        row = replan.TraceRow(0, action, _first_step(model, action), True,
                              skipped, 0.0, 0.0, 0.0, 0.0)
        decisions = [] if skipped else [workloads.Decision(0, belief, action,
                                                           None, True)]
        problems = workloads.check_optimal_steps(model, [row], decisions,
                                                 "closed")
        assert bool(problems) == expect_problem, problems


SMALL_TUNNEL = workloads.Workload(
    "small-tunnel", envs.tunnel_spec(), envs.build_tunnel_pomdp, 5,
    workloads._exact_planner, workloads._tunnel_skip, workloads._check_tunnel)


def test_traced_episode_attributes_srg_spans_to_their_decision():
    model = SMALL_TUNNEL.build(SMALL_TUNNEL.spec)
    tracer = tracing.Tracer(SMALL_TUNNEL.name)
    tracer.install()
    try:
        episode = harness.run_episode(SMALL_TUNNEL, model, "adaptive", 3,
                                      tracer)
    finally:
        tracer.uninstall()
    assert threading.active_count() == 1
    assert not SMALL_TUNNEL.check(SMALL_TUNNEL, model, episode)
    cols = tracer._columns()
    srg = cols["name"] == tracer.names.index("replan.srg")
    assert srg.any()
    decision_steps = {d.step for d in episode.decisions}
    for ctx in cols["context"][srg]:
        workload, arm, seed, step = tracer.contexts[ctx]
        assert (arm, seed) == ("adaptive", 3) and step in decision_steps
    totals = tracer.totals("adaptive")
    assert totals["replan.srg.calls"] == int(srg.sum())
    assert totals["oracle.nodes"] > 0 and totals["envs.step.calls"] == 5


def test_missing_function_is_omitted_not_fatal(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "sparse.gone",
                        (["sparse:expand_children"], None, None))
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        assert any(site.startswith("sparse:expand_children")
                   for site in tracer.omitted)
        assert "sparse.gone" in tracer.missing
        assert sparse.estimate_lb.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(sparse.estimate_lb, "__wrapped__")


def test_benchmark_json_lists_what_the_runs_print():
    import json

    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == tracing.per_layer_metrics(workloads.ARMS)
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)


def test_speed_probe_scales_times_to_its_nominal_speed(monkeypatch):
    import speed

    probe = speed.SpeedProbe()
    monkeypatch.setattr(probe, "measure", lambda: 2.0 * speed.NOMINAL_NS)
    probe.last_ns = 2.0 * speed.NOMINAL_NS
    assert probe.scale() == 0.5      # a host at half speed reads as nominal

    result = harness.run_rounds(SMALL_TUNNEL, 5, 0.0, rounds=2,
                                min_decisions=0)
    before = harness.end_to_end(result)
    for arm in workloads.ARMS:
        for episode in result.episodes[arm]:
            episode.scale *= 2.0
    after = harness.end_to_end(result)
    for arm in workloads.ARMS:
        for name in ("decision_ms.p50", "decision_ms.p90"):
            key = f"{arm}.{name}"
            assert after[key][0] == pytest.approx(2.0 * before[key][0])
        key = f"{arm}.steps_per_s"
        assert after[key][0] == pytest.approx(before[key][0] / 2.0)
