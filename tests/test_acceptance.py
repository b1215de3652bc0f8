"""End-to-end acceptance criteria.

Each test prints a single ``CRITERION n ...: PASS`` / ``FAIL`` line (visible
with ``pytest -s`` or on failure) and is named so that ``pytest -v`` shows one
pass/fail line per criterion.
"""
import itertools
import math
import time

import numpy as np
import pytest

from aolpomdp import (AtPomcp, DiscretePomdp, ExactBelief, ExactEvaluator,
                      ParticleBelief, PomcpConfig, SparseConfig, Topology,
                      build_tree, check_srg, estimate_lb, estimate_ub,
                      exact_afo_value, exact_aol_value, exact_bayes_update,
                      exact_q_star, future_bounds, plan_with_guarantees,
                      random_topology)
from aolpomdp.bench import ExperimentConfig, random_tiny_model, run_experiment
from aolpomdp.envs import GridWorldSpec, tunnel_spec
from aolpomdp.replan import SkipConfig, allowed_observation_sets
from aolpomdp.topology import OPEN, enumerate_keys, key_depth

TOL = 1e-9


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def instances():
    """50 random tiny models, each with three topologies and exact values."""
    gen = np.random.default_rng(404)
    out = []
    for _ in range(50):
        model = random_tiny_model(gen, max_states=4, max_actions=3,
                                  max_observations=3, max_horizon=3)
        belief = ExactBelief(model.initial_belief)
        topologies = [Topology.fully_open(), Topology.fully_closed(),
                      random_topology(model.num_actions,
                                      model.num_observations,
                                      model.horizon, gen)]
        q = [exact_q_star(model, belief, a, model.horizon)
             for a in range(model.num_actions)]
        out.append((model, belief, topologies, q))
    return out


def bounds_for(model, belief, topology):
    lbs = [exact_aol_value(model, belief, a, topology, model.horizon)
           for a in range(model.num_actions)]
    ubs = [exact_afo_value(model, belief, a, topology, model.horizon)
           for a in range(model.num_actions)]
    return lbs, ubs


def test_criterion_01_value_sandwich(instances):
    start = time.perf_counter()
    ok = True
    for model, belief, topologies, q in instances:
        for topo in topologies:
            lbs, ubs = bounds_for(model, belief, topo)
            for a in range(model.num_actions):
                if lbs[a] > q[a] + TOL or q[a] > ubs[a] + TOL:
                    ok = False
    elapsed = time.perf_counter() - start
    report(1, "lower/upper value sandwich on 50 random models",
           ok and elapsed < 60.0, f"{elapsed:.1f}s")


def first_open_key(topology, model):
    for key in enumerate_keys(topology, model.num_actions,
                              model.num_observations, model.horizon - 1):
        if topology.beta(key) == OPEN:
            return key
    return None


def test_criterion_02_refinement_monotonicity(instances):
    ok = True
    for model, belief, topologies, q in instances:
        # fully closed-loop topology collapses both bounds onto the optimum
        lbs, ubs = bounds_for(model, belief, Topology.fully_closed())
        for a in range(model.num_actions):
            if abs(lbs[a] - q[a]) > TOL or abs(ubs[a] - q[a]) > TOL:
                ok = False
        # single-node refinements never loosen either bound
        for topo in topologies:
            key = first_open_key(topo, model)
            if key is None or model.horizon == 1:
                continue
            refined = topo.flip_to_closed(key, model.num_observations)
            before = bounds_for(model, belief, topo)
            after = bounds_for(model, belief, refined)
            for a in range(model.num_actions):
                if after[0][a] < before[0][a] - TOL:
                    ok = False
                if after[1][a] > before[1][a] + TOL:
                    ok = False
    report(2, "refinement monotonicity and closed-loop convergence", ok)


def test_criterion_03_guaranteed_action_optimality(instances):
    evaluator = ExactEvaluator()
    ok = True
    separated = 0
    for model, belief, _, q in instances:
        result = plan_with_guarantees(model, belief, Topology.fully_open(),
                                      model.horizon, evaluator,
                                      max_refinements=128)
        if result.guaranteed:
            separated += 1
            if q[result.action] < max(q) - 1e-12:
                ok = False
    report(3, "separated recommendations are exactly optimal",
           ok and separated > 0, f"{separated}/50 separated")


def test_criterion_04_estimator_error_trend():
    start = time.perf_counter()
    gen = np.random.default_rng(2024)
    base = random_tiny_model(gen, max_states=4, max_actions=3,
                             max_observations=3)
    model = DiscretePomdp(base.transition, base.observation, base.reward,
                          base.initial_belief, 2, base.r_max)
    belief = ExactBelief(model.initial_belief)
    topo = Topology.fully_closed()
    ok = True
    quantiles = {}
    for side, est, exact in (("lb", estimate_lb, exact_aol_value),
                             ("ub", estimate_ub, exact_afo_value)):
        qs = []
        for c in (5, 20, 80):
            errors = []
            for seed in range(50):
                rng = np.random.default_rng((seed, c, 5))
                particles = ParticleBelief.from_exact(belief, c, rng)
                config = SparseConfig(c, c, 2, seed=seed * 31 + c)
                errors.append(max(
                    abs(est(model, particles, a, topo, config)
                        - exact(model, belief, a, topo, 2))
                    for a in range(model.num_actions)))
            qs.append(float(np.quantile(errors, 0.9)))
        quantiles[side] = qs
        if not all(b <= a + TOL for a, b in zip(qs, qs[1:])):
            ok = False
    elapsed = time.perf_counter() - start
    report(4, "estimated-bound error quantile shrinks with budget",
           ok and elapsed < 300.0,
           f"lb={quantiles['lb']} ub={quantiles['ub']} {elapsed:.1f}s")


def test_criterion_05_mcts_convergence():
    ok = True
    details = []
    for inst_seed in (11, 22, 33):
        gen = np.random.default_rng(inst_seed)
        base = random_tiny_model(gen, max_states=4, max_actions=3,
                                 max_observations=3)
        model = DiscretePomdp(base.transition, base.observation, base.reward,
                              base.initial_belief, 2, base.r_max)
        belief = ExactBelief(model.initial_belief)
        q = max(exact_q_star(model, belief, a, 2)
                for a in range(model.num_actions))
        hits = 0
        for seed in range(20):
            config = PomcpConfig(horizon=2, seed=seed, num_simulations=10_000)
            result = AtPomcp(model, config).search(belief)
            if abs(result.value - q) <= 0.05 * model.v_max:
                hits += 1
        details.append(f"{hits}/20")
        if hits < 18:
            ok = False
    report(5, "anytime MCTS root value near the exact optimum", ok,
           " ".join(details))


def enumerate_posteriors(model, belief, actions, observation_sets):
    """(posterior, reached) for every realizable sequence in the given sets."""
    for seq in itertools.product(*[sorted(s) for s in observation_sets]):
        b = belief
        realizable = True
        for j, z in enumerate(seq):
            try:
                b, _ = exact_bayes_update(model, b, actions[j], z)
            except Exception:
                realizable = False
                break
        if realizable:
            yield b


def test_criterion_06_future_bound_sandwich_and_nesting():
    gen = np.random.default_rng(606)
    models = [random_tiny_model(gen, positive_rewards=True)
              for _ in range(20)]
    plan_horizon = 2
    ok = True
    for model in models:
        belief = ExactBelief(model.initial_belief)
        for k in (1, 2):
            topo = Topology(default_mode=OPEN, forced_open_depth=k)
            prefix = [i % model.num_actions for i in range(k)]
            full = [frozenset(range(model.num_observations))] * k
            narrow = allowed_observation_sets(model, belief, prefix, top_m=2)
            for cand in range(model.num_actions):
                wide = future_bounds(model, belief, prefix + [cand], topo,
                                     plan_horizon, full)
                tight = future_bounds(model, belief, prefix + [cand], topo,
                                      plan_horizon, narrow)
                if (tight.lower < wide.lower - TOL
                        or tight.upper > wide.upper + TOL):
                    ok = False
                for pair, sets in ((wide, full), (tight, narrow)):
                    for posterior in enumerate_posteriors(model, belief,
                                                          prefix, sets):
                        q = exact_q_star(model, posterior, cand, plan_horizon)
                        if pair.lower > q + TOL or q > pair.upper + TOL:
                            ok = False
    report(6, "future-step bounds sandwich every realizable posterior", ok)


def skewed_positive_model(rng):
    """Positive rewards with one dominant action and near-flat likelihoods,
    so future-step separation actually occurs."""
    n = int(rng.integers(2, 5))
    na = int(rng.integers(2, 4))
    nz = int(rng.integers(2, 4))
    transition = rng.dirichlet(np.ones(n), size=(na, n))
    observation = 0.9 / nz + 0.1 * rng.dirichlet(np.ones(nz), size=n)
    reward = rng.uniform(0.05, 0.3, size=(n, na))
    reward[:, int(rng.integers(na))] += 0.6
    initial = rng.dirichlet(np.ones(n))
    return DiscretePomdp(transition, observation, reward, initial, 2, 1.0)


def test_criterion_07_certified_skips_are_optimal():
    gen = np.random.default_rng(707)
    models = [skewed_positive_model(gen) for _ in range(20)]
    plan_horizon = 2
    ok = True
    certified = 0
    for model in models:
        belief = ExactBelief(model.initial_belief)
        q0 = [exact_q_star(model, belief, a, plan_horizon)
              for a in range(model.num_actions)]
        first = int(np.argmax(q0))
        topo = Topology(default_mode=OPEN, forced_open_depth=2)
        cert = check_srg(model, belief, first, 2, topo,
                         plan_horizon=plan_horizon, allowed_top_m=2)
        actions = [first]
        for i, step in enumerate(cert.steps, start=1):
            if step.status != "separated":
                break
            certified += 1
            sets = cert.allowed_observation_sets[:i]
            for posterior in enumerate_posteriors(model, belief, actions,
                                                  sets):
                q = [exact_q_star(model, posterior, a, plan_horizon)
                     for a in range(model.num_actions)]
                if q[step.action] < max(q) - TOL:
                    ok = False
            actions.append(step.action)
    report(7, "certified skipped actions are optimal at every allowed "
           "posterior", ok and certified > 0, f"{certified} certified steps")


def pooled_std(a, b):
    return math.sqrt((a ** 2 + b ** 2) / 2.0)


def test_criterion_08_sparse_solver_speedup():
    start = time.perf_counter()
    spec = GridWorldSpec(width=10, height=10, horizon=3)
    config = ExperimentConfig(env_kind="beacon", spec=spec, solver="sparse",
                              num_particles=30, num_observations=12,
                              num_state_branches=1, plan_horizon=3,
                              max_refinements=2, steps=10,
                              seeds=list(range(20)))
    result = run_experiment(config)
    t, b = result.treatment, result.baseline
    diff = abs(t.mean_return - b.mean_return)
    pooled = pooled_std(t.std_return, b.std_return)
    elapsed = time.perf_counter() - start
    ok = (t.speedup > 3.0 and diff <= pooled and elapsed < 900.0
          and not t.errors and not b.errors)
    report(8, "adaptive sparse solver beats the closed-loop baseline runtime",
           ok, f"speedup={t.speedup:.2f}x diff={diff:.2f} pooled={pooled:.2f} "
           f"{elapsed:.0f}s")


def test_criterion_09_mcts_return_under_time_budget():
    spec = GridWorldSpec(width=10, height=10, horizon=3)
    ok = True
    details = []
    for budget in (50.0, 200.0):
        config = ExperimentConfig(env_kind="beacon", spec=spec,
                                  solver="pomcp", plan_horizon=3,
                                  time_budget_ms=budget, ucb_constant=1.0,
                                  pw_k=1000.0, pw_alpha=1.0, steps=5,
                                  seeds=list(range(20)))
        result = run_experiment(config)
        t, b = result.treatment, result.baseline
        held = ">=" if t.mean_return >= b.mean_return else "<"
        details.append(f"{budget:.0f}ms:{t.mean_return:.3f}{held}"
                       f"{b.mean_return:.3f}")
        if t.mean_return < b.mean_return or t.errors or b.errors:
            ok = False
    report(9, "adaptive MCTS matches or beats the baseline per time budget",
           ok, " ".join(details))


def test_criterion_10_skip_replanning_on_tunnel():
    spec = tunnel_spec()
    config = ExperimentConfig(
        env_kind="tunnel", spec=spec, solver="exact", plan_horizon=2,
        max_refinements=4, steps=5, seeds=list(range(50)),
        skip=SkipConfig(enabled=True, max_skip_depth=2, allowed_top_m=4,
                        plan_horizon=2))
    result = run_experiment(config)
    t, b = result.treatment, result.baseline
    diff = abs(t.mean_return - b.mean_return)
    pooled = pooled_std(t.std_return, b.std_return)
    ok = (t.mean_skip_ratio > 0.10 and diff <= pooled
          and not t.errors and not b.errors)
    report(10, "tunnel episodes skip replanning without losing return", ok,
           f"skip_ratio={t.mean_skip_ratio:.2f} diff={diff:.2f} "
           f"pooled={pooled:.2f}")


def test_criterion_11_open_loop_tree_width():
    ok = True
    gen = np.random.default_rng(1111)
    for nz in (2, 8):
        n, na = 3, 3
        transition = gen.dirichlet(np.ones(n), size=(na, n))
        observation = gen.dirichlet(np.ones(nz), size=n)
        reward = gen.uniform(-1.0, 1.0, size=(n, na))
        initial = gen.dirichlet(np.ones(n))
        model = DiscretePomdp(transition, observation, reward, initial, 3, 1.0)
        tree = build_tree(model, ExactBelief(model.initial_belief),
                          Topology.fully_open(), 3, kind="aol")
        counts = tree.depth_counts()
        for d in range(4):
            if counts.get(d, 0) != na ** d:
                ok = False
    report(11, "open-loop tree width is |A|^d regardless of |Z|", ok)
