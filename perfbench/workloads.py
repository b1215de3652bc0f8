"""The three paired workloads: model set-up, planners of both arms, checks.

Each workload pairs an *adaptive* arm (the paper's planner) with a *closed*
arm (the same solver with a fully closed topology and no skipping).  Planners
are built here from the package's public functions, with the seed
derivations of `aolpomdp.bench`, so a seed list replays the acceptance
criteria's episodes.  Library calls go through module attributes
(`sparse.estimate_lb`, not an imported name) so that the traced run can wrap
them.  All budgets are fixed sample or simulation counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from aolpomdp import bounds, core, envs, pomcp, replan, sparse, topology

import reference

ARMS = ("adaptive", "closed")
PLAN_HORIZON = 3
DEPLETION_RETRIES = 3          # as in aolpomdp.bench


@dataclass
class Decision:
    step: int
    belief: object
    action: int
    result: object             # PlanResult, SearchResult or the closed-loop values
    separated: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    spec: envs.GridWorldSpec
    build: Callable            # spec -> DiscretePomdp
    steps: int                 # episode length
    make_planner: Callable     # (model, arm, seed, decisions) -> planner(belief, step)
    skip: Callable             # arm -> replan.SkipConfig
    check: Callable            # (workload, model, episode) -> list of problems


def _no_skip(arm):
    return replan.SkipConfig(enabled=False)


# -- sparse-beacon -------------------------------------------------------------

SPARSE_N, SPARSE_NO, SPARSE_STATE_BRANCHES, SPARSE_REFINEMENTS = 30, 12, 1, 2


def _sparse_planner(model, arm, seed, decisions):
    def planner(belief, step):
        for attempt in range(DEPLETION_RETRIES):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, step, attempt, 11)))
            particles = core.ParticleBelief.from_exact(belief, SPARSE_N, rng)
            config = sparse.SparseConfig(
                SPARSE_N, SPARSE_NO, PLAN_HORIZON,
                int(seed * 65_537 + step * 257 + attempt), SPARSE_STATE_BRANCHES)
            try:
                if arm == "adaptive":
                    result = bounds.plan_with_guarantees(
                        model, particles, topology.Topology.fully_open(),
                        PLAN_HORIZON, sparse.SparsePftEvaluator(config),
                        max_refinements=SPARSE_REFINEMENTS,
                        flips_per_refinement=1)
                    action = result.action
                    separated = result.guaranteed
                else:
                    result = [sparse.estimate_lb(
                        model, particles, a, topology.Topology.fully_closed(),
                        config) for a in range(model.num_actions)]
                    action = int(np.argmax(result))
                    separated = True
            except core.ParticleDepletionError:
                continue
            decisions.append(Decision(step, belief, action, result, separated))
            return action
        raise core.ParticleDepletionError(
            f"particle depletion persisted across {DEPLETION_RETRIES} retries")
    return planner


def _plan_record(decision: Decision):
    result = decision.result
    if isinstance(result, list):
        return decision.action, tuple(result)
    return (decision.action, tuple(result.bound_trace),
            tuple(t.topology_id for t in result.topology_trace))


def _check_sparse(workload, model, episode):
    """Re-run one decision per episode, picked by its seed, and require the
    same action and bit-identical bounds ("same config and seed => same
    estimate")."""
    if not episode.decisions:
        return ["no decision was made"]
    original = episode.decisions[episode.seed % len(episode.decisions)]
    replay = []
    planner = workload.make_planner(model, episode.arm, episode.seed, replay)
    planner(original.belief, original.step)
    if _plan_record(replay[0]) != _plan_record(original):
        return [f"step {original.step}: re-running the decision with its seed "
                f"gave {_plan_record(replay[0])!r}, first run gave "
                f"{_plan_record(original)!r}"]
    return []


# -- pomcp-beacon --------------------------------------------------------------

POMCP_SIMULATIONS, POMCP_PW_K, POMCP_PW_ALPHA, POMCP_UCB = 500, 100.0, 1.0, 1.0


def _pomcp_planner(model, arm, seed, decisions):
    def planner(belief, step):
        config = pomcp.PomcpConfig(
            horizon=PLAN_HORIZON, seed=int(seed * 10_003 + step),
            ucb_constant=POMCP_UCB, pw_k=POMCP_PW_K, pw_alpha=POMCP_PW_ALPHA,
            num_simulations=POMCP_SIMULATIONS, transition_flips=1,
            adapt_topology=arm == "adaptive")
        result = pomcp.AtPomcp(model, config).search(belief)
        decisions.append(Decision(step, belief, result.action, result))
        return result.action
    return planner


def _check_pomcp(workload, model, episode):
    problems = []
    for d in episode.decisions:
        sims = d.result.diagnostics.simulations
        if sims != POMCP_SIMULATIONS:
            problems.append(f"step {d.step}: search ran {sims} simulations, "
                            f"configured {POMCP_SIMULATIONS}")
        if episode.arm == "adaptive" and not d.result.diagnostics.transitions:
            problems.append(f"step {d.step}: adaptive search made no "
                            "topology transition")
    return problems


# -- tunnel-skip ---------------------------------------------------------------

TUNNEL_REFINEMENTS, SKIP_DEPTH, SKIP_TOP_M = 4, 3, 4


def _exact_planner(model, arm, seed, decisions):
    evaluator = bounds.ExactEvaluator()

    def planner(belief, step):
        adaptive = arm == "adaptive"
        start = (topology.Topology.fully_open() if adaptive
                 else topology.Topology.fully_closed())
        result = bounds.plan_with_guarantees(
            model, belief, start, PLAN_HORIZON, evaluator,
            max_refinements=TUNNEL_REFINEMENTS if adaptive else 0,
            flips_per_refinement=1)
        decisions.append(Decision(step, belief, result.action, result,
                                  result.guaranteed))
        return result.action
    return planner


def _tunnel_skip(arm):
    if arm == "closed":
        return _no_skip(arm)
    return replan.SkipConfig(enabled=True, max_skip_depth=SKIP_DEPTH,
                             allowed_top_m=SKIP_TOP_M, plan_horizon=PLAN_HORIZON)


def check_optimal_steps(model, rows, decisions, arm):
    """Against the benchmark's own Q*: every closed-arm decision and every
    separated adaptive decision chose an optimal action at the tracked
    posterior, and every skipped step executed an action optimal at the
    realized posterior, which the reference filter rebuilds from the trace.
    """
    t, z, r = model.transition, model.observation, model.reward
    beliefs = reference.filter_trace(t, z, model.initial_belief,
                                     [(row.action, row.observation)
                                      for row in rows])
    by_step = {d.step: d for d in decisions}
    problems = []
    for row, belief in zip(rows, beliefs):
        if row.skipped:
            what = "skipped step"
        else:
            decision = by_step.get(row.step)
            if decision is None:
                problems.append(f"step {row.step}: planned step has no decision")
                continue
            tracked = decision.belief.probabilities
            if not np.allclose(tracked, belief, rtol=0.0, atol=1e-9):
                problems.append(f"step {row.step}: tracked posterior differs "
                                "from the reference filter")
            if arm == "adaptive" and not decision.separated:
                continue
            what = "decision"
        q = reference.q_star(t, z, r, belief, PLAN_HORIZON)
        if not reference.is_optimal(q, row.action):
            problems.append(f"step {row.step}: {what} took action {row.action} "
                            f"with Q*={q[row.action]!r}, optimum {q.max()!r}")
    return problems


def _check_tunnel(workload, model, episode):
    return check_optimal_steps(model, episode.trace.rows, episode.decisions,
                               episode.arm)


WORKLOADS = {
    w.name: w for w in (
        Workload("sparse-beacon", envs.GridWorldSpec(width=10, height=10,
                                                     horizon=3),
                 envs.build_beacon_pomdp, 10, _sparse_planner, _no_skip,
                 _check_sparse),
        Workload("pomcp-beacon", envs.GridWorldSpec(width=10, height=10,
                                                    horizon=3),
                 envs.build_beacon_pomdp, 5, _pomcp_planner, _no_skip,
                 _check_pomcp),
        Workload("tunnel-skip", envs.tunnel_spec(length=30, start_col=1,
                                                 horizon=3),
                 envs.build_tunnel_pomdp, 30, _exact_planner, _tunnel_skip,
                 _check_tunnel),
    )
}
