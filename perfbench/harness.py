"""Episode loop, timing and the metrics of one benchmark run.

One operation is one episode of one arm.  A round plays both arms on the same
environment seed; rounds alternate which arm goes first.  Everything runs in
the main thread, apart from the SRG worker thread that
`replan.execute_with_skipping` starts itself.  Every model build and every
episode is timed next to a machine-speed probe (`speed.py`), and the
end-to-end metrics are scaled to the probe's nominal speed.
"""
from __future__ import annotations

import math
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from aolpomdp import core, envs, replan

import speed
import tracer as tracing
from workloads import ARMS

MIN_ROUNDS = 2          # the paired return check needs two seeds per arm
MIN_DECISIONS = 100     # so that ten samples lie beyond the p90
WARMUP_SEED = 999_999   # outside the seeds of any run
HARD_LIMIT_S = 140.0    # stop starting rounds after this, whatever else holds


@dataclass
class Episode:
    arm: str
    seed: int
    trace: object = None                  # replan.EpisodeTrace
    decisions: list = field(default_factory=list)
    latencies_ns: list = field(default_factory=list)
    wall_ns: int = 0
    scale: float = 1.0                    # speed.SpeedProbe.scale() around it
    problems: list = field(default_factory=list)


class StepLimitedEnv:
    """Ends an episode after a fixed number of environment steps."""

    def __init__(self, env, steps: int, on_step=None):
        self.env = env
        self.steps = steps
        self.taken = 0
        self.on_step = on_step

    def step(self, action):
        if self.on_step is not None:
            self.on_step(self.taken)
        observation, reward, done = self.env.step(action)
        self.taken += 1
        return observation, reward, done or self.taken >= self.steps


def join_worker_threads(timeout_s: float = 60.0) -> None:
    """Wait for threads the program left running.

    `execute_with_skipping` shuts its pool down without waiting, so an SRG
    check started at the last step can still be computing when the episode
    returns.  It must not overlap the next timed episode.
    """
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout_s)
            if thread.is_alive():
                raise RuntimeError(f"thread {thread.name} did not end")


def setup_model(workload, times: list):
    """Build the workload's model, appending the seconds it took to `times`."""
    t0 = time.perf_counter_ns()
    model = workload.build(workload.spec)
    times.append((time.perf_counter_ns() - t0) / 1e9)
    return model


def initial_belief(model):
    return core.ExactBelief(model.initial_belief)


def run_episode(workload, model, arm: str, seed: int, tracer=None) -> Episode:
    episode = Episode(arm, seed)
    planner = workload.make_planner(model, arm, seed, episode.decisions)
    latencies = episode.latencies_ns

    def timed_planner(belief, step):
        if threading.active_count() > 2:
            episode.problems.append(
                f"step {step}: {threading.active_count()} threads running, "
                "more than the main thread and one SRG worker")
        if tracer is not None:
            tracer.set_context(arm, seed, step, belief)
            span = tracer.open("bench.decision")
        t0 = time.perf_counter_ns()
        action = planner(belief, step)
        latencies.append(time.perf_counter_ns() - t0)
        if tracer is not None:
            tracer.close(span)
        return action

    on_step = None
    if tracer is not None:
        tracer.set_context(arm, seed, 0)
        on_step = lambda step: tracer.set_context(arm, seed, step)
        span = tracer.open("bench.episode")
    env = StepLimitedEnv(
        envs.GridEnvironment(model, workload.spec, np.random.default_rng(
            np.random.SeedSequence((seed, 0)))),
        workload.steps, on_step)
    skip = workload.skip(arm)
    t0 = time.perf_counter_ns()
    try:
        episode.trace = replan.execute_with_skipping(model, env, timed_planner,
                                                     skip)
    finally:
        episode.wall_ns = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.close(span)
        join_worker_threads()
    return episode


@dataclass
class RunResult:
    episodes: dict               # arm -> episodes that passed their checks
    rounds: int
    setup_s: list = field(default_factory=list)     # one model build per round, scaled
    probe_ns: list = field(default_factory=list)    # every speed probe of the run
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)   # run-level check misses


def run_rounds(workload, run_seed: int, seconds: float, tracer=None,
               rounds: int = None, min_decisions: int = MIN_DECISIONS) -> RunResult:
    """Play whole rounds until `seconds` have passed and every arm has made
    `min_decisions` decisions, or exactly `rounds` rounds when given.

    Each round builds the model afresh, so set-up is measured once per round,
    spread over the run like every other metric.  A speed probe follows every
    model build and every episode, before its checks."""
    result = RunResult({arm: [] for arm in ARMS}, 0)
    probe = speed.SpeedProbe()
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if rounds is not None:
            if result.rounds >= rounds:
                break
        elif result.rounds >= MIN_ROUNDS and (
                elapsed >= HARD_LIMIT_S
                or (elapsed >= seconds and all(
                    sum(len(e.latencies_ns) for e in result.episodes[arm])
                    >= min_decisions for arm in ARMS))):
            break
        seed = run_seed * 1000 + result.rounds
        model = setup_model(workload, result.setup_s)
        result.setup_s[-1] *= probe.scale()
        order = ARMS if result.rounds % 2 == 0 else ARMS[::-1]
        for arm in order:
            result.attempted += 1
            try:
                episode = run_episode(workload, model, arm, seed, tracer)
                episode.scale = probe.scale()
                if tracer is not None:   # keep the checks' calls out of the arms
                    tracer.set_context("check", seed, 0)
                episode.problems += workload.check(workload, model, episode)
            except Exception:          # one failed operation; the run goes on
                episode = Episode(arm, seed,
                                  problems=[traceback.format_exc()])
            if episode.problems:
                result.failed += 1
                for problem in episode.problems:
                    print(f"{workload.name} {arm} seed {seed}: {problem}",
                          file=sys.stderr)
            else:
                result.episodes[arm].append(episode)
        result.rounds += 1
    result.probe_ns = probe.samples
    result.problems = paired_checks(workload, result.episodes)
    return result


def same_actions(untraced: RunResult, traced: RunResult) -> list:
    """Tracing must not change what the program does."""
    problems = []
    for arm in ARMS:
        before = {e.seed: [(r.action, r.observation) for r in e.trace.rows]
                  for e in untraced.episodes[arm]}
        for e in traced.episodes[arm]:
            if before.get(e.seed) != [(r.action, r.observation)
                                      for r in e.trace.rows]:
                problems.append(f"{arm} seed {e.seed}: the traced episode "
                                "differs from the untraced one")
    return problems


def returns_by_seed(episodes) -> dict:
    return {e.seed: e.trace.total_reward for e in episodes}


def pooled_std(a: list, b: list) -> float:
    return math.sqrt((statistics.stdev(a) ** 2 + statistics.stdev(b) ** 2) / 2)


def paired_checks(workload, episodes: dict) -> list:
    """Non-inferiority over the seeds both arms completed, as in the
    acceptance criteria: |mean return difference| <= pooled std."""
    adaptive = returns_by_seed(episodes["adaptive"])
    closed = returns_by_seed(episodes["closed"])
    seeds = sorted(adaptive.keys() & closed.keys())
    if len(seeds) < MIN_ROUNDS:
        return [f"only {len(seeds)} seeds completed by both arms"]
    a = [adaptive[s] for s in seeds]
    c = [closed[s] for s in seeds]
    problems = []
    diff = abs(statistics.fmean(a) - statistics.fmean(c))
    if diff > pooled_std(a, c):
        problems.append(f"paired return difference {diff:.6g} exceeds the "
                        f"pooled std {pooled_std(a, c):.6g}")
    if workload.skip("adaptive").enabled and not any(
            row.skipped for e in episodes["adaptive"] for row in e.trace.rows):
        problems.append("the adaptive arm skipped no step")
    return problems


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def scaled_wall_s(episodes) -> float:
    return sum(e.wall_ns * e.scale for e in episodes) / 1e9


def end_to_end(result: RunResult) -> dict:
    """The seven end-to-end metrics, at the probe's nominal speed; an arm
    with no passing episode has none."""
    metrics = {"setup_s": (statistics.median(result.setup_s), "s")}
    for arm in ARMS:
        episodes = result.episodes[arm]
        if not episodes:
            continue
        latencies = [ns * e.scale / 1e6 for e in episodes
                     for ns in e.latencies_ns]
        steps = sum(len(e.trace.rows) for e in episodes)
        wall = scaled_wall_s(episodes)
        metrics[f"{arm}.decision_ms.p50"] = (percentile(latencies, 0.5), "ms")
        metrics[f"{arm}.decision_ms.p90"] = (percentile(latencies, 0.9), "ms")
        metrics[f"{arm}.steps_per_s"] = (steps / wall, "steps/s")
    return metrics


def summary(result: RunResult) -> str:
    """Figures that are not metrics: decisions, skips, returns, paired ratios,
    and the probe's median against its nominal time."""
    parts = [f"rounds={result.rounds}", "probe_ms: median={:.4g} nominal={:.4g}"
             .format(statistics.median(result.probe_ns) / 1e6,
                     speed.NOMINAL_NS / 1e6)]
    for arm in ARMS:
        episodes = result.episodes[arm]
        returns = [e.trace.total_reward for e in episodes]
        decisions = sum(len(e.latencies_ns) for e in episodes)
        skipped = sum(r.skipped for e in episodes for r in e.trace.rows)
        parts.append(f"{arm}: decisions={decisions} skipped={skipped} "
                     f"return_sum={math.fsum(returns):.9g} episodes={len(returns)}")
    metrics = end_to_end(result)
    if all(f"{arm}.steps_per_s" in metrics for arm in ARMS):
        parts.append("speedup: p50={:.4g} p90={:.4g} steps_per_s={:.4g}".format(
            metrics["closed.decision_ms.p50"][0]
            / metrics["adaptive.decision_ms.p50"][0],
            metrics["closed.decision_ms.p90"][0]
            / metrics["adaptive.decision_ms.p90"][0],
            metrics["adaptive.steps_per_s"][0]
            / metrics["closed.steps_per_s"][0]))
    return " ".join(parts)


def per_layer(tracer: tracing.Tracer, traced: RunResult,
              untraced: RunResult) -> dict:
    """Per-layer metrics of the traced rounds, per arm, plus trace.overhead."""
    dropped = {m for name in tracer.missing
               for m in tracing.DEPENDS.get(name, ())}
    ratio = lambda a, b: a / b if b else 0.0
    metrics = {}
    for arm in ARMS:
        v = {name: 0 for name, _, _ in tracing.ARM_METRICS}
        v.update(tracer.totals(arm))
        rows = [r for e in traced.episodes[arm] for r in e.trace.rows]
        v["replan.srg_wait.us"] = sum(r.srg_time for r in rows) * 1e6
        v["replan.skipped_steps"] = sum(r.skipped for r in rows)
        v["replan.certificate_use_ratio"] = ratio(v["replan.skipped_steps"],
                                                  v["replan.certified_steps"])
        v["bounds.separated_ratio"] = ratio(v["bounds.separated"],
                                            v["bounds.plan.calls"])
        v["sparse.cache_hit_ratio"] = ratio(v["sparse.cache_hits"],
                                            v.get("sparse.cache_lookups", 0))
        v["pomcp.us_per_sim"] = ratio(v["pomcp.search.us"], v["pomcp.sims"])
        v["bench.self.us"] = (v["bench.episode.us"] - v["bench.decision.us"]
                              - v["replan.srg_wait.us"] - v["envs.step.us"])
        for name, unit, _ in tracing.ARM_METRICS:
            if name not in dropped:
                metrics[f"{arm}.{name}"] = (v[name], unit)
    wall = lambda r: sum(scaled_wall_s(r.episodes[arm]) for arm in ARMS)
    metrics["trace.overhead"] = (wall(traced) / wall(untraced), "ratio")
    return metrics
