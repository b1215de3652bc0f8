"""Configuration-driven experiment runner and the oracle property suite.

Experiments pair a baseline solver (topology fixed fully closed-loop) with the
adaptive-topology treatment on matched environment seeds, write one
comma-separated trace per episode plus a summary document, and report paired
speedup and return statistics.  Planner RNG streams are independent of the
environment streams, so the two arms see identical environment randomness.
"""
from __future__ import annotations

import logging
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import ExactEvaluator, plan_with_guarantees
from .core import (DiscretePomdp, ExactBelief, ParticleBelief,
                   ParticleDepletionError)
from .envs import GridEnvironment, GridWorldSpec, build_beacon_pomdp, \
    build_tunnel_pomdp, tunnel_spec
from .modelio import (config_bool, config_float, config_int, config_int_list,
                      parse_config)
from .oracle import exact_bounds, exact_q_star
from .pomcp import AtPomcp, PomcpConfig
from .replan import SkipConfig, execute_with_skipping
from .sparse import SparseConfig, SparsePftEvaluator, estimate_lb
from .topology import Topology, random_topology

logger = logging.getLogger(__name__)

FMT = "{:.9g}"
DEPLETION_RETRIES = 3
CONFIG_KEYS = frozenset(
    [f"environment.{k}" for k in (
        "kind", "compat_obsmodel", "length", "start_col", "reward_offset",
        "horizon", "width", "height", "beacon_x", "beacon_y", "goal_x",
        "goal_y", "start_x", "start_y")]
    + [f"solver.{k}" for k in (
        "kind", "N", "NO", "state_branches", "horizon", "max_refinements",
        "flips", "num_simulations", "time_budget_ms", "ucb", "pw_k",
        "pw_alpha")]
    + [f"skip.{k}" for k in ("enabled", "k", "m", "plan_horizon")]
    + ["baseline.enabled", "steps", "seeds"])


@dataclass
class ExperimentConfig:
    """Flat experiment description parsed from a dotted-key document."""

    env_kind: str = "beacon"
    spec: GridWorldSpec = None
    solver: str = "sparse"            # sparse | pomcp | exact
    num_particles: int = 30
    num_observations: int = 2
    num_state_branches: int = None
    plan_horizon: int = 3
    max_refinements: int = 2
    flips: int = 1
    num_simulations: int = None
    time_budget_ms: float = None
    ucb_constant: float = 1.0
    pw_k: float = 100.0
    pw_alpha: float = 1.0
    run_baseline: bool = True
    skip: SkipConfig = field(default_factory=lambda: SkipConfig(enabled=False))
    steps: int = 10
    seeds: list = field(default_factory=lambda: [0])

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seed list must be non-empty")
        if self.spec is None:
            self.spec = (tunnel_spec() if self.env_kind == "tunnel"
                         else GridWorldSpec())

    @classmethod
    def from_document(cls, text: str, compat_obsmodel: bool = False,
                      seed_override=None) -> "ExperimentConfig":
        doc = parse_config(text)
        unknown = sorted(set(doc) - CONFIG_KEYS)
        if unknown:
            raise ValueError("unknown config key(s): "
                             + ", ".join(repr(k) for k in unknown))
        env_kind = doc.get("environment.kind", "beacon")
        compat = compat_obsmodel or config_bool(doc, "environment.compat_obsmodel")
        if env_kind == "tunnel":
            spec = tunnel_spec(
                length=config_int(doc, "environment.length", 12),
                start_col=config_int(doc, "environment.start_col", 8),
                reward_offset=config_float(doc, "environment.reward_offset", 31.0),
                horizon=config_int(doc, "environment.horizon", 2))
            if compat:
                spec = GridWorldSpec(**{**spec.__dict__, "paper_obs_model": True})
        else:
            width = config_int(doc, "environment.width", 20)
            height = config_int(doc, "environment.height", 20)

            def clamp(name, default, size):
                key = f"environment.{name}"
                value = config_int(doc, key, default)
                if value < size:
                    return value
                logger.warning("%s %d -> %d: outside the %dx%d grid", key,
                               value, size - 1, width, height)
                return size - 1

            obstacles = GridWorldSpec.__dataclass_fields__["obstacles"].default
            if min(width, height) < 10:
                logger.warning("default obstacles %s dropped: the %dx%d grid "
                               "is smaller than 10x10", obstacles, width, height)
                obstacles = ()
            spec = GridWorldSpec(
                width=width, height=height,
                beacons=((clamp("beacon_x", 3, width),
                          clamp("beacon_y", 3, height)),),
                obstacles=obstacles,
                goal=(clamp("goal_x", 7, width), clamp("goal_y", 5, height)),
                start=(clamp("start_x", 1, width),
                       clamp("start_y", 3, height)),
                horizon=config_int(doc, "environment.horizon", 3),
                paper_obs_model=compat)
        skip = SkipConfig(
            enabled=config_bool(doc, "skip.enabled"),
            max_skip_depth=config_int(doc, "skip.k", 2),
            allowed_top_m=config_int(doc, "skip.m", 4),
            plan_horizon=config_int(doc, "skip.plan_horizon", 0) or None)
        seeds = (list(seed_override) if seed_override
                 else config_int_list(doc, "seeds", [0]))
        nsim = config_int(doc, "solver.num_simulations", 0) or None
        budget = config_float(doc, "solver.time_budget_ms", 0.0) or None
        return cls(
            env_kind=env_kind, spec=spec,
            solver=doc.get("solver.kind", "sparse"),
            num_particles=config_int(doc, "solver.N", 30),
            num_observations=config_int(doc, "solver.NO", 2),
            num_state_branches=config_int(doc, "solver.state_branches", 0) or None,
            plan_horizon=config_int(doc, "solver.horizon", spec.horizon),
            max_refinements=config_int(doc, "solver.max_refinements", 2),
            flips=config_int(doc, "solver.flips", 1),
            num_simulations=nsim, time_budget_ms=budget,
            ucb_constant=config_float(doc, "solver.ucb", 1.0),
            pw_k=config_float(doc, "solver.pw_k", 100.0),
            pw_alpha=config_float(doc, "solver.pw_alpha", 1.0),
            run_baseline=config_bool(doc, "baseline.enabled", True),
            skip=skip, steps=config_int(doc, "steps", 10), seeds=seeds)


@dataclass
class RunSummary:
    """Per-seed results of one arm; list i of every field belongs to seeds[i]."""

    variant: str
    seeds: list
    returns: list
    planning_times: list
    skip_ratios: list
    open_fractions: list           # per seed: the open fraction of each decision
    errors: list                   # (seed, message) for each failed seed
    speedup: float = None

    def restricted_to(self, seeds) -> "RunSummary":
        keep = [i for i, seed in enumerate(self.seeds) if seed in seeds]

        def pick(values):
            return [values[i] for i in keep]

        return RunSummary(self.variant, pick(self.seeds), pick(self.returns),
                          pick(self.planning_times), pick(self.skip_ratios),
                          pick(self.open_fractions), self.errors, self.speedup)

    @property
    def mean_return(self) -> float:
        return statistics.fmean(self.returns) if self.returns else float("nan")

    @property
    def std_return(self) -> float:
        if len(self.returns) < 2:
            return float("nan")
        return statistics.stdev(self.returns)

    @property
    def total_planning_time(self) -> float:
        return float(sum(self.planning_times))

    @property
    def mean_skip_ratio(self) -> float:
        return statistics.fmean(self.skip_ratios) if self.skip_ratios else 0.0

    def lines(self) -> list:
        out = [f"variant {self.variant}",
               f"episodes {len(self.returns)}",
               "mean_return " + FMT.format(self.mean_return),
               "std_return " + FMT.format(self.std_return),
               "total_planning_time " + FMT.format(self.total_planning_time),
               "mean_skip_ratio " + FMT.format(self.mean_skip_ratio)]
        fractions = [f for per_seed in self.open_fractions for f in per_seed]
        if fractions:
            out.append("mean_open_fraction "
                       + FMT.format(statistics.fmean(fractions)))
        if self.speedup is not None:
            out.append("speedup " + FMT.format(self.speedup))
        if len(self.returns) < 2:
            out.append("std_return_flag undefined")
        for seed, message in self.errors:
            out.append(f"error seed={seed} {message}")
        return out


@dataclass
class PairedResult:
    treatment: RunSummary
    baseline: RunSummary = None

    def summary_text(self) -> str:
        lines = self.treatment.lines()
        if self.baseline is not None:
            lines += [""] + self.baseline.lines()
        return "\n".join(lines) + "\n"


def _build_model(config: ExperimentConfig) -> DiscretePomdp:
    if config.env_kind == "tunnel":
        return build_tunnel_pomdp(config.spec)
    return build_beacon_pomdp(config.spec)


def _make_planner(model: DiscretePomdp, config: ExperimentConfig,
                  adaptive: bool, seed: int, stats: dict):
    """Returns planner(belief, step) -> action for one episode."""
    horizon = config.plan_horizon
    if config.solver == "exact":
        evaluator = ExactEvaluator()

        def planner(belief, step):
            topo = Topology.fully_open() if adaptive else Topology.fully_closed()
            result = plan_with_guarantees(
                model, belief, topo, horizon, evaluator,
                max_refinements=config.max_refinements if adaptive else 0,
                flips_per_refinement=config.flips)
            return result.action
        return planner

    if config.solver == "pomcp":
        def planner(belief, step):
            pcfg = PomcpConfig(
                horizon=horizon, seed=int(seed * 10_003 + step),
                ucb_constant=config.ucb_constant, pw_k=config.pw_k,
                pw_alpha=config.pw_alpha,
                num_simulations=config.num_simulations,
                time_budget_ms=config.time_budget_ms,
                transition_flips=config.flips, adapt_topology=adaptive)
            solver = AtPomcp(model, pcfg)
            result = solver.search(belief)
            stats.setdefault("open_fractions", []).append(solver.open_fraction())
            return result.action
        return planner

    base = SparseConfig(config.num_particles, config.num_observations,
                        horizon, 0, config.num_state_branches)

    def planner(belief, step):
        for attempt in range(DEPLETION_RETRIES):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, step, attempt, 11)))
            particles = ParticleBelief.from_exact(belief, base.num_particles, rng)
            scfg = SparseConfig(base.num_particles, base.num_observations,
                                horizon, int(seed * 65_537 + step * 257 + attempt),
                                base.num_state_branches)
            try:
                if adaptive:
                    evaluator = SparsePftEvaluator(scfg)
                    result = plan_with_guarantees(
                        model, particles, Topology.fully_open(), horizon,
                        evaluator, max_refinements=config.max_refinements,
                        flips_per_refinement=config.flips)
                    return result.action
                values = [estimate_lb(model, particles, a,
                                      Topology.fully_closed(), scfg)
                          for a in range(model.num_actions)]
                return int(np.argmax(values))
            except ParticleDepletionError:
                continue
        raise ParticleDepletionError(
            f"particle depletion persisted across {DEPLETION_RETRIES} retries")
    return planner


def _trace_text(trace) -> str:
    lines = ["step,action,observation,skipped,reward,cumulative,"
             "planning_time,srg_time"]
    for row in trace.rows:
        lines.append(",".join([
            str(row.step), str(row.action), str(row.observation),
            str(int(row.skipped)), FMT.format(row.reward),
            FMT.format(row.cumulative), FMT.format(row.planning_time),
            FMT.format(row.srg_time)]))
    return "\n".join(lines) + "\n"


def _run_episode(model: DiscretePomdp, config: ExperimentConfig,
                 adaptive: bool, seed: int):
    env_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    env = GridEnvironment(model, config.spec, env_rng, step_limit=config.steps)
    stats = {}
    planner = _make_planner(model, config, adaptive, seed, stats)
    skip = config.skip if adaptive else SkipConfig(enabled=False)
    start = time.perf_counter()
    trace = execute_with_skipping(model, env, planner, skip)
    elapsed = time.perf_counter() - start
    planning = sum(r.planning_time for r in trace.rows)
    return trace, planning, elapsed, stats


def run_variant(model: DiscretePomdp, config: ExperimentConfig, adaptive: bool,
                out_dir: Path = None) -> RunSummary:
    """One arm over the configured seeds, in order; a failed seed is recorded
    with its error and the run continues."""
    variant = "treatment" if adaptive else "baseline"
    summary = RunSummary(variant, [], [], [], [], [], [])
    for seed in config.seeds:
        try:
            trace, plan_time, _, stats = _run_episode(model, config, adaptive,
                                                      seed)
        except Exception as exc:   # recorded, run continues
            summary.errors.append((seed, f"{type(exc).__name__}: {exc}"))
            continue
        summary.seeds.append(seed)
        summary.returns.append(trace.total_reward)
        summary.planning_times.append(plan_time)
        summary.skip_ratios.append(trace.skip_ratio)
        summary.open_fractions.append(stats.get("open_fractions", []))
        if out_dir is not None:
            path = Path(out_dir) / f"{variant}_seed{seed}.csv"
            path.write_text(_trace_text(trace))
    return summary


def run_experiment(config: ExperimentConfig, out_dir=None) -> PairedResult:
    """Paired baseline/treatment run on matched environment seeds.

    Speedup and both arms' statistics cover only the seeds that both arms
    completed."""
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    model = _build_model(config)
    treatment = run_variant(model, config, True, out_dir)
    baseline = None
    if config.run_baseline:
        baseline = run_variant(model, config, False, out_dir)
        paired = set(treatment.seeds) & set(baseline.seeds)
        treatment = treatment.restricted_to(paired)
        baseline = baseline.restricted_to(paired)
        if treatment.total_planning_time > 0.0:
            treatment.speedup = (baseline.total_planning_time
                                 / treatment.total_planning_time)
    result = PairedResult(treatment, baseline)
    if out_dir is not None:
        (out_dir / "summary.txt").write_text(result.summary_text())
    return result


# -- oracle property suite ---------------------------------------------------

def random_tiny_model(rng: np.random.Generator, max_states: int = 4,
                      max_actions: int = 3, max_observations: int = 3,
                      max_horizon: int = 3,
                      positive_rewards: bool = False) -> DiscretePomdp:
    """Random dense tiny POMDP with full-support rows (no zero likelihoods)."""
    n = int(rng.integers(2, max_states + 1))
    na = int(rng.integers(2, max_actions + 1))
    nz = int(rng.integers(2, max_observations + 1))
    horizon = int(rng.integers(1, max_horizon + 1))
    transition = rng.dirichlet(np.ones(n), size=(na, n))
    observation = rng.dirichlet(np.ones(nz), size=n)
    reward = rng.uniform(0.05 if positive_rewards else -1.0, 1.0, size=(n, na))
    initial = rng.dirichlet(np.ones(n))
    return DiscretePomdp(transition, observation, reward, initial, horizon, 1.0)


@dataclass
class OracleReport:
    instances: int
    failures: list = field(default_factory=list)
    warning: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures

    def text(self) -> str:
        lines = [f"instances {self.instances}",
                 f"status {'pass' if self.passed else 'fail'}"]
        if self.warning:
            lines.append(f"warning {self.warning}")
        lines.extend(f"failure {f}" for f in self.failures)
        return "\n".join(lines) + "\n"


def run_oracle_suite(seed: int, instance_count: int,
                     inject_bug: bool = False) -> OracleReport:
    """Sandwich and monotonicity properties on random tiny models.

    `inject_bug` swaps the lower/upper computations to verify the suite
    actually detects violations.
    """
    report = OracleReport(instance_count)
    if instance_count == 0:
        report.warning = "vacuous pass: zero instances requested"
        return report
    rng = np.random.default_rng(seed)
    tol = 1e-9
    for i in range(instance_count):
        model = random_tiny_model(rng)
        belief = ExactBelief(model.initial_belief)
        topologies = [Topology.fully_open(), Topology.fully_closed(),
                      random_topology(model.num_actions, model.num_observations,
                                      model.horizon, rng)]
        for t_idx, topo in enumerate(topologies):
            for a in range(model.num_actions):
                lb, ub = exact_bounds(model, belief, a, topo, model.horizon)
                if inject_bug:
                    lb, ub = ub, lb
                q = exact_q_star(model, belief, a, model.horizon)
                if lb > q + tol or q > ub + tol:
                    report.failures.append(
                        f"instance={i} topology={t_idx} action={a} "
                        f"lb={lb:.9g} q={q:.9g} ub={ub:.9g}")
                if t_idx == 1 and abs(lb - q) > tol:
                    report.failures.append(
                        f"instance={i} closed-loop lb!=q lb={lb:.9g} q={q:.9g}")
    return report


# -- plot data ----------------------------------------------------------------

def emit_plot_data(trace_paths, out_dir) -> dict:
    """Plot-ready tabular files derived from episode traces.

    Writes `cumulative_reward.csv` (one row per episode step) and
    `reward_vs_budget.csv` aggregated by the `budget` column when present in
    the trace file name (``..._budget<ms>_...``).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cumulative_lines = ["trace,step,cumulative"]
    budget_totals = {}
    for path in trace_paths:
        path = Path(path)
        lines = path.read_text().splitlines()
        if not lines:
            raise ValueError(f"{path}: empty trace")
        header = lines[0].split(",")
        try:
            step_col = header.index("step")
            cum_col = header.index("cumulative")
        except ValueError:
            raise ValueError(f"{path}: row 1: missing required columns")
        total = 0.0
        for rowno, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(f"{path}: row {rowno}: malformed row")
            total = float(parts[cum_col])
            cumulative_lines.append(
                f"{path.stem},{parts[step_col]}," + FMT.format(total))
        budget = None
        for token in path.stem.split("_"):
            if token.startswith("budget"):
                budget = token[len("budget"):]
        if budget is not None:
            budget_totals.setdefault(budget, []).append(total)
    files = {}
    cum_path = out_dir / "cumulative_reward.csv"
    cum_path.write_text("\n".join(cumulative_lines) + "\n")
    files["cumulative"] = cum_path
    if budget_totals:
        lines = ["budget,mean_return,episodes"]
        for budget in sorted(budget_totals):
            vals = budget_totals[budget]
            lines.append(f"{budget}," + FMT.format(statistics.fmean(vals))
                         + f",{len(vals)}")
        budget_path = out_dir / "reward_vs_budget.csv"
        budget_path.write_text("\n".join(lines) + "\n")
        files["budget"] = budget_path
    return files
