import logging

import pytest

from aolpomdp import bench
from aolpomdp.bench import (ExperimentConfig, emit_plot_data, run_experiment,
                            run_oracle_suite)
from aolpomdp.cli import main as cli_main
from aolpomdp.envs import GridWorldSpec
from aolpomdp.modelio import parse_config


def small_config(**overrides):
    spec = GridWorldSpec(width=5, height=5, beacons=((2, 2),), obstacles=(),
                         goal=(4, 4), start=(0, 0), horizon=2)
    defaults = dict(env_kind="beacon", spec=spec, solver="sparse",
                    num_particles=8, num_observations=2, plan_horizon=2,
                    max_refinements=1, steps=2, seeds=[0, 1])
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_parse_config_dotted_keys():
    doc = parse_config("solver.kind sparse\nseeds 0,1,2\n# comment\n")
    assert doc["solver.kind"] == "sparse"
    assert doc["seeds"] == "0,1,2"


def test_config_from_document_and_seed_override():
    text = "\n".join([
        "environment.kind beacon", "environment.width 5",
        "environment.height 5", "environment.horizon 2",
        "solver.kind sparse", "solver.N 8", "solver.NO 2",
        "steps 2", "seeds 0,1",
    ])
    config = ExperimentConfig.from_document(text, seed_override=[9])
    assert config.spec.width == 5
    assert config.seeds == [9]
    assert config.num_particles == 8


def test_config_rejects_unknown_key(tmp_path):
    text = "environment.kind beacon\nsolver.NN 8\nseeds 0\n"
    with pytest.raises(ValueError, match="solver.NN"):
        ExperimentConfig.from_document(text)
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(text)
    assert cli_main(["run", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "out")]) == 1


def test_config_logs_clamped_cells_and_dropped_obstacles(caplog):
    text = ("environment.kind beacon\nenvironment.width 5\n"
            "environment.height 6\nenvironment.beacon_x 9\nseeds 0\n")
    with caplog.at_level(logging.WARNING, logger="aolpomdp.bench"):
        config = ExperimentConfig.from_document(text)
    assert (config.spec.beacons, config.spec.goal, config.spec.start,
            config.spec.obstacles) == (((4, 3),), (4, 5), (1, 3), ())
    assert [r.getMessage() for r in caplog.records] == [
        "default obstacles ((2, 3), (2, 4), (9, 3)) dropped: the 5x6 grid "
        "is smaller than 10x10",
        "environment.beacon_x 9 -> 4: outside the 5x6 grid",
        "environment.goal_x 7 -> 4: outside the 5x6 grid",
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="aolpomdp.bench"):
        config = ExperimentConfig.from_document(
            "environment.width 10\nenvironment.height 10\nseeds 0\n")
    assert config.spec.obstacles == ((2, 3), (2, 4), (9, 3))
    assert not caplog.records


def test_config_requires_seeds():
    with pytest.raises(ValueError):
        small_config(seeds=[])


def test_run_experiment_writes_traces_and_summary(tmp_path):
    config = small_config()
    result = run_experiment(config, out_dir=tmp_path)
    assert (tmp_path / "summary.txt").exists()
    for seed in config.seeds:
        assert (tmp_path / f"treatment_seed{seed}.csv").exists()
        assert (tmp_path / f"baseline_seed{seed}.csv").exists()
    assert result.treatment.speedup is not None
    assert len(result.treatment.returns) == 2


def test_failed_seed_is_recorded_and_unpaired(tmp_path, monkeypatch):
    original = bench._run_episode

    def fail_seed_one(model, config, adaptive, seed):
        if adaptive and seed == 1:
            raise RuntimeError("injected")
        return original(model, config, adaptive, seed)

    monkeypatch.setattr(bench, "_run_episode", fail_seed_one)
    result = run_experiment(small_config(), out_dir=tmp_path)
    t, b = result.treatment, result.baseline
    assert t.errors == [(1, "RuntimeError: injected")]
    assert "error seed=1 RuntimeError: injected" in result.summary_text()
    assert t.seeds == b.seeds == [0]
    assert len(t.returns) == len(b.returns) == 1
    assert t.speedup == b.planning_times[0] / t.planning_times[0]


def strip_times(text):
    lines = text.strip().splitlines()
    return [",".join(line.split(",")[:6]) for line in lines]


def test_traces_are_deterministic(tmp_path):
    config = small_config()
    run_experiment(config, out_dir=tmp_path / "a")
    run_experiment(config, out_dir=tmp_path / "b")
    for seed in config.seeds:
        for variant in ("treatment", "baseline"):
            first = (tmp_path / "a" / f"{variant}_seed{seed}.csv").read_text()
            second = (tmp_path / "b" / f"{variant}_seed{seed}.csv").read_text()
            assert strip_times(first) == strip_times(second)


def test_paired_arms_share_environment_stream(tmp_path):
    # with an exact solver and no adaptation difference in outcome ordering,
    # both arms must see identical observation sequences per seed
    config = small_config(solver="exact", max_refinements=0)
    run_experiment(config, out_dir=tmp_path)
    for seed in config.seeds:
        t = (tmp_path / f"treatment_seed{seed}.csv").read_text()
        b = (tmp_path / f"baseline_seed{seed}.csv").read_text()
        t_obs = [line.split(",")[2] for line in t.strip().splitlines()[1:]]
        b_obs = [line.split(",")[2] for line in b.strip().splitlines()[1:]]
        # actions may differ between arms, so just require both consumed the
        # same number of environment steps from the same stream
        assert len(t_obs) == len(b_obs)


def test_single_seed_flags_undefined_std():
    config = small_config(seeds=[0], run_baseline=False, steps=1)
    result = run_experiment(config)
    assert "std_return_flag undefined" in result.summary_text()


def test_oracle_suite_zero_instances_warns():
    report = run_oracle_suite(0, 0)
    assert report.passed
    assert "vacuous" in report.warning


def test_oracle_suite_detects_injected_bug():
    assert run_oracle_suite(3, 5).passed
    assert not run_oracle_suite(3, 5, inject_bug=True).passed


def test_emit_plot_data(tmp_path):
    trace = tmp_path / "run_budget50_seed0.csv"
    trace.write_text("step,action,observation,skipped,reward,cumulative,"
                     "planning_time,srg_time\n"
                     "0,1,2,0,1.5,1.5,0,0\n0,1,2,0,1.0,2.5,0,0\n")
    files = emit_plot_data([trace], tmp_path / "plots")
    cum = files["cumulative"].read_text().strip().splitlines()
    assert cum[0] == "trace,step,cumulative"
    assert len(cum) == 3
    budget = files["budget"].read_text().strip().splitlines()
    assert budget[0] == "budget,mean_return,episodes"
    assert budget[1].startswith("50,2.5,")


def test_emit_plot_data_rejects_malformed(tmp_path):
    trace = tmp_path / "bad.csv"
    trace.write_text("step,cumulative\n0,1.0,extra\n")
    with pytest.raises(ValueError, match="row 2"):
        emit_plot_data([trace], tmp_path / "plots")


def test_cli_oracle_check_exit_codes(capsys):
    assert cli_main(["oracle-check", "--instances", "3", "--seed", "1"]) == 0
    assert cli_main(["oracle-check", "--instances", "3", "--seed", "1",
                     "--inject-bug"]) == 1


def test_cli_run_and_plot_data(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text("\n".join([
        "environment.kind beacon", "environment.width 5",
        "environment.height 5", "environment.horizon 2",
        "solver.kind sparse", "solver.N 8", "solver.NO 2",
        "steps 2", "seeds 0",
    ]) + "\n")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path),
                     "--out-dir", str(out)]) == 0
    assert (out / "summary.txt").exists()
    traces = sorted(str(p) for p in out.glob("*_seed0.csv"))
    assert cli_main(["plot-data", *traces, "--out-dir",
                     str(tmp_path / "plots")]) == 0
    assert (tmp_path / "plots" / "cumulative_reward.csv").exists()


def test_cli_run_missing_config_fails(tmp_path, capsys):
    assert cli_main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
