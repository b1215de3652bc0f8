"""Paired benchmark of the adaptive planners against their closed arms.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sparse-beacon --seed 1 --seconds 30 --trace 0

`--trace 0` plays whole rounds for `--seconds` and prints the end-to-end
metrics.  `--trace 1` plays rounds untraced for half of `--seconds`, replays
the same rounds with every layer wrapped, and prints the per-layer metrics
and `trace.overhead`; its spans go to `perfbench/out/`.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The package is imported from `src/` of the same checkout, never from an
installed copy.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "aolpomdp" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    # one experiment worker: no BLAS thread pool next to the SRG thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from workloads import ARMS, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    model = harness.setup_model(workload, [])
    # one untimed decision per arm, so lazy set-up is not timed
    for arm in ARMS:
        workload.make_planner(model, arm, harness.WARMUP_SEED, [])(
            harness.initial_belief(model), 0)

    if args.trace == 0:
        result = harness.run_rounds(workload, args.seed, args.seconds)
        attempted, failed = result.attempted, result.failed
        problems = result.problems
        metrics = harness.end_to_end(result)
        print(harness.summary(result), file=sys.stderr)
    else:
        untraced = harness.run_rounds(workload, args.seed,
                                      args.seconds / 2, min_decisions=0)
        tracer = harness.tracing.Tracer(workload.name)
        tracer.install()
        try:
            traced = harness.run_rounds(workload, args.seed, 0.0, tracer,
                                        rounds=untraced.rounds)
        finally:
            tracer.uninstall()
        for site in tracer.omitted:
            print(f"trace: omitted {site}", file=sys.stderr)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        problems = (untraced.problems + traced.problems
                    + harness.same_actions(untraced, traced))
        metrics = harness.per_layer(tracer, traced, untraced)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"{workload.name}.spans.npz")
        print(harness.summary(traced), file=sys.stderr)
    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
