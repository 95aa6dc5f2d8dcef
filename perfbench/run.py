"""Benchmark of the stealthdeg CLI, timed end to end and per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-beta-ring200 --seed 0 --seconds 55 --trace 0

One process, BLAS pinned to one thread.  Each workload (``workloads.py``)
is run in-process through ``stealthdeg.cli.main`` over and over for
``--seconds`` seconds (at least twice), and every iteration's output is
checked against an independent reference model (``reference.py``).  With
``--trace 1`` one extra iteration runs under the outside-in tracer
(``tracing.py``) and the per-module metrics are reported instead of the
end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Full
results, with the environment they were measured in, go to
``.perfbench_out/results/`` and the spans of a traced run to
``.perfbench_out/traces/``.
"""

import os
import sys

PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_PRELOADED = "numpy" in sys.modules
for _var in PINS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# Set-up is repeated until this much time is spent (at least SETUP_MIN_REPS
# times) and its median is reported.
SETUP_BUDGET_S = 1.0
SETUP_MIN_REPS = 5
MIN_ITERATIONS = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def environment():
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in PINS},
    }


def spread(values):
    """(median, q1, q3); q1 = q3 = median for a single value."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def run_iteration(cli, studies):
    """Run every study's CLI calls once, in order.

    Returns (per-call wall seconds, per-study lists of (exit code, stdout,
    output file text)).
    """
    walls, outputs = [], []
    for study in studies:
        results = []
        for argv, out_path in study.calls():
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:  # a crash fails the call's rows, not the benchmark
                    code = -1
                walls.append(time.perf_counter() - start)
            text = out_path.read_text() if code == 0 and out_path.exists() else ""
            results.append((code, captured.getvalue(), text))
        outputs.append(results)
    return walls, outputs


def measure_setup(studies):
    """Per repetition, each study's set-up time on its own case."""
    reps, spent = [], 0.0
    while len(reps) < SETUP_MIN_REPS or spent < SETUP_BUDGET_S:
        rep = []
        for study in studies:
            start = time.perf_counter()
            study.setup()
            rep.append(time.perf_counter() - start)
        reps.append(rep)
        spent += sum(rep)
    return reps


def oracle_gap_max(studies, outputs):
    gaps = [s.oracle_gap_max(r) for s, r in zip(studies, outputs) if hasattr(s, "oracle_gap_max")]
    return max(gaps, default=0.0)


def per_layer(tracer, gap, traced_wall, untraced_wall):
    agg = tracer.aggregate()

    def calls(*labels):
        return sum(agg.get(label, (0, 0.0, 0.0))[0] for label in labels)

    def total(*labels):
        return sum(agg.get(label, (0, 0.0, 0.0))[1] for label in labels)

    def own(*labels):
        return sum(agg.get(label, (0, 0.0, 0.0))[2] for label in labels)

    def mean(scale, *labels):
        n = calls(*labels)
        return scale * total(*labels) / n if n else 0.0

    objective = "degradation_opt.ObjectiveEvaluator.objective"
    metrics = ("degradation_opt.ObjectiveEvaluator.metrics", "info_metrics.evaluate")
    classify = ("regime_analysis.classify_delta", "regime_analysis.classify_uniform_ratio")
    writers = ("experiment_harness.write_alpha_csv", "experiment_harness.write_beta_csv",
               "experiment_harness.write_k_csv")
    n_objective = calls(objective)
    return {
        "case_ingest.parse_s": (total("case_ingest.parse_case"), "s"),
        "grid_model.build_model_s": (total("grid_model.build_model"), "s"),
        "stochastics.build_scenario_s": (total("stochastics.build_scenario"), "s"),
        "degradation_opt.evaluator_init_s": (total("degradation_opt.ObjectiveEvaluator.__init__"), "s"),
        "degradation_opt.objective_calls": (n_objective, "count"),
        "degradation_opt.objective_us": (mean(1e6, objective), "us"),
        "degradation_opt.objective_self_s": (own(objective), "s"),
        "attack_engine.delta_calls": (calls("attack_engine.delta_from_state_cov"), "count"),
        "attack_engine.delta_us": (mean(1e6, "attack_engine.delta_from_state_cov"), "us"),
        "degradation_opt.greedy_calls": (calls("degradation_opt.greedy_maximize"), "count"),
        "degradation_opt.greedy_self_s": (own("degradation_opt.greedy_maximize"), "s"),
        "degradation_opt.exhaustive_self_s": (own("degradation_opt.exhaustive_maximize"), "s"),
        "degradation_opt.vertices": (tracer.yields["degradation_opt.vertex_profiles"], "count"),
        "degradation_opt.redundant_objective_frac": (
            tracer.redundant_objective / n_objective if n_objective else 0.0, "1"),
        "degradation_opt.oracle_gap_max": (gap, "1"),
        "info_metrics.metrics_calls": (calls(*metrics), "count"),
        "info_metrics.metrics_ms": (mean(1e3, *metrics), "ms"),
        "info_metrics.kl_ms": (mean(1e3, "info_metrics.kl_divergence"), "ms"),
        "info_metrics.mi_ms": (mean(1e3, "info_metrics.mutual_information"), "ms"),
        "regime_analysis.classify_calls": (calls(*classify), "count"),
        "regime_analysis.classify_us": (mean(1e6, *classify), "us"),
        "experiment_harness.sample_bounds_us": (mean(1e6, "experiment_harness.sample_bounds"), "us"),
        "experiment_harness.csv_write_s": (total(*writers), "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "bench.spans": (len(tracer.start), "count"),
        "bench.trace_overhead_frac": (traced_wall / untraced_wall - 1.0, "1"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    pins = {var: os.environ.get(var) for var in PINS}
    if NUMPY_PRELOADED or any(value != "1" for value in pins.values()):
        print(f"refusing to time: BLAS pins must be 1 before NumPy loads, got {pins}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "stealthdeg").is_dir():
        print(f"no stealthdeg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import stealthdeg
    from stealthdeg import cli
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    studies = [cls(args.seed, workdir) for cls in workloads.WORKLOADS[args.workload]]
    facts = {}
    for study in studies:
        facts.update({f"{study.name}.{k}": v for k, v in study.prepare().items()})
    env = environment()

    setup_reps = measure_setup(studies)
    walls, call_walls, outputs = [], [], []
    loop_start = time.perf_counter()
    while True:
        per_call, results = run_iteration(cli, studies)
        walls.append(sum(per_call))
        call_walls.append(per_call)
        outputs.append(results)
        elapsed = time.perf_counter() - loop_start
        if len(walls) >= MIN_ITERATIONS and elapsed + statistics.median(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if args.trace:
        tracer = Tracer(stealthdeg)
        tracer.install()
        try:
            traced_calls, traced_results = run_iteration(cli, studies)
        finally:
            tracer.uninstall()
        outputs.append(traced_results)
        layers = per_layer(tracer, oracle_gap_max(studies, traced_results), sum(traced_calls),
                           statistics.median(walls))
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{tag}.csv")

    attempted = failed = 0
    for results in outputs:
        for study, study_results in zip(studies, results):
            a, f = study.check(study_results)
            attempted += a
            failed += f

    # Items per second leave out the set-up each CLI call repeats.
    cli_setup_s = sum(len(study.calls()) * statistics.median(rep[i] for rep in setup_reps)
                      for i, study in enumerate(studies))
    items = sum(study.items for study in studies)
    samples = {
        "wall_s": walls,
        "setup_s": [sum(rep) for rep in setup_reps],
        "items_per_s": [items / max(w - cli_setup_s, 1e-9) for w in walls],
        "peak_rss_mb": [peak_rss_mb],
    }
    e2e = {name: (spread(values), len(values)) for name, values in samples.items()}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("input " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, ((med, q1, q3), count) in e2e.items():
        iqr = (q3 - q1) / med if med else 0.0
        print(f"{name:12s} median={med:.6g} {END_TO_END_UNITS[name]} "
              f"q1={q1:.6g} q3={q3:.6g} iqr/median={iqr:.4f} runs={count}")
    print(f"failed_frac  {failed / attempted:.6g} ({failed}/{attempted} rows)")
    if any(hasattr(study, "oracle_gap_max") for study in studies):
        print(f"oracle_gap_max {oracle_gap_max(studies, outputs[0]):.6g}")
    if layers:
        for name, (value, unit) in layers.items():
            print(f"  {name} = {value:.6g} {unit}")

    if layers:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": stats[0][0], "unit": END_TO_END_UNITS[name]}
                   for name, stats in e2e.items()}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "environment": env,
            "inputs": facts, "walls_s": walls, "call_walls_s": call_walls,
            "setup_reps_s": setup_reps,
            "end_to_end": {name: {"median": s[0], "q1": s[1], "q3": s[2], "runs": n,
                                  "unit": END_TO_END_UNITS[name]}
                           for name, (s, n) in e2e.items()},
            "failed_frac": failed / attempted,
            **summary,
        }, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
