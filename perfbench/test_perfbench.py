"""The benchmark's own checks: exact, repeatable counters and clean outputs.

Slow (each workload runs twice, traced); run on demand from the repository
root with  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
COUNTERS = (
    "degradation_opt.objective_calls",
    "attack_engine.delta_calls",
    "degradation_opt.greedy_calls",
    "degradation_opt.vertices",
    "degradation_opt.redundant_objective_frac",
    "info_metrics.metrics_calls",
    "regime_analysis.classify_calls",
    "degradation_opt.oracle_gap_max",
)
# One iteration at seed 0: counts fixed by the workload sizes (67,200
# objective calls for the 800 budget trials plus 26,700 for the 50 oracle
# draws), and the worst greedy-vs-exhaustive gap of those draws to four places.
EXPECTED = {
    "mc-alpha-case30-oracle-case9": {"degradation_opt.objective_calls": 67200 + 26700,
                                     "degradation_opt.greedy_calls": 800 + 50,
                                     "degradation_opt.vertices": 25600,
                                     "degradation_opt.oracle_gap_max": 0.3014},
    "sweep-beta-ring200": {"degradation_opt.objective_calls": 0,
                           "info_metrics.metrics_calls": 21},
}


def traced(workload, seed=0):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_counters_repeat_exactly_and_outputs_pass(workload):
    first, second = traced(workload), traced(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    counts = {name: first["metrics"][name]["value"] for name in COUNTERS}
    assert counts == {name: second["metrics"][name]["value"] for name in COUNTERS}
    for name, value in EXPECTED[workload].items():
        assert counts[name] == pytest.approx(value, abs=5e-5), name
