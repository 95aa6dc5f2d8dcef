"""The benchmark's workloads: inputs from a seed, CLI calls, output checks.

A study is one computation a user runs through the CLI on one case: the
Monte-Carlo budget study, the greedy-vs-exhaustive oracle audit or the
uniform-ratio sweep.  A workload is a sequence of studies run back to back
in each iteration, a closed loop of one caller: the next CLI call starts
when the previous one has returned.  ``calls`` lists a study's argv for one
iteration; ``check`` compares that iteration's results against
``reference`` and returns (rows attempted, rows failed).  A nonzero exit
code fails every row of that call.
"""

import contextlib
import csv
import hashlib
import io
from pathlib import Path

import numpy as np

import reference as ref
from stealthdeg import build_model, build_scenario, load_case, parse_case
from stealthdeg.case_ingest import BranchRecord, GridCase, render_case
from stealthdeg.degradation_opt import ObjectiveEvaluator
from stealthdeg.grid_model import check_connectivity_and_rank

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "src" / "stealthdeg" / "cases"
RHO = 0.5
SNR_DB = 30.0


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def trial_rng(seed, trial):
    """Philox stream keyed by (seed, trial), the program's per-trial law."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


def sample_bounds(seed, trial, k, target):
    """Bound box on k coordinates deformed to gap norm ``target``.

    Mirrors the documented sampling law: uniform pairs in [-1, 1]^2 ordered
    into (low, high), then radially shrunk, or interpolated toward the full
    box when the drawn gap norm is below the target.
    """
    pairs = trial_rng(seed, trial).uniform(-1.0, 1.0, size=(k, 2))
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    gap = hi - lo
    norm = float(np.linalg.norm(gap))
    if target <= norm:
        scale = target / norm if norm > 0.0 else 0.0
        return scale * lo, scale * hi
    grow = 2.0 - gap
    quad, lin = float(grow @ grow), float(gap @ grow)
    t = min(1.0, (-lin + np.sqrt(lin * lin - quad * (norm * norm - target * target))) / quad)
    return (1.0 - t) * lo - t, (1.0 - t) * hi + t


def ring_grid(n_bus, n_branch, seed):
    """Ring 1-2-...-n-1 plus seeded chords and reactances, as a GridCase."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, n_bus], dtype=np.uint64)))
    edges = [(i, i % n_bus + 1) for i in range(1, n_bus + 1)]
    seen = {frozenset(e) for e in edges}
    while len(edges) < n_branch:
        a, b = (int(v) for v in rng.integers(1, n_bus + 1, size=2))
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((a, b))
    xs = rng.uniform(0.02, 0.2, size=n_branch)
    branches = tuple(BranchRecord(a, b, float(x), True) for (a, b), x in zip(edges, xs))
    return GridCase(base_mva=100.0, buses=tuple(range(1, n_bus + 1)),
                    branches=branches, reference_bus=1)


def parse_csv(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return []
    return list(csv.DictReader(io.StringIO(text)))


def printed_values(stdout):
    """The ``key = value`` lines of a CLI call's standard output."""
    return dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)


def count_failed(row_ok, rows):
    """Rows for which ``row_ok(index, row)`` is false or cannot be parsed."""
    failed = 0
    for i, row in enumerate(rows):
        try:
            failed += not row_ok(i, row)
        except (KeyError, TypeError, ValueError):
            failed += 1
    return failed


class Study:
    """Base: one case file, one scenario, a list of CLI calls per iteration."""

    name = None
    items = 0  # trials, draws or sweep points per iteration

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.case_path = None
        self._ref = None

    def prepare(self):
        """Write inputs; return facts recorded with the results."""
        return {"case": str(self.case_path.relative_to(ROOT)), "case_sha256": sha256(self.case_path)}

    def setup(self):
        """load_case -> build_model -> build_scenario -> ObjectiveEvaluator."""
        model = build_model(load_case(str(self.case_path)))
        ObjectiveEvaluator(model, build_scenario(model, RHO, SNR_DB))

    def scenario_args(self):
        return ["--case", str(self.case_path), "--rho", str(RHO), "--snr-db", str(SNR_DB)]

    def reference(self):
        if self._ref is None:
            grid = ref.Grid(self.case_path.read_text())
            self._ref = self.build_reference(ref.Scenario(grid, RHO, SNR_DB))
        return self._ref


class McAlphaCase30(Study):
    name = "mc-alpha-case30"
    alphas = (0.2, 0.5, 1.0, 2.0)
    trials = 200
    items = len(alphas) * trials
    header = "alpha,trial,kl_nats,mi_nats,kl_opt_nats,mi_opt_nats,regime,oracle_gap"

    def prepare(self):
        self.case_path = CASES / "case30.m"
        self.out = self.workdir / "montecarlo.csv"
        return super().prepare()

    def calls(self):
        return [(["montecarlo-alpha", *self.scenario_args(),
                  "--alphas", ",".join(str(a) for a in self.alphas),
                  "--trials", str(self.trials), "--seed", str(self.seed),
                  "--out", str(self.out)], self.out)]

    def build_reference(self, scn):
        l = scn.grid.l
        boxes = [sample_bounds(self.seed, t, l, a) for a in self.alphas for t in range(self.trials)]
        lows = np.array([b[0] for b in boxes])
        highs = np.array([b[1] for b in boxes])
        phi, _ = ref.greedy(scn, lows, highs)
        zero = np.zeros((1, l))
        return {
            "alpha": np.linalg.norm(highs - lows, axis=1),
            "kl": 0.5 * scn.objective(phi),
            "mi": scn.mutual_information(phi),
            "kl_opt": 0.5 * scn.objective(zero)[0],
            "mi_opt": scn.mutual_information(zero)[0],
            "regime": scn.regimes(phi),
        }

    def check(self, results):
        (code, _, text), = results
        rows = parse_csv(text, self.header) if code == 0 else []
        if len(rows) != self.items:
            return self.items, self.items
        r = self.reference()

        def row_ok(i, row):
            return (row["trial"] == str(i % self.trials)
                    and row["regime"] == r["regime"][i]
                    and row["oracle_gap"] == ""
                    and all(ref.close(float(row[col]), expected) for col, expected in (
                        ("alpha", r["alpha"][i]), ("kl_nats", r["kl"][i]),
                        ("mi_nats", r["mi"][i]), ("kl_opt_nats", r["kl_opt"]),
                        ("mi_opt_nats", r["mi_opt"]))))

        return self.items, count_failed(row_ok, rows)


class OracleCase9(Study):
    name = "oracle-case9"
    draws = 50
    items = draws
    alpha = 1.0

    def prepare(self):
        self.case_path = CASES / "case9.m"
        self.l = ref.Grid(self.case_path.read_text()).l
        self.boxes = [sample_bounds(self.seed, t, self.l, self.alpha) for t in range(self.draws)]
        self.bounds = []
        for t, (lo, hi) in enumerate(self.boxes):
            path = self.workdir / f"bounds{t:02d}.csv"
            with open(path, "w", newline="\n") as fh:
                fh.write("branch_index,phi_min,phi_max\n")
                for i in range(self.l):
                    fh.write("%d,%.17g,%.17g\n" % (i + 1, lo[i], hi[i]))
            self.bounds.append(path)
        return super().prepare()

    def calls(self):
        return [(["maximize", *self.scenario_args(), "--bounds", str(path), "--oracle",
                  "--out", str(self.workdir / f"vertex{t:02d}.csv")],
                 self.workdir / f"vertex{t:02d}.csv")
                for t, path in enumerate(self.bounds)]

    def build_reference(self, scn):
        lows = np.array([b[0] for b in self.boxes])
        highs = np.array([b[1] for b in self.boxes])
        phi, high = ref.greedy(scn, lows, highs)
        f_greedy = scn.objective(phi)
        f_best = np.array([ref.exhaustive_best(scn, lo, hi) for lo, hi in self.boxes])
        gap = np.where(f_best <= 0.0, 0.0, 1.0 - f_greedy / np.where(f_best <= 0.0, 1.0, f_best))
        return {"phi": phi, "high": high, "objective": f_greedy, "gap": gap,
                "at_zero": scn.objective(np.zeros((1, self.l)))[0]}

    def _draw_ok(self, t, code, stdout, text):
        if code != 0:
            return False
        r = self.reference()
        printed = printed_values(stdout)
        numbers_ok = (ref.close(float(printed["objective"]), r["objective"][t])
                      and ref.close(float(printed["objective_at_zero"]), r["at_zero"])
                      and ref.close(float(printed["oracle_gap"]), r["gap"][t]))
        rows = parse_csv(text, "branch_index,phi_star,choice")
        expected = [(str(i + 1), r["phi"][t][i], "HIGH" if r["high"][t][i] else "LOW")
                    for i in range(self.l)]
        return numbers_ok and len(rows) == self.l and all(
            row["branch_index"] == b and float(row["phi_star"]) == p and row["choice"] == c
            for row, (b, p, c) in zip(rows, expected))

    def check(self, results):
        return self.draws, count_failed(lambda t, res: self._draw_ok(t, *res), results)

    def oracle_gap_max(self, results):
        """Worst greedy-vs-exhaustive gap the CLI printed (0 if none parsed)."""
        gaps = []
        for _, stdout, _ in results:
            with contextlib.suppress(KeyError, ValueError):
                gaps.append(float(printed_values(stdout)["oracle_gap"]))
        return max(gaps, default=0.0)


class SweepBetaRing200(Study):
    name = "sweep-beta-ring200"
    n_bus, n_branch = 200, 300
    beta = (-3.0, 1.0, 0.2)
    items = 21
    header = "beta,kl_nats,mi_nats,regime"

    def prepare(self):
        case = ring_grid(self.n_bus, self.n_branch, self.seed)
        self.case_path = self.workdir / "ring200.m"
        self.case_path.write_text(render_case(case))
        report = check_connectivity_and_rank(build_model(parse_case(self.case_path.read_text())))
        if not (report.connected and report.full_rank):
            raise RuntimeError(f"synthetic grid is not connected and full rank: {report}")
        facts = super().prepare()
        facts["case"] = f"ring {self.n_bus} buses, {self.n_branch} branches, seed {self.seed}"
        return facts

    def calls(self):
        start, end, step = self.beta
        return [(["sweep-beta", *self.scenario_args(), f"--beta={start:g}:{end:g}:{step:g}",
                  "--out", str(self.workdir / "sweep.csv")], self.workdir / "sweep.csv")]

    def build_reference(self, scn):
        return scn

    def check(self, results):
        (code, _, text), = results
        rows = parse_csv(text, self.header) if code == 0 else []
        if len(rows) != self.items:
            return self.items, self.items
        start, _, step = self.beta

        def row_ok(i, row):
            beta = float(row["beta"])
            (kl,), (mi,) = self.reference().uniform_sweep([beta])
            return (ref.close(beta, start + i * step)
                    and ref.close(float(row["kl_nats"]), kl)
                    and ref.close(float(row["mi_nats"]), mi)
                    and row["regime"] == ref.uniform_regime(beta))

        return self.items, count_failed(row_ok, rows)


# The oracle audit runs as the tail of the budget study rather than as a
# workload of its own: both judge the same optimizer, and its 1.6 s of
# Python-bound calls per iteration, timed alone, spread by up to 0.38
# (IQR/median) across 30 s runs on a shared 2-vCPU host.
WORKLOADS = {
    "mc-alpha-case30-oracle-case9": (McAlphaCase30, OracleCase9),
    "sweep-beta-ring200": (SweepBetaRing200,),
}
