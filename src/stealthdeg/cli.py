"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 parse/validation error,
3 numerical error.  Every run is deterministic: randomness comes only from
--seed (default 0, never wall-clock).

Note for values starting with a dash (negative numbers, ranges like
-3:1:0.02): pass them as --beta=-3:1:0.02.
"""

import argparse
import functools
import sys

import numpy as np

from . import attack_engine, degradation_opt, experiment_harness, info_metrics
from .case_ingest import load_case
from .errors import (
    DomainError,
    NotPSDError,
    SingularityError,
    StealthdegError,
    ValidationError,
)
from .experiment_harness import fmt17
from .grid_model import build_model
from .regime_analysis import classify_delta, definiteness_conditions
from .stochastics import build_scenario, toeplitz_cov

_NUMERICAL_ERRORS = (NotPSDError, SingularityError, DomainError,
                     np.linalg.LinAlgError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# Largest number of points ``parse_range`` builds; a longer grid is rejected
# before any point is made.
RANGE_POINT_CAP = 100_000


def parse_range(text):
    """Inclusive start:end:step grid, endpoint kept within half a step.

    At most :data:`RANGE_POINT_CAP` points.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"range must be start:end:step, got {text!r}")
    try:
        start, end, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"non-numeric range component in {text!r}") from None
    if not np.isfinite([start, end, step]).all() or step <= 0 or end < start:
        raise ValidationError(f"need finite end >= start and step > 0 in {text!r}")
    points = np.floor((end - start) / step + 0.5) + 1.0
    if not points <= RANGE_POINT_CAP:
        raise ValidationError(
            f"range {text!r} has {points:g} points, more than {RANGE_POINT_CAP}")
    return [start + i * step for i in range(int(points))]


def parse_float_list(text):
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad number list {text!r}") from None


def parse_int_list(text):
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad integer list {text!r}") from None


def _model_for(args):
    return build_model(load_case(args.case))


def _check_rho(rho):
    if not 0.0 <= rho < 1.0:
        raise ValidationError(f"rho must lie in [0, 1), got {rho}")


def _scenario_for(args, model):
    _check_rho(args.rho)
    if not np.isfinite(args.snr_db):
        raise ValidationError(f"snr-db must be finite, got {args.snr_db}")
    return build_scenario(model, args.rho, args.snr_db)


def _read_spec(path, l):
    with open(path, "r") as fh:
        return attack_engine.read_spec_csv(fh.read(), l)


def _write_rows(writer, rows, path):
    """Write ``rows`` to ``path`` with one of the harness CSV writers."""
    with open(path, "w", newline="\n") as fh:
        writer(rows, fh)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _write_matrix_csv(mat, path):
    mat = np.atleast_2d(mat)
    with open(path, "w", newline="\n") as fh:
        for row in mat:
            fh.write(",".join(fmt17(v) for v in row) + "\n")


def _cmd_dump_model(args):
    model = _model_for(args)
    _write_matrix_csv(model.A, f"{args.out_dir}/A.csv")
    _write_matrix_csv(model.b, f"{args.out_dir}/D.csv")
    _write_matrix_csv(model.H, f"{args.out_dir}/H.csv")
    print(f"wrote A.csv ({model.l}x{model.n}), D.csv (1x{model.l}), "
          f"H.csv ({model.m}x{model.n}) to {args.out_dir}")
    return 0


def _cmd_classify(args):
    model = _model_for(args)
    _check_rho(args.rho)
    if (args.spec is None) == (args.beta is None):
        raise ValidationError("classify needs exactly one of --spec or --beta")
    if args.beta is not None:
        spec = attack_engine.IncompletenessSpec.uniform(model.l, args.beta)
    else:
        spec = _read_spec(args.spec, model.l)
    sigma_xx = toeplitz_cov(model.n, args.rho)
    delta = attack_engine.delta_matrix(model, sigma_xx, spec)
    label = classify_delta(delta)
    eigs = np.linalg.eigvalsh((delta + delta.T) / 2.0)
    conditions = definiteness_conditions(spec.phi)
    print(f"regime = {label.value}")
    print(f"delta_eig_min = {fmt17(eigs[0])}")
    print(f"delta_eig_max = {fmt17(eigs[-1])}")
    print(f"sufficient_psd_lhs = {fmt17(conditions.lhs_psd)} "
          f"(holds: {conditions.cond_psd})")
    print(f"sufficient_nsd_lhs = {fmt17(conditions.lhs_nsd)} "
          f"(holds: {conditions.cond_nsd})")
    return 0


def _cmd_evaluate(args):
    model = _model_for(args)
    stats = _scenario_for(args, model)
    spec = _read_spec(args.spec, model.l)
    point = info_metrics.evaluate(model, stats, spec)
    print(f"kl_nats = {fmt17(point.kl)}")
    print(f"mi_nats = {fmt17(point.mi)}")
    print(f"kl_opt_nats = {fmt17(point.kl_opt)}")
    print(f"mi_opt_nats = {fmt17(point.mi_opt)}")
    return 0


def _cmd_sweep_beta(args):
    model = _model_for(args)
    stats = _scenario_for(args, model)
    rows = experiment_harness.beta_sweep(model, stats, parse_range(args.beta))
    return _write_rows(experiment_harness.write_beta_csv, rows, args.out)


def _cmd_montecarlo_alpha(args):
    model = _model_for(args)
    stats = _scenario_for(args, model)
    records = experiment_harness.alpha_montecarlo(
        model, stats, parse_float_list(args.alphas), args.trials, args.seed
    )
    return _write_rows(experiment_harness.write_alpha_csv, records, args.out)


def _cmd_sweep_k(args):
    model = _model_for(args)
    stats = _scenario_for(args, model)
    records = experiment_harness.k_sweep(
        model, stats, parse_int_list(args.ks), args.trials, args.seed,
        target_alpha=args.alpha,
    )
    return _write_rows(experiment_harness.write_k_csv, records, args.out)


def _run_maximize(args):
    model = _model_for(args)
    stats = _scenario_for(args, model)
    spec = _read_spec(args.bounds, model.l)
    if args.oracle:
        result, _ = degradation_opt.maximize_with_oracle(
            model, stats, spec, cap=args.cap, refine=args.refine
        )
    else:
        result = degradation_opt.greedy_maximize(
            model, stats, spec, refine=args.refine
        )
    return model, spec, result


def _cmd_maximize(args):
    _, spec, result = _run_maximize(args)
    with open(args.out, "w", newline="\n") as fh:
        fh.write("branch_index,phi_star,choice\n")
        for i, flag in zip(spec.support, result.vertex_flags):
            fh.write(f"{i + 1},{fmt17(result.phi_star[i])},{flag.value}\n")
    print(f"objective = {fmt17(result.objective)}")
    print(f"objective_at_zero = {fmt17(result.objective_at_zero)}")
    if result.oracle_gap is not None:
        print(f"oracle_gap = {fmt17(result.oracle_gap)}")
    print(f"wrote vertex to {args.out}")
    return 0


def _cmd_mtd_plan(args):
    model, spec, result = _run_maximize(args)
    chosen = attack_engine.IncompletenessSpec.from_phi(
        result.phi_star, support=spec.support
    )
    plan = attack_engine.mtd_admittance(model.b, chosen)
    if plan.zeroed:
        branches = ",".join(str(i + 1) for i in plan.zeroed)
        print(f"warning: ratio -1 on branch(es) {branches}; "
              "admittance target is 0 there", file=sys.stderr)
    with open(args.out, "w", newline="\n") as fh:
        fh.write("branch_index,phi,admittance_target,zeroed\n")
        for i in spec.support:
            fh.write(f"{i + 1},{fmt17(result.phi_star[i])},"
                     f"{fmt17(plan.admittance[i])},{int(i in plan.zeroed)}\n")
    print(f"objective = {fmt17(result.objective)}")
    print(f"wrote admittance plan to {args.out}")
    return 0


def _add_common(sub, scenario=True):
    sub.add_argument("--case", required=True, help="case file path or bundled name")
    sub.add_argument("--seed", type=int, default=0,
                     help="RNG seed (default 0, never wall-clock)")
    if scenario:
        sub.add_argument("--rho", type=float, required=True,
                         help="state-correlation decay in [0, 1)")
        sub.add_argument("--snr-db", type=float, required=True,
                         help="signal-to-noise ratio in dB")


def _add_maximize_args(sub):
    _add_common(sub)
    sub.add_argument("--bounds", required=True,
                     help="bounds CSV (branch_index,phi_min,phi_max)")
    sub.add_argument("--oracle", action="store_true",
                     help="also run the exhaustive oracle and report the gap")
    sub.add_argument("--cap", type=int, default=degradation_opt.ENUMERATION_CAP)
    sub.add_argument("--refine", action="store_true",
                     help="re-sweep coordinates until stable (extension)")
    sub.add_argument("--out", required=True)


def build_parser():
    parser = _Parser(prog="stealthdeg", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dump-model", help="dump A, D, H as CSV matrices")
    _add_common(p, scenario=False)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_dump_model)

    p = subs.add_parser("classify", help="regime of one incompleteness profile")
    _add_common(p, scenario=False)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--spec", help="spec CSV (branch_index,phi[,phi_min,phi_max])")
    p.add_argument("--beta", type=float, help="uniform ratio instead of a CSV")
    p.set_defaults(handler=_cmd_classify)

    p = subs.add_parser("evaluate", help="KL/MI of one incompleteness profile")
    _add_common(p)
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=_cmd_evaluate)

    p = subs.add_parser("sweep-beta", help="uniform-ratio sweep to CSV")
    _add_common(p)
    p.add_argument("--beta", required=True, help="grid as start:end:step")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_sweep_beta)

    p = subs.add_parser("montecarlo-alpha",
                        help="random-bounds trials per alpha budget")
    _add_common(p)
    p.add_argument("--alphas", required=True, help="comma-separated budgets")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_montecarlo_alpha)

    p = subs.add_parser("sweep-k", help="random-subset trials per support size")
    _add_common(p)
    p.add_argument("--ks", required=True, help="comma-separated subset sizes")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_sweep_k)

    p = subs.add_parser("maximize", help="stealth-degradation maximization")
    _add_maximize_args(p)
    p.set_defaults(handler=_cmd_maximize)

    p = subs.add_parser("mtd-plan",
                        help="maximize, then emit operator admittance targets")
    _add_maximize_args(p)
    p.set_defaults(handler=_cmd_mtd_plan)

    return parser


@functools.cache
def _parser():
    """The argument parser, built once per process and reused by every call."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (StealthdegError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
