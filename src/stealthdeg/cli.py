"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 parse/validation error,
3 numerical error.  Every run is deterministic: montecarlo-alpha and sweep-k
draw only from --seed (default 0, never wall-clock), and no other
subcommand draws at all.

Note for values starting with a dash (negative numbers, ranges like
-3:1:0.02): pass them as --beta=-3:1:0.02.
"""

import argparse
import functools
import sys

import numpy as np

from . import attack_engine, degradation_opt, experiment_harness
from .case_ingest import load_case
from .degradation_opt import _finite
from .errors import SingularityError, StealthdegError, ValidationError
from .experiment_harness import POINT_CAP, fmt17
from .grid_model import build_model, jacobian
from .regime_analysis import classify_ratio, definiteness_conditions
from .stochastics import build_scenario, toeplitz_cov

_NUMERICAL_ERRORS = (SingularityError, np.linalg.LinAlgError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_range(text):
    """Inclusive start:end:step grid, endpoint kept within half a step.

    At most :data:`~stealthdeg.experiment_harness.POINT_CAP` points.
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
    if not points <= POINT_CAP:
        raise ValidationError(f"range {text!r} has {points:g} points, more than {POINT_CAP}")
    return [start + i * step for i in range(int(points))]


def _parse_list(text, kind, what):
    """Comma-separated values of ``kind``; blank cells are skipped, and a
    list with no value left is rejected."""
    try:
        values = [kind(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad {what} list {text!r}") from None
    if not values:
        raise ValidationError(f"empty {what} list {text!r}")
    return values


def parse_float_list(text):
    return _parse_list(text, float, "number")


def parse_int_list(text):
    return _parse_list(text, int, "integer")


def _read_spec(path, l):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    return attack_engine.read_spec_csv(text, l)


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
    model = build_model(load_case(args.case))
    _write_matrix_csv(model.A, f"{args.out_dir}/A.csv")
    _write_matrix_csv(model.b, f"{args.out_dir}/D.csv")
    _write_matrix_csv(jacobian(model.A, model.b), f"{args.out_dir}/H.csv")
    print(f"wrote A.csv ({model.l}x{model.n}), D.csv (1x{model.l}), "
          f"H.csv ({model.m}x{model.n}) to {args.out_dir}")
    return 0


def _cmd_classify(args):
    model = build_model(load_case(args.case))
    if (args.spec is None) == (args.beta is None):
        raise ValidationError("classify needs exactly one of --spec or --beta")
    if args.beta is not None:
        spec = attack_engine.IncompletenessSpec.uniform(model.l, args.beta)
    else:
        spec = _read_spec(args.spec, model.l)
    sigma_xx = toeplitz_cov(model.n, args.rho)
    # A huge finite ratio overflows delta, its symmetric part or the margins;
    # each is checked, so the overflow is a numerical error, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        delta = attack_engine.delta_from_state_cov(
            attack_engine.state_edge_cov(model, sigma_xx), spec.phi)
        sym = _finite((delta + delta.T) / 2.0, "the perturbation delta")
        eigs = _finite(np.linalg.eigvalsh(sym), "an eigenvalue of delta")
        conditions = definiteness_conditions(spec.phi)
    _finite([conditions.lhs_psd, conditions.lhs_nsd], "a sufficient-condition margin")
    print(f"regime = {classify_ratio(spec.phi, eigs).value}")
    print(f"delta_eig_min = {fmt17(eigs[0])}")
    print(f"delta_eig_max = {fmt17(eigs[-1])}")
    print(f"sufficient_psd_lhs = {fmt17(conditions.lhs_psd)} "
          f"(holds: {conditions.cond_psd})")
    print(f"sufficient_nsd_lhs = {fmt17(conditions.lhs_nsd)} "
          f"(holds: {conditions.cond_nsd})")
    return 0


def _cmd_evaluate(args):
    model = build_model(load_case(args.case))
    stats = build_scenario(model, args.rho, args.snr_db)
    spec = _read_spec(args.spec, model.l)
    ev = degradation_opt.ObjectiveEvaluator(model, stats)
    kl, mi = ev.metrics(spec.phi)
    kl_opt, mi_opt = ev.baseline()
    print(f"kl_nats = {fmt17(kl)}")
    print(f"mi_nats = {fmt17(mi)}")
    print(f"kl_opt_nats = {fmt17(kl_opt)}")
    print(f"mi_opt_nats = {fmt17(mi_opt)}")
    return 0


def _cmd_sweep_beta(args):
    model = build_model(load_case(args.case))
    stats = build_scenario(model, args.rho, args.snr_db)
    rows = experiment_harness.beta_sweep(model, stats, parse_range(args.beta))
    return _write_rows(experiment_harness.write_beta_csv, rows, args.out)


def _cmd_montecarlo_alpha(args):
    model = build_model(load_case(args.case))
    stats = build_scenario(model, args.rho, args.snr_db)
    records = experiment_harness.alpha_montecarlo(
        model, stats, parse_float_list(args.alphas), args.trials, args.seed
    )
    return _write_rows(experiment_harness.write_alpha_csv, records, args.out)


def _cmd_sweep_k(args):
    model = build_model(load_case(args.case))
    stats = build_scenario(model, args.rho, args.snr_db)
    records = experiment_harness.k_sweep(
        model, stats, parse_int_list(args.ks), args.trials, args.seed,
        target_alpha=args.alpha,
    )
    return _write_rows(experiment_harness.write_k_csv, records, args.out)


def _run_maximize(args):
    model = build_model(load_case(args.case))
    stats = build_scenario(model, args.rho, args.snr_db)
    spec = _read_spec(args.bounds, model.l)
    ev = degradation_opt.ObjectiveEvaluator(model, stats)
    if args.oracle:
        result, _ = degradation_opt.maximize_with_oracle(ev, spec, refine=args.refine)
    else:
        result = degradation_opt.greedy_maximize(ev, spec, refine=args.refine)
    return ev, spec, result


def _cmd_maximize(args):
    ev, spec, result = _run_maximize(args)
    with open(args.out, "w", newline="\n") as fh:
        fh.write("branch_index,phi_star,choice\n")
        for i in spec.support:
            lo, hi, phi = spec.phi_min[i], spec.phi_max[i], result.phi_star[i]
            choice = "PINNED" if lo == hi else "LOW" if phi == lo else "HIGH"
            fh.write(f"{i + 1},{fmt17(phi)},{choice}\n")
    print(f"objective = {fmt17(result.objective)}")
    print(f"objective_at_zero = {fmt17(2.0 * ev.baseline()[0])}")
    if result.oracle_gap is not None:
        print(f"oracle_gap = {fmt17(result.oracle_gap)}")
    print(f"wrote vertex to {args.out}")
    return 0


def _cmd_mtd_plan(args):
    ev, spec, result = _run_maximize(args)
    chosen = attack_engine.IncompletenessSpec.from_phi(
        result.phi_star, support=spec.support
    )
    admittance = attack_engine.mtd_admittance(ev.model.b, chosen)
    zeroed = chosen.zeroed_indices()
    with open(args.out, "w", newline="\n") as fh:
        fh.write("branch_index,phi,admittance_target,zeroed\n")
        for i in spec.support:
            fh.write(f"{i + 1},{fmt17(result.phi_star[i])},"
                     f"{fmt17(admittance[i])},{int(i in zeroed)}\n")
    # Warned only once the plan is written, so a failed write stays one line.
    if zeroed:
        branches = ",".join(str(i + 1) for i in zeroed)
        print(f"warning: ratio -1 on branch(es) {branches}; "
              "admittance target is 0 there", file=sys.stderr)
    print(f"objective = {fmt17(result.objective)}")
    if result.oracle_gap is not None:
        print(f"oracle_gap = {fmt17(result.oracle_gap)}")
    print(f"wrote admittance plan to {args.out}")
    return 0


def _add_common(sub, scenario=True):
    sub.add_argument("--case", required=True, help="case file path or bundled name")
    if scenario:
        sub.add_argument("--rho", type=float, required=True,
                         help="state-correlation decay in [0, 1)")
        sub.add_argument("--snr-db", type=float, required=True,
                         help="signal-to-noise ratio in dB")


def _add_trial_args(sub):
    sub.add_argument("--trials", type=int, default=200)
    sub.add_argument("--seed", type=int, default=0,
                     help="RNG seed (default 0, never wall-clock)")
    sub.add_argument("--out", required=True)


def _add_maximize_args(sub):
    _add_common(sub)
    sub.add_argument("--bounds", required=True,
                     help="bounds CSV (branch_index,phi_min,phi_max)")
    sub.add_argument("--oracle", action="store_true",
                     help="also run the exhaustive oracle and report the gap")
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
    _add_trial_args(p)
    p.set_defaults(handler=_cmd_montecarlo_alpha)

    p = subs.add_parser("sweep-k", help="random-subset trials per support size")
    _add_common(p)
    p.add_argument("--ks", required=True, help="comma-separated subset sizes")
    p.add_argument("--alpha", type=float, default=1.0)
    _add_trial_args(p)
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
    except (StealthdegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
