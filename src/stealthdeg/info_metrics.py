"""Gaussian stealthiness and destructiveness metrics of ratio-vector attacks.

For a zero-mean attack with covariance T against measurements with
covariance sigma_yy and precision S = sigma_yy^-1,

    kl = 1/2 ( -log|I + S^1/2 T S^1/2| + tr(S^1/2 T S^1/2) )

is the divergence between attacked and clean measurement distributions (the
detectability proxy), and

    mi = 1/2 log|I + U^1/2 (sigma2 I + T)^-1 U^1/2|,   U = H sigma_xx H^T,

is the information the operator still obtains about the states.  Both are
reported in nats.  ``evaluate`` and ``optimal_metrics`` compute them on the
reduced n x n core of :class:`~stealthdeg.degradation_opt.ObjectiveEvaluator`;
no m x m matrix is formed.
"""

from dataclasses import dataclass

from .degradation_opt import ObjectiveEvaluator


@dataclass(frozen=True)
class MetricsPoint:
    """KL divergence and mutual information (nats) plus their optima."""

    kl: float
    mi: float
    kl_opt: float
    mi_opt: float


def optimal_metrics(model, stats):
    """(kl, mi) of the complete-information attack (zero ratio vector),
    from the closed form of the uniform family (see
    :meth:`~stealthdeg.degradation_opt.ObjectiveEvaluator.baseline`)."""
    return ObjectiveEvaluator(model, stats).baseline()


def evaluate(model, stats, spec, *, baseline=None):
    """Metrics of the incomplete-information attack described by ``spec``.

    ``baseline`` is the (kl_opt, mi_opt) pair; pass a precomputed one when
    evaluating many specs against the same scenario.
    """
    ev = ObjectiveEvaluator(model, stats)
    kl, mi = ev.metrics(spec.phi)
    kl_opt, mi_opt = ev.baseline() if baseline is None else baseline
    return MetricsPoint(kl=kl, mi=mi, kl_opt=kl_opt, mi_opt=mi_opt)
