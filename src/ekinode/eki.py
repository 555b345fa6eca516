"""EKI, ensemble Kalman inversion: derivative-free parameter updates driven by
empirical cross-covariances between parameters and forward-map outputs.

The ensemble is a bare ``(J, N)`` member matrix, one parameter vector per
row.  One update rule, :func:`eki_step`, solves ``z = F(theta) + noise``
with a diagonal noise covariance given per output channel.  It moves every
member against its own residual through the parameter/output
cross-covariance.  It and :func:`ensemble_expand` return a new matrix and
never write the one they are given.
System identification is the case ``z = y``, ``F = G`` with the scalar
covariance Gamma.  Optimal control is the energy-regularized problem
``z = (y, 0)``, ``F = (G, H)`` with covariance ``diag(Gamma * I, Gamma' / mu)``:
the energy penalty is one more output channel, F's last, with its own variance.

Updates are deterministic explicit first-order steps in artificial time, one
per epoch, with 1/J covariances reduced in fixed member order: bitwise
reproducible.  The loop's validity and failure rules live here, once, for the
runner's config checks and driver to call: an expansion adds at least one
member, noise variances are positive, an update needs two valid members, a
failed member's outputs are zero and its loss PENALTY_LOSS.
:class:`ekinode.runner._EkiDriver` keeps the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nnet import MlpSpec, mlp_init, param_count

__all__ = [
    "CovarianceSchedule",
    "ForwardMapOutput",
    "ensemble_mean",
    "cross_covariance",
    "eki_step",
    "gamma_at",
    "ensemble_expand",
    "min_loss_member",
    "PENALTY_LOSS",
]

# Finite stand-in loss for members whose forward evaluation failed; keeps
# min/mean reductions well defined without aborting a run.
PENALTY_LOSS = 1e12
# The fewest valid members an update moves: one alone has no spread to move along.
_QUORUM = 2


def _penalize_failed(loss, failed):
    return np.where(failed, PENALTY_LOSS, loss)


def _quorate(count) -> bool:
    return count >= _QUORUM


@dataclass(frozen=True)
class CovarianceSchedule:
    """Exponential decay of the observational covariance scale.

    ``gamma(m) = gamma0 * exp(-alpha * m')`` where m' is the largest multiple
    of ``period`` not exceeding epoch m, so the value is held constant
    between period boundaries.  Disabled, it returns ``gamma0`` always.
    """

    gamma0: float
    alpha: float
    period: int = 2
    enabled: bool = True

    def __post_init__(self):
        for name in ("gamma0", "alpha"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.period < 1:
            raise ValueError("period must be a positive integer")


@dataclass
class ForwardMapOutput:
    """Stacked predictions ``g``, whose last column is sqrt(control energy)
    for regularized problems, and ``failed``, the members whose forward
    evaluation blew up: zero ``g``, frozen by the update, :data:`PENALTY_LOSS`.

    A member matrix gives ``g`` ``(J, d)`` and ``failed`` ``(J,)``, which
    :func:`eki_step` and :func:`cross_covariance` take; one vector runs as a
    one-member ensemble (its result that of any ensemble) and gives ``g``
    ``(d,)`` and a scalar ``failed``, which applies to every member.
    """

    g: np.ndarray
    failed: bool | np.ndarray = False

    def __post_init__(self):
        self.g = np.atleast_1d(np.asarray(self.g, dtype=float))

    @classmethod
    def of_members(cls, theta: np.ndarray, g: np.ndarray, failed: np.ndarray) -> ForwardMapOutput:
        """A forward map's output for ``theta`` from the ``(J, d)`` ``g`` and ``failed`` of its rows."""
        lead = np.shape(theta)[:-1]
        g = np.where(failed[:, None], 0.0, g)
        return cls(g=g.reshape(lead + g.shape[-1:]), failed=failed.reshape(lead))


def ensemble_mean(members: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the ``(J, N)`` members, fixed summation order."""
    if members.shape[0] == 0:
        raise ValueError("empty ensemble")
    return members.mean(axis=0)


def cross_covariance(members: np.ndarray, out: ForwardMapOutput) -> np.ndarray:
    """Empirical parameter/output cross-covariance, 1/J normalized.

    ``(1/J) * sum_j (theta_j - mean) outer (F_j - mean)`` over the stacked
    ``(J, d)`` output of a batched forward map; shape (N, d).  Note 1/J
    exactly, not the unbiased 1/(J-1).
    """
    f = _member_outputs(members, out)
    theta_c = members - members.mean(axis=0)
    return theta_c.T @ (f - f.mean(axis=0)) / members.shape[0]


def eki_step(
    members: np.ndarray,
    out: ForwardMapOutput,
    target: np.ndarray,
    gamma: float | np.ndarray,
    h: float = 1.0,
) -> np.ndarray:
    """One deterministic EKI epoch of the ``(J, N)`` members, as a new matrix.

    ``theta_j <- theta_j - h * C^{thetaF} Sigma^{-1} (F(theta_j) - target)``
    for every member, with ``F`` the stacked output of the batched forward
    map and C^{thetaF} the 1/J cross-covariance of the current ensemble.
    ``gamma`` is the diagonal of Sigma: a scalar for the plain problem, or
    one variance per output channel, e.g. ``(Gamma, ..., Gamma, Gamma'/mu)``
    for the energy-regularized one.  Members flagged as failed are frozen
    and excluded from the covariance statistics for this step; without a
    quorum of valid ones (:func:`_quorate`) nobody moves.
    """
    f = _member_outputs(members, out)
    gamma = np.asarray(gamma, dtype=float)
    _check_variances(gamma, f.shape[1:])
    valid = ~np.broadcast_to(np.asarray(out.failed, dtype=bool), members.shape[:1])
    new_members = members.copy()
    if _quorate(valid.sum()):
        theta = members[valid]
        f = f[valid]
        theta_c = theta - theta.mean(axis=0)
        f_c = f - f.mean(axis=0)
        resid = (f - target) / gamma
        # Delta_j = -(h/J) Theta_c^T (F_c resid_j): a combination of member
        # deviations, so every update stays in the ensemble's affine span.
        new_members[valid] = theta - (h / theta.shape[0]) * (resid @ f_c.T) @ theta_c
    return new_members


def _check_variances(gamma, channels=()) -> None:
    if np.shape(gamma) not in ((), channels):
        raise ValueError("gamma must be a scalar or one variance per output channel")
    for v in np.ravel(gamma):
        if not v > 0:  # NaN fails too
            raise ValueError(f"noise variance {float(v)!r} is not positive")


def _member_outputs(members: np.ndarray, out: ForwardMapOutput) -> np.ndarray:
    if out.g.ndim != 2 or out.g.shape[0] != members.shape[0]:
        raise ValueError("outputs must align with members")
    return out.g


def gamma_at(schedule: CovarianceSchedule, m: int) -> float:
    """Scheduler value at epoch m (held constant between period boundaries)."""
    if m < 0:
        raise ValueError("epoch must be nonnegative")
    if not schedule.enabled:
        return schedule.gamma0
    m_eff = (m // schedule.period) * schedule.period
    return schedule.gamma0 * float(np.exp(-schedule.alpha * m_eff))


def ensemble_expand(members: np.ndarray, count: int, spec: MlpSpec, rng: np.random.Generator) -> np.ndarray:
    """The ``(J, N)`` members with ``count`` independent initializations
    drawn from ``rng`` appended, as a new matrix, enlarging the affine span
    the iteration can search.  A rejected call draws nothing."""
    _check_expansion(count)
    if param_count(spec) != members.shape[1]:
        raise ValueError("spec parameter count does not match ensemble dimension")
    return np.vstack([members, mlp_init(spec, rng, count)])


def _check_expansion(count: int) -> None:
    if count < 1:
        raise ValueError("count must be >= 1")


def min_loss_member(losses) -> tuple[int, float]:
    """Index and value of the smallest loss; ties break to the lowest index."""
    losses = np.asarray(losses, dtype=float)
    if losses.size == 0:
        raise ValueError("empty loss list")
    idx = int(np.argmin(losses))
    return idx, float(losses[idx])
