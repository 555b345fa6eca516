"""Unit tests for ensemble Kalman inversion updates and bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from ekinode import eki, nnet

ORACLE_TOL = 1e-12


def outputs_from(values):
    return eki.ForwardMapOutput(g=np.stack(values))


def test_ensemble_mean_identical_members():
    ens = np.array([[1.5, -2.0]] * 4)
    assert np.array_equal(eki.ensemble_mean(ens), np.array([1.5, -2.0]))


def test_ensemble_mean_two_basis_members():
    ens = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(eki.ensemble_mean(ens), np.array([0.5, 0.5]))


def test_ensemble_mean_matches_brute_force():
    rng = np.random.default_rng(0)
    members = rng.normal(size=(3, 5))
    brute = np.zeros(5)
    for row in members:
        brute += row
    brute /= 3.0
    assert np.allclose(eki.ensemble_mean(members), brute, rtol=1e-15, atol=0.0)


def test_ensemble_mean_of_no_members_raises():
    with pytest.raises(ValueError, match="empty ensemble"):
        eki.ensemble_mean(np.empty((0, 3)))


def test_outputs_must_align_with_members():
    # One output row per member, as a batched forward map returns them.
    ens = np.array([[1.0], [2.0]])
    for g in ([[1.0]], [[1.0], [2.0], [3.0]], [1.0, 2.0]):
        out = eki.ForwardMapOutput(g=g)
        with pytest.raises(ValueError, match="align"):
            eki.cross_covariance(ens, out)
        with pytest.raises(ValueError, match="align"):
            eki.eki_step(ens, out, np.zeros(1), 1.0)


def test_cross_covariance_single_member_is_zero():
    ens = np.array([[1.0, 2.0]])
    cov = eki.cross_covariance(ens, outputs_from([[3.0]]))
    assert np.array_equal(cov, np.zeros((2, 1)))


def test_cross_covariance_identical_outputs_is_zero():
    ens = np.array([[1.0], [2.0], [3.0]])
    cov = eki.cross_covariance(ens, outputs_from([[5.0]] * 3))
    assert np.array_equal(cov, np.zeros((1, 1)))


def test_cross_covariance_hand_example():
    # (1/2) * (1*2 + (-1)*(-2)) = 2 with the 1/J normalization.
    ens = np.array([[1.0], [-1.0]])
    cov = eki.cross_covariance(ens, outputs_from([[2.0], [-2.0]]))
    assert cov.shape == (1, 1)
    assert abs(cov[0, 0] - 2.0) < ORACLE_TOL


def test_eki_step_zero_residual_is_identity():
    ens = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([2.0])
    outs = outputs_from([[2.0]] * 3)
    new = eki.eki_step(ens, outs, y, gamma=0.5)
    assert np.array_equal(new, ens)


def test_eki_step_single_member_is_identity():
    # Below the quorum of two valid members nobody moves, also where the one
    # valid member's residual overflows: its zero spread would scale inf to NaN.
    ens = np.array([[1.0, 2.0]])
    for gamma in (1.0, 5e-324):
        new = eki.eki_step(ens, outputs_from([[9.0]]), np.array([0.0]), gamma=gamma)
        assert np.array_equal(new, ens)
    ens = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    outs = outputs_from([[9.0], [0.0], [0.0]])
    outs.failed = np.array([False, True, True])
    new = eki.eki_step(ens, outs, np.array([0.0]), gamma=5e-324)
    assert np.array_equal(new, ens)


@seed(5)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_eki_step_matches_linear_gradient_flow(s):
    # For G(theta) = A theta the update equals theta_j - h C(theta) grad Phi_j
    # with Phi_j = ||y - A theta_j||^2 / (2 gamma).
    rng = np.random.default_rng(s)
    a = rng.normal(size=(2, 2))
    y = rng.normal(size=2)
    members = rng.normal(size=(3, 2))
    gamma, h = 0.7, 0.3
    outs = outputs_from([a @ m for m in members])
    new = eki.eki_step(members, outs, y, gamma=gamma, h=h)

    centered = members - members.mean(axis=0)
    c_theta = centered.T @ centered / 3.0
    for j in range(3):
        grad = a.T @ (a @ members[j] - y) / gamma
        expected = members[j] - h * c_theta @ grad
        assert np.max(np.abs(new[j] - expected)) < ORACLE_TOL


def test_eki_step_freezes_failed_members():
    rng = np.random.default_rng(3)
    members = rng.normal(size=(3, 4))
    outs = outputs_from([rng.normal(size=2) for _ in range(3)])
    outs.failed = np.array([False, True, False])
    y = np.zeros(2)
    new = eki.eki_step(members, outs, y, gamma=1.0, h=0.5)
    assert np.array_equal(new[1], members[1])
    # Valid members update exactly as the two-member sub-ensemble would.
    sub = members[[0, 2]]
    sub_new = eki.eki_step(sub, outputs_from(outs.g[[0, 2]]), y, gamma=1.0, h=0.5)
    assert np.array_equal(new[[0, 2]], sub_new)


def test_regularized_step_scalar_hand_oracle():
    # theta = (1, 3); F = ((2,1), (4,3)); z = (1, 0); Gamma=0.5, Gamma'=0.1,
    # mu=0.02.  B = (1, 1), Sigma^{-1} = diag(2, 0.2), so the per-member
    # residual products are 2.2 and 6.6.
    ens = np.array([[1.0], [3.0]])
    outs = eki.ForwardMapOutput(g=[[2.0, 1.0], [4.0, 3.0]])
    new = eki.eki_step(ens, outs, np.array([1.0, 0.0]), np.array([0.5, 0.1 / 0.02]), h=0.1)
    assert abs(new[0, 0] - 0.78) < ORACLE_TOL
    assert abs(new[1, 0] - 2.34) < ORACLE_TOL


def test_regularized_step_zero_residual_is_identity():
    ens = np.array([[1.0], [2.0]])
    outs = eki.ForwardMapOutput(g=[[3.0, 0.0], [3.0, 0.0]])
    new = eki.eki_step(ens, outs, np.array([3.0, 0.0]), np.array([1.0, 1.0 / 0.5]))
    assert np.array_equal(new, ens)


def test_regularized_step_reduces_to_plain_step():
    # Identical energy values carry zero deviation, so that channel cannot
    # move members no matter how mu is set.
    rng = np.random.default_rng(11)
    members = rng.normal(size=(4, 3))
    gs = [rng.normal(size=2) for _ in range(4)]
    y = rng.normal(size=2)
    reg_outs = eki.ForwardMapOutput(g=np.column_stack([np.stack(gs), np.full(4, 0.75)]))
    variances = np.array([0.4, 0.4, 0.01 / 123.0])
    reg = eki.eki_step(members, reg_outs, np.concatenate([y, [0.0]]), variances, h=0.2)
    plain = eki.eki_step(members, outputs_from(gs), y, gamma=0.4, h=0.2)
    assert np.allclose(reg, plain, atol=1e-14)


def test_eki_step_rejects_mismatched_gamma_length():
    # Two variances but no energy channel: one output column per member.
    ens = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError):
        eki.eki_step(ens, outputs_from([[1.0], [2.0]]), np.array([0.0, 0.0]), np.ones(2))


def test_gamma_at_schedule_values():
    sched = eki.CovarianceSchedule(gamma0=0.9, alpha=0.35, period=2)
    assert eki.gamma_at(sched, 0) == 0.9
    assert abs(eki.gamma_at(sched, 2) - 0.9 * np.exp(-0.7)) < ORACLE_TOL
    assert abs(eki.gamma_at(sched, 2) - 0.4469) < 1e-4
    # Held constant between period boundaries.
    assert eki.gamma_at(sched, 1) == eki.gamma_at(sched, 0)
    assert eki.gamma_at(sched, 3) == eki.gamma_at(sched, 2)


def test_gamma_at_disabled_schedule():
    sched = eki.CovarianceSchedule(gamma0=2.0, alpha=0.4, enabled=False)
    for m in (0, 1, 7, 100):
        assert eki.gamma_at(sched, m) == 2.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        eki.CovarianceSchedule(gamma0=0.0, alpha=0.35)
    with pytest.raises(ValueError):
        eki.CovarianceSchedule(gamma0=0.9, alpha=-1.0)
    # alpha = 0 would hold gamma0 for good: the boundary is rejected too.
    with pytest.raises(ValueError, match="alpha must be positive"):
        eki.CovarianceSchedule(gamma0=0.9, alpha=0.0)
    with pytest.raises(ValueError):
        eki.CovarianceSchedule(gamma0=0.9, alpha=0.35, period=0)
    with pytest.raises(ValueError, match="nonnegative"):
        eki.gamma_at(eki.CovarianceSchedule(gamma0=0.9, alpha=0.35), -1)


def test_eki_step_rejects_nonpositive_gamma():
    ens = np.array([[1.0], [2.0]])
    outs = eki.ForwardMapOutput(g=[[1.0, 0.5], [2.0, 1.5]])
    z = np.array([0.0, 0.0])
    for gamma in (0.0, -1.0, np.nan, [0.0, 1.0], [1.0, 0.0], [1.0, -2.0]):
        with pytest.raises(ValueError):
            eki.eki_step(ens, outs, z, gamma)


def test_ensemble_expand_counts_and_determinism():
    spec = nnet.MlpSpec((1, 5, 5, 5, 1), "elu")
    members = np.zeros((2, nnet.param_count(spec)))
    # Equal generators give bitwise equal draws.
    a = eki.ensemble_expand(members, 20, spec, np.random.default_rng(9))
    b = eki.ensemble_expand(members, 20, spec, np.random.default_rng(9))
    assert a.shape == (22, members.shape[1])
    assert np.array_equal(a[:2], members)
    assert np.array_equal(a, b)


def test_ensemble_expand_mean_recomputed_over_all_members():
    spec = nnet.MlpSpec((2, 3, 2), "tanh")
    rng = np.random.default_rng(4)
    members = rng.normal(size=(3, nnet.param_count(spec)))
    grown = eki.ensemble_expand(members, 2, spec, rng)
    brute = np.zeros(grown.shape[1])
    for row in grown:
        brute += row
    brute /= grown.shape[0]
    assert np.allclose(eki.ensemble_mean(grown), brute, rtol=1e-15, atol=0.0)


def test_member_matrix_api_never_writes_its_input():
    # The update, with a quorum of valid members and without, and the
    # expansion each return a new matrix: a read-only one is taken as it is
    # and keeps its bits.
    spec = nnet.MlpSpec((2, 3, 2), "tanh")
    rng = np.random.default_rng(14)
    members = rng.normal(size=(3, nnet.param_count(spec)))
    members.setflags(write=False)
    before = members.tobytes()
    outs = outputs_from([rng.normal(size=2) for _ in range(3)])
    for failed, moved in (([False, True, False], True), ([True, True, False], False)):
        outs.failed = np.array(failed)
        new = eki.eki_step(members, outs, np.zeros(2), gamma=0.5)
        assert not np.shares_memory(new, members)
        assert np.array_equal(new, members) != moved
    grown = eki.ensemble_expand(members, 2, spec, rng)
    assert not np.shares_memory(grown, members) and grown.shape == (5, members.shape[1])
    assert members.tobytes() == before


@pytest.mark.parametrize("count, layer_sizes, message", [
    (0, (2, 3, 2), "count"),
    (1, (2, 4, 2), "parameter count"),
], ids=["no-members", "wrong-spec"])
def test_ensemble_expand_rejects_before_drawing(count, layer_sizes, message):
    # A rejected call leaves the generator where it was.
    rng = np.random.default_rng(3)
    members = np.zeros((2, nnet.param_count(nnet.MlpSpec((2, 3, 2)))))
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        eki.ensemble_expand(members, count, nnet.MlpSpec(layer_sizes), rng)
    assert rng.bit_generator.state == state


def test_min_loss_member_examples():
    assert eki.min_loss_member([3.0, 1.0, 2.0]) == (1, 1.0)
    assert eki.min_loss_member([4.5]) == (0, 4.5)
    assert eki.min_loss_member([1.0, 1.0]) == (0, 1.0)
    with pytest.raises(ValueError):
        eki.min_loss_member([])


@seed(6)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_update_stays_in_ensemble_span(s):
    # Each increment must be a combination of member deviations.
    rng = np.random.default_rng(s)
    members = rng.normal(size=(4, 6))
    outs = outputs_from([np.tanh(m[:2]) * m[2] for m in members])
    new = eki.eki_step(members, outs, rng.normal(size=2), gamma=0.5, h=0.7)
    basis = (members - members.mean(axis=0)).T  # (6, 4)
    for j in range(4):
        delta = new[j] - members[j]
        norm = np.linalg.norm(delta)
        if norm == 0.0:
            continue
        coeffs, *_ = np.linalg.lstsq(basis, delta, rcond=None)
        resid = np.linalg.norm(basis @ coeffs - delta)
        assert resid <= 1e-10 * norm


def test_mean_field_identity():
    # Linearity of the step: updating the mean equals the mean of updates.
    rng = np.random.default_rng(21)
    members = rng.normal(size=(5, 3))
    gs = [rng.normal(size=2) for _ in range(5)]
    y = rng.normal(size=2)
    gamma, h = 0.9, 0.4
    new = eki.eki_step(members, outputs_from(gs), y, gamma=gamma, h=h)

    centered = members - members.mean(axis=0)
    g_arr = np.stack(gs)
    g_centered = g_arr - g_arr.mean(axis=0)
    c_tg = centered.T @ g_centered / 5.0
    mean_update = members.mean(axis=0) - h * c_tg @ (g_arr.mean(axis=0) - y) / gamma
    assert np.max(np.abs(new.mean(axis=0) - mean_update)) < 1e-14


def test_permutation_equivariance():
    rng = np.random.default_rng(8)
    members = rng.normal(size=(5, 4))
    gs = [rng.normal(size=3) for _ in range(5)]
    losses = [float(np.sum(g ** 2)) for g in gs]
    y = rng.normal(size=3)
    perm = np.array([3, 0, 4, 1, 2])

    new = eki.eki_step(members, outputs_from(gs), y, gamma=0.6, h=0.5)
    new_perm = eki.eki_step(
        members[perm], outputs_from([gs[p] for p in perm]), y, gamma=0.6, h=0.5
    )
    assert np.allclose(new_perm, new[perm], atol=1e-13)
    _, best = eki.min_loss_member(losses)
    _, best_perm = eki.min_loss_member([losses[p] for p in perm])
    assert best == best_perm


def test_linear_consistency_mean_loss_non_increasing():
    # J > N with small h: the ensemble mean's loss decreases monotonically.
    rng = np.random.default_rng(12)
    a = np.diag([1.0, 2.0]) + 0.1 * rng.normal(size=(2, 2))
    y = rng.normal(size=2)
    ens = rng.normal(size=(5, 2))

    def phi(theta):
        return 0.5 * float(np.sum((a @ theta - y) ** 2))

    losses = [phi(eki.ensemble_mean(ens))]
    for _ in range(50):
        outs = outputs_from([a @ m for m in ens])
        ens = eki.eki_step(ens, outs, y, gamma=1.0, h=0.05)
        losses.append(phi(eki.ensemble_mean(ens)))
    assert all(b <= a_ + 1e-12 for a_, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]
