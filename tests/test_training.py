"""Optimizer plumbing: packing, gradients, traces, determinism.

The single-block stochastic run is replayed against a hand-rolled
Adam loop written out below with its own bias-correction arithmetic,
so the block-cycling path has an independent full-batch oracle.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockgp.bounds_pep import PepConfig, tpep_qu_gradient, tpep_stochastic
from blockgp.bounds_vi import (
    btsgpr_collapsed,
    exact_lml,
    sgpr_collapsed,
    spherical_collapsed,
    tsgpr_collapsed,
    uncollapsed_qu_gradient,
    vi_stochastic,
)
from blockgp.linalg import NotPositiveDefiniteError, chol
from blockgp.kernels import kernel_matrix
from blockgp.model import BoundSpec, GaussianQU, make_partition
from blockgp.training import (
    Diverged,
    EvaluationFailed,
    ParameterPack,
    TrainConfig,
    evaluate_bound,
    finite_difference_gradient,
    fit_collapsed,
    fit_stochastic,
    maximize_adam,
    maximize_lbfgs,
)
from blockgp.verify import random_blocks, random_qu, small_instance


def test_train_config_validation():
    spec = BoundSpec(method="SGPR")
    TrainConfig(objective=spec)
    with pytest.raises(ValueError):
        TrainConfig(objective=spec, optimizer="sgd")
    with pytest.raises(ValueError):
        TrainConfig(objective=spec, learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(objective=spec, epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(objective=spec, gradient_mode="autodiff")
    with pytest.raises(ValueError):
        TrainConfig(objective=spec, fd_step=-1e-5)


def test_fd_gradient_on_quadratic():
    c = np.array([1.0, -2.0, 0.5])
    grad = finite_difference_gradient(lambda t: -np.sum((t - c) ** 2), np.zeros(3))
    assert_allclose(grad, 2.0 * c, rtol=1e-6)


def test_fd_gradient_of_constant_is_exactly_zero():
    grad = finite_difference_gradient(lambda t: 3.5, np.array([0.2, -4.0]))
    assert np.array_equal(grad, np.zeros(2))


def test_fd_gradient_retries_with_halved_step():
    # the +h probe on coordinate 0 lands in the forbidden zone; the
    # halved retry does not, so the gradient still comes out right
    def fun(t):
        if t[0] > 0.7e-5:
            raise EvaluationFailed("forbidden zone")
        return float(np.sum(t))

    grad = finite_difference_gradient(fun, np.zeros(2), step=1e-5)
    assert_allclose(grad, np.ones(2), rtol=1e-9)


def test_fd_gradient_gives_up_after_one_retry():
    def fun(t):
        if t[0] > 0.3e-5:
            raise EvaluationFailed("forbidden zone")
        return float(np.sum(t))

    with pytest.raises(EvaluationFailed):
        finite_difference_gradient(fun, np.zeros(2), step=1e-5)


def test_fd_gradient_wraps_linalg_failures():
    def fun(t):
        raise NotPositiveDefiniteError("always broken")

    with pytest.raises(EvaluationFailed):
        finite_difference_gradient(fun, np.zeros(1))


def test_lbfgs_maximizes_quadratic():
    c = np.array([0.7, -1.2])
    theta, nit = maximize_lbfgs(lambda t: -np.sum((t - c) ** 2), np.zeros(2))
    assert nit >= 1
    assert_allclose(theta, c, atol=1e-5)


def test_lbfgs_survives_infeasible_regions():
    c = np.array([0.4])

    def fun(t):
        if t[0] > 1.0:
            raise NotPositiveDefiniteError("off the cliff")
        return -float((t[0] - c[0]) ** 2)

    theta, _ = maximize_lbfgs(fun, np.zeros(1))
    assert_allclose(theta, c, atol=1e-4)


def test_adam_is_deterministic_and_climbs():
    c = np.array([0.3, -0.6, 1.1])
    fun = lambda t: -np.sum((t - c) ** 2)
    one = maximize_adam(fun, np.zeros(3), steps=50, learning_rate=0.05)
    two = maximize_adam(fun, np.zeros(3), steps=50, learning_rate=0.05)
    assert np.array_equal(one, two)
    assert fun(one) > fun(np.zeros(3))


def test_parameter_pack_roundtrip():
    rng = np.random.default_rng(0)
    x, y, state = small_instance(rng)
    state = state.with_(log_m_scale=0.17)
    q = random_qu(rng, state.num_inducing)

    pack = ParameterPack.for_state(state)
    theta = pack.pack(state)
    assert theta.size == pack.num_hyper
    back = pack.unpack_state(theta)
    assert np.array_equal(back.kernel.log_lengthscales, state.kernel.log_lengthscales)
    assert back.kernel.log_signal_variance == state.kernel.log_signal_variance
    assert back.noise.log_noise_variance == state.noise.log_noise_variance
    assert np.array_equal(back.inducing, state.inducing)
    assert back.log_m_scale == state.log_m_scale

    packq = ParameterPack.for_state(state, with_q=True)
    thetaq = packq.pack(state, q)
    assert thetaq.size == packq.size
    qu = packq.unpack_q(thetaq)
    assert_allclose(qu.mean, q.mean, rtol=1e-15)
    assert_allclose(qu.cov, q.cov, rtol=1e-12)


def test_evaluate_bound_dispatch():
    rng = np.random.default_rng(1)
    x, y, state = small_instance(rng)
    part = make_partition(y.shape[0], 3, seed=5)
    direct = {
        "Exact": exact_lml(x, y, state).total,
        "SGPR": sgpr_collapsed(x, y, state).total,
        "T-SGPR": tsgpr_collapsed(x, y, state).total,
        "Spherical": spherical_collapsed(x, y, state).total,
        "BT-SGPR": btsgpr_collapsed(x, y, state, part).total,
    }
    for method, expected in direct.items():
        blocks = 3 if method == "BT-SGPR" else None
        spec = BoundSpec(method=method, num_blocks=blocks)
        got = evaluate_bound(x, y, state, spec, part if blocks else None).total
        assert_allclose(got, expected, rtol=1e-12, err_msg=method)

    from blockgp.bounds_pep import pep_collapsed, tpep_collapsed

    spec = BoundSpec(method="PEP", alpha=0.5, num_blocks=3)
    assert_allclose(
        evaluate_bound(x, y, state, spec, part).total,
        pep_collapsed(x, y, state, PepConfig(alpha=0.5, partition=part)).total,
        rtol=1e-12,
    )
    st_m = state.with_(log_m_scale=np.log(1.3))
    spec = BoundSpec(method="T-PEP", alpha=0.5, num_blocks=3)
    assert_allclose(
        evaluate_bound(x, y, st_m, spec, part).total,
        tpep_collapsed(
            x, y, st_m, PepConfig(alpha=0.5, partition=part, m_scale=st_m.m_scale)
        ).total,
        rtol=1e-12,
    )


def test_evaluate_bound_rejects_oracles_and_mismatched_partitions():
    rng = np.random.default_rng(2)
    x, y, state = small_instance(rng)
    with pytest.raises(ValueError):
        evaluate_bound(x, y, state, BoundSpec(method="GeneralC-Oracle"))
    part2 = make_partition(y.shape[0], 2)
    with pytest.raises(ValueError):
        evaluate_bound(x, y, state, BoundSpec(method="BT-SGPR", num_blocks=3), part2)
    with pytest.raises(ValueError):
        evaluate_bound(x, y, state, BoundSpec(method="BT-SGPR", num_blocks=3), None)


def test_fit_collapsed_lbfgs_improves_and_traces():
    rng = np.random.default_rng(3)
    x, y, state = small_instance(rng)
    spec = BoundSpec(method="SGPR")
    cfg = TrainConfig(objective=spec, optimizer="lbfgs", epochs=25, seed=0)
    fitted, trace = fit_collapsed(x, y, state, cfg)
    assert 1 <= len(trace) <= 25
    start = evaluate_bound(x, y, state, spec).total
    end = evaluate_bound(x, y, fitted, spec).total
    assert end >= start
    assert_allclose(trace.objective[-1], end, rtol=1e-12)
    assert np.all(trace.sigma2 > 0)
    assert trace.lengthscales.shape == (len(trace), x.shape[1])


def test_lbfgs_trace_reuses_the_line_search_value(monkeypatch):
    # L-BFGS-B has evaluated the objective at each accepted iterate; the
    # trace records that value instead of evaluating it a second time, so
    # one iteration costs the start and one trial, each value plus 2P
    # differences
    import blockgp.training as training

    rng = np.random.default_rng(3)
    x, y, state = small_instance(rng)
    for spec, part in ((BoundSpec(method="SGPR"), None),
                       (BoundSpec(method="T-PEP", alpha=0.5, num_blocks=4),
                        make_partition(y.shape[0], 4, seed=0))):
        start = state.with_(log_m_scale=0.0) if spec.is_pep else state
        real = training.evaluate_bound
        count = [0]

        def counting(*args, **kwargs):
            count[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "evaluate_bound", counting)
        cfg = TrainConfig(objective=spec, optimizer="lbfgs", epochs=1)
        fitted, trace = fit_collapsed(x, y, start, cfg, part)
        monkeypatch.setattr(training, "evaluate_bound", real)
        p = ParameterPack.for_state(start).size
        assert len(trace) == 1
        assert count[0] == 2 * (2 * p + 1), spec.method
        assert trace.objective[0] == evaluate_bound(x, y, fitted, spec, part).total


def test_fit_collapsed_adam_takes_exactly_epochs_steps():
    rng = np.random.default_rng(4)
    x, y, state = small_instance(rng)
    cfg = TrainConfig(
        objective=BoundSpec(method="T-SGPR"), optimizer="adam", epochs=8, seed=0
    )
    _, trace = fit_collapsed(x, y, state, cfg)
    assert len(trace) == 8


def test_fit_collapsed_moves_the_gap_scale():
    rng = np.random.default_rng(5)
    x, y, state = small_instance(rng)
    state = state.with_(log_m_scale=0.0)
    part = make_partition(y.shape[0], 3, seed=1)
    cfg = TrainConfig(
        objective=BoundSpec(method="T-PEP", alpha=0.5, num_blocks=3),
        optimizer="adam",
        epochs=10,
        learning_rate=0.05,
        seed=0,
    )
    fitted, trace = fit_collapsed(x, y, state, cfg, part)
    assert fitted.log_m_scale is not None
    assert not np.allclose(trace.m_scale, 1.0)


def test_fit_stochastic_trace_length_and_bitwise_determinism():
    rng = np.random.default_rng(6)
    x, y, state = small_instance(rng)
    part = make_partition(y.shape[0], 3, seed=2)
    cfg = TrainConfig(
        objective=BoundSpec(method="BT-SGPR", num_blocks=3),
        optimizer="adam",
        epochs=4,
        seed=11,
    )
    s1, q1, t1 = fit_stochastic(x, y, state, part, cfg)
    s2, q2, t2 = fit_stochastic(x, y, state, part, cfg)
    assert len(t1) == 4 * 3
    assert np.array_equal(t1.objective, t2.objective)
    assert np.array_equal(s1.inducing, s2.inducing)
    assert np.array_equal(q1.mean, q2.mean)


def test_fit_stochastic_single_block_matches_handrolled_adam():
    rng = np.random.default_rng(7)
    x, y, state = small_instance(rng)
    n = y.shape[0]
    part = make_partition(n, 1)
    spec = BoundSpec(method="BT-SGPR", num_blocks=1)
    cfg = TrainConfig(objective=spec, optimizer="adam", epochs=5, seed=0,
                      learning_rate=0.01)
    q0 = GaussianQU(
        mean=np.zeros(state.num_inducing),
        cov_chol=chol(kernel_matrix(state.inducing, state.inducing, state.kernel)),
    )
    _, _, trace = fit_stochastic(x, y, state, part, cfg, q=q0)

    # full-batch replay: one block means every step sees the whole bound
    pack = ParameterPack.for_state(state, with_q=True)
    theta = pack.pack(state, q0)
    fun = lambda t: vi_stochastic(
        x, y, pack.unpack_state(t), part, pack.unpack_q(t), 0, penalty="logdet"
    )
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = np.zeros(theta.size)
    v = np.zeros(theta.size)
    values = []
    for t in range(1, 6):
        grad = finite_difference_gradient(fun, theta, step=cfg.fd_step)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta + cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        values.append(float(fun(theta)))
    assert np.array_equal(trace.objective, np.array(values))


def test_fit_stochastic_rejects_unsupported_setups():
    rng = np.random.default_rng(8)
    x, y, state = small_instance(rng)
    part = make_partition(y.shape[0], 2)
    with pytest.raises(ValueError):
        fit_stochastic(
            x, y, state, part,
            TrainConfig(objective=BoundSpec(method="Spherical"), optimizer="adam"),
        )
    with pytest.raises(ValueError):
        fit_stochastic(
            x, y, state, part,
            TrainConfig(
                objective=BoundSpec(method="BT-SGPR", num_blocks=2), optimizer="lbfgs"
            ),
        )


def test_analytic_qu_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    x, y, state = small_instance(rng)
    part = random_blocks(rng, y.shape[0])
    q = random_qu(rng, state.num_inducing)
    pack = ParameterPack.for_state(state, with_q=True)
    theta = pack.pack(state, q)
    hyper = theta[: pack.num_hyper]

    for b in range(part.num_blocks):
        def fun(tail, b=b):
            t = np.concatenate([hyper, tail])
            return vi_stochastic(
                x, y, state, part, pack.unpack_q(t), b, penalty="logdet"
            )

        d_mean, d_lower = uncollapsed_qu_gradient(x, y, state, part, q, block_index=b)
        analytic = pack.pack_q_gradient(q, d_mean, d_lower)
        fd = finite_difference_gradient(fun, theta[pack.num_hyper :])
        assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-6)

    pcfg = PepConfig(alpha=0.6, partition=part, m_scale=1.2)

    def fun_pep(tail):
        t = np.concatenate([hyper, tail])
        return tpep_stochastic(x, y, state, pcfg, pack.unpack_q(t), 0)

    d_mean, d_lower = tpep_qu_gradient(x, y, state, pcfg, q, block_index=0)
    analytic = pack.pack_q_gradient(q, d_mean, d_lower)
    fd = finite_difference_gradient(fun_pep, theta[pack.num_hyper :])
    assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-6)


def test_trace_builder_raises_diverged_on_nonfinite():
    from blockgp.training import _TraceBuilder

    rng = np.random.default_rng(10)
    _, _, state = small_instance(rng)
    builder = _TraceBuilder(state.kernel.input_dim)
    builder.append(-3.0, state)
    with pytest.raises(Diverged):
        builder.append(float("nan"), state)


def _failing_start():
    """300 standardized 2-d points, noise variance 1e-9 and five inducing
    points duplicated: a start from which L-BFGS-B reaches points whose
    objective or gradient cannot be evaluated."""
    from blockgp.data import Dataset, initial_state, standardize

    rng = np.random.default_rng(1)
    x = rng.uniform(-2.0, 2.0, (300, 2))
    w = rng.standard_normal((2, 8))
    y = np.sin(x @ w).sum(axis=1) / np.sqrt(8) + 0.01 * rng.standard_normal(300)
    train = standardize(Dataset(x=x, y=y))
    state = initial_state(train, 10, seed=0, noise_variance=1e-9)
    z = state.inducing.copy()
    z[5:10] = z[0:5]
    return train.x, train.y, state.with_(inducing=z)


def test_lbfgs_never_returns_a_point_whose_gradient_failed():
    # the difference gradient fails at the first accepted iterate; fed to
    # L-BFGS-B as zeros it read as convergence, and the fit returned there
    x, y, state = _failing_start()
    part = make_partition(300, 30, seed=0)
    cfg = TrainConfig(objective=BoundSpec(method="BT-SGPR", num_blocks=30),
                      optimizer="lbfgs", epochs=50)
    with pytest.raises(EvaluationFailed, match="NORM OF PROJECTED GRADIENT"):
        fit_collapsed(x, y, state, cfg, part)


def test_overflowing_line_search_trial_is_infeasible_not_a_crash():
    # a trial point overflows the kernel parameters; that must read as an
    # infeasible point (EvaluationFailed inside L-BFGS), not a bare ValueError
    x, y, state = _failing_start()
    spec = BoundSpec(method="SGPR")
    cfg = TrainConfig(objective=spec, optimizer="lbfgs", epochs=50)
    fitted, trace = fit_collapsed(x, y, state, cfg)
    assert len(trace) >= 1
    pack = ParameterPack.for_state(fitted)
    grad = finite_difference_gradient(
        lambda t: evaluate_bound(x, y, pack.unpack_state(t), spec).total, pack.pack(fitted)
    )
    assert np.all(np.isfinite(grad))


def test_overflow_is_evaluation_failed_but_shape_errors_surface():
    rng = np.random.default_rng(11)
    x, y, state = small_instance(rng)
    spec = BoundSpec(method="SGPR")
    pack = ParameterPack.for_state(state)
    theta = pack.pack(state)
    d = pack.input_dim
    # lengthscale underflow, signal variance overflow, noise over- and underflow
    for i, value in ((0, -1e3), (d, 1e3), (d + 1, 1e3), (d + 1, -1e3)):
        far = theta.copy()
        far[i] = value
        with pytest.raises(EvaluationFailed):
            finite_difference_gradient(
                lambda t: evaluate_bound(x, y, pack.unpack_state(t), spec).total, far
            )
    with pytest.raises(ValueError):
        finite_difference_gradient(
            lambda t: evaluate_bound(x[:, :0], y, pack.unpack_state(t), spec).total, theta
        )
