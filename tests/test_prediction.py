"""Sparse predictive distribution against the dense GP posterior."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import dense_gp_predict, two_solve_predict
from blockgp import prediction
from blockgp.bounds_vi import optimal_qu
from blockgp.kernels import KernelParams, NoiseParam, kernel_matrix
from blockgp.linalg import chol
from blockgp.model import ModelState
from blockgp.prediction import (
    PredictiveGaussian,
    mean_log_likelihood,
    metrics,
    predict,
    rmse,
)
from blockgp.verify import random_qu, small_instance


def test_matches_exact_gp_when_inducing_cover_inputs():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y, state = small_instance(rng)
        state = state.with_(inducing=x.copy())
        q = optimal_qu(x, y, state)
        x_test = rng.uniform(x.min(0) - 0.5, x.max(0) + 0.5, size=(9, x.shape[1]))
        for include_noise in (True, False):
            pred = predict(x_test, state, q, include_noise=include_noise)
            mean, var = dense_gp_predict(x, y, x_test, state, include_noise)
            assert_allclose(pred.mean, mean, rtol=1e-7, atol=1e-9)
            assert_allclose(pred.variance, var, rtol=1e-7, atol=1e-9)


def test_reverts_to_prior_far_from_data():
    rng = np.random.default_rng(1)
    x, y, state = small_instance(rng)
    q = optimal_qu(x, y, state)
    far = np.full((1, x.shape[1]), 150.0)
    pred = predict(far, state, q, include_noise=True)
    prior_var = state.kernel.signal_variance + state.noise.noise_variance
    assert abs(pred.mean[0]) < 1e-6
    assert_allclose(pred.variance[0], prior_var, rtol=1e-7)


def test_noise_flag_shifts_variance_by_sigma2():
    rng = np.random.default_rng(2)
    x, y, state = small_instance(rng)
    q = optimal_qu(x, y, state)
    xt = x[:4]
    with_n = predict(xt, state, q, include_noise=True)
    without = predict(xt, state, q, include_noise=False)
    assert_allclose(
        with_n.variance - without.variance, state.noise.noise_variance, rtol=1e-10
    )
    assert_allclose(with_n.mean, without.mean, rtol=1e-15)


def test_per_point_outputs_permute_with_inputs():
    rng = np.random.default_rng(3)
    x, y, state = small_instance(rng)
    q = optimal_qu(x, y, state)
    xt = rng.uniform(-1, 1, size=(7, x.shape[1]))
    perm = rng.permutation(7)
    direct = predict(xt[perm], state, q)
    shuffled = predict(xt, state, q)
    assert_allclose(direct.mean, shuffled.mean[perm], rtol=1e-12)
    assert_allclose(direct.variance, shuffled.variance[perm], rtol=1e-12)


def test_variance_with_noise_never_below_noise_floor():
    rng = np.random.default_rng(4)
    x, y, state = small_instance(rng)
    q = optimal_qu(x, y, state)
    xt = rng.uniform(-2, 2, size=(30, x.shape[1]))
    pred = predict(xt, state, q, include_noise=True)
    assert pred.variance.min() >= state.noise.noise_variance - 1e-12
    assert pred.clamped == 0


def test_rmse_hand_value():
    pred = PredictiveGaussian(mean=np.array([1.0, 2.0]), variance=np.ones(2))
    assert_allclose(rmse(pred, np.array([0.0, 4.0])), np.sqrt(2.5), rtol=1e-15)


def test_mean_ll_hand_value():
    # N(y; y, 1/(2 pi)) has density sqrt(2 pi / 2 pi) = 1, log 0
    pred = PredictiveGaussian(
        mean=np.array([0.3, -1.0]), variance=np.full(2, 1.0 / (2.0 * np.pi))
    )
    assert abs(mean_log_likelihood(pred, np.array([0.3, -1.0]))) < 1e-14


def test_mean_ll_matches_scipy():
    from scipy.stats import norm

    rng = np.random.default_rng(5)
    mean = rng.standard_normal(6)
    var = rng.uniform(0.2, 2.0, size=6)
    y = rng.standard_normal(6)
    pred = PredictiveGaussian(mean=mean, variance=var)
    expected = float(np.mean(norm(loc=mean, scale=np.sqrt(var)).logpdf(y)))
    assert_allclose(mean_log_likelihood(pred, y), expected, rtol=1e-12)


def test_metrics_bundle():
    pred = PredictiveGaussian(mean=np.zeros(3), variance=np.ones(3))
    out = metrics(pred, np.array([1.0, -1.0, 1.0]))
    assert set(out) == {"rmse", "mean_ll"}
    assert_allclose(out["rmse"], 1.0, rtol=1e-15)


@pytest.mark.parametrize("score", [rmse, mean_log_likelihood, metrics])
def test_scores_name_a_target_count_that_is_not_the_prediction_count(score):
    # a length-1 y_true used to broadcast: metrics' rmse read 0.3 here
    pred = PredictiveGaussian(mean=np.zeros(5), variance=np.ones(5))
    with pytest.raises(ValueError, match="1 targets for 5 predicted points"):
        score(pred, [0.3])
    with pytest.raises(ValueError, match="6 targets for 5 predicted points"):
        score(pred, np.zeros(6))


def test_dimension_mismatch_raises():
    rng = np.random.default_rng(6)
    x, y, state = small_instance(rng)
    q = optimal_qu(x, y, state)
    with pytest.raises(ValueError):
        predict(np.zeros((3, x.shape[1] + 1)), state, q)


def _assert_close_relative(got, ref, rtol=1e-12):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def _instance_and_q(rng, duplicated: bool):
    """small_instance, optionally with two inducing points repeated.

    With repeats Kuu needs jitter, and k*u Kuu^-1 mean is determined only
    to about cond(Kuu) * eps (1e-7 here) for a q(u) whose mean ignores the
    repeats, whichever formula computes it.  A q(u) that treats repeated
    inducing points as one, the collapsed posterior, is well determined, so
    that is the q(u) used with repeats; elsewhere q(u) is random.
    """
    x, y, state = small_instance(rng)
    if not duplicated:
        return x, state, random_qu(rng, state.num_inducing)
    z = state.inducing
    state = state.with_(inducing=np.concatenate([z, z[:2]]))
    kuu = kernel_matrix(state.inducing, state.inducing, state.kernel)
    assert chol(kuu).jitter_used > 0.0
    return x, state, optimal_qu(x, y, state)


@pytest.mark.parametrize("duplicated", [False, True])
@pytest.mark.parametrize("include_noise", [True, False])
@pytest.mark.parametrize("n_test", [1, 6, 23, 30])
def test_chunked_predict_matches_the_two_solve_formula(
    monkeypatch, n_test, include_noise, duplicated
):
    # chunks of 10 points: one point, below one chunk, a ragged last chunk,
    # and a whole number of chunks
    rng = np.random.default_rng(n_test)
    x, state, q = _instance_and_q(rng, duplicated)
    monkeypatch.setattr(prediction, "PREDICT_CHUNK_ENTRIES", 10 * state.num_inducing)
    x_test = rng.uniform(-2.5, 2.5, (n_test, x.shape[1]))
    pred = predict(x_test, state, q, include_noise=include_noise)
    mean, var = two_solve_predict(x_test, state, q, include_noise)
    _assert_close_relative(pred.mean, mean)
    _assert_close_relative(pred.variance, var)


@pytest.mark.parametrize("duplicated", [False, True])
def test_predict_at_the_module_chunk_matches_the_two_solve_formula(duplicated):
    rng = np.random.default_rng(8)
    x, state, q = _instance_and_q(rng, duplicated)
    step = prediction.PREDICT_CHUNK_ENTRIES // state.num_inducing
    x_test = rng.uniform(-2.5, 2.5, (2 * step + 7, x.shape[1]))
    pred = predict(x_test, state, q)
    mean, var = two_solve_predict(x_test, state, q, include_noise=True)
    _assert_close_relative(pred.mean, mean)
    _assert_close_relative(pred.variance, var)


def test_one_warning_for_clamped_variances_across_chunks(monkeypatch):
    # a prior variance of -1 drives every variance below zero; the count is
    # summed over the chunks and warned about once
    rng = np.random.default_rng(9)
    x, y, state = small_instance(rng)
    q = optimal_qu(x, y, state)
    monkeypatch.setattr(prediction, "PREDICT_CHUNK_ENTRIES", 3 * state.num_inducing)
    monkeypatch.setattr(prediction, "kernel_diag", lambda xs, kern: np.full(len(xs), -1.0))
    x_test = rng.uniform(-2.0, 2.0, (10, x.shape[1]))
    with pytest.warns(RuntimeWarning) as record:
        pred = predict(x_test, state, q, include_noise=False)
    assert len(record) == 1
    assert pred.clamped == 10
    assert "10 predictive variances" in str(record[0].message)
    assert np.all(pred.variance == 0.0)


def test_predict_memory_does_not_grow_with_the_test_set():
    # at M=128 one M x N* array is 102 MB for N* = 1e5; streamed, the peak
    # grows from 2e4 to 1e5 test points by less than the inputs and outputs do
    rng = np.random.default_rng(10)
    m, d = 128, 4
    state = ModelState(
        kernel=KernelParams(log_lengthscales=np.zeros(d), log_signal_variance=0.0),
        noise=NoiseParam(log_noise_variance=np.log(0.1)),
        inducing=rng.uniform(-2.0, 2.0, (m, d)),
    )
    q = random_qu(rng, m)
    peaks = {}
    for n_test in (20_000, 100_000):
        x_test = rng.uniform(-2.0, 2.0, (n_test, d))
        tracemalloc.start()
        predict(x_test, state, q)
        peaks[n_test] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    growth_allowed = 80_000 * (d + 2) * 8  # x_test and the two outputs, 80 000 more rows
    assert peaks[100_000] - peaks[20_000] < growth_allowed
