"""Squared-exponential kernel and conditional-gap tests.

The gap D = Kff - Kfu Kuu^-1 Kuf is read off PreparedBound as one block
over all points, with the clamp it needed on its diagonal.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockgp.bounds_vi import prepare
from blockgp.kernels import KernelParams, NoiseParam, kernel_diag, kernel_matrix
from blockgp.model import ModelState


def _params(lengthscales, signal_variance=1.0) -> KernelParams:
    return KernelParams(
        log_lengthscales=np.log(np.atleast_1d(lengthscales)),
        log_signal_variance=float(np.log(signal_variance)),
    )


def test_hand_value_unit_lengthscale():
    # distance sqrt(2) under unit lengthscales: k = exp(-1)
    k = kernel_matrix(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), _params([1.0, 1.0]))
    assert_allclose(k[0, 0], np.exp(-1.0), rtol=1e-14)


def test_hand_value_ard_lengthscales():
    # per-dimension scaling: exponent -0.5 * (1 + 4/4)
    k = kernel_matrix(np.array([[0.0, 0.0]]), np.array([[1.0, 2.0]]), _params([1.0, 2.0]))
    assert_allclose(k[0, 0], np.exp(-1.0), rtol=1e-14)


def test_signal_variance_scales_everything():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 2))
    base = kernel_matrix(x, x, _params([0.7, 1.3], 1.0))
    scaled = kernel_matrix(x, x, _params([0.7, 1.3], 2.5))
    assert_allclose(scaled, 2.5 * base, rtol=1e-13)


def test_lengthscale_equals_input_scaling():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 1))
    z = rng.standard_normal((4, 1))
    wide = kernel_matrix(x, z, _params([2.0]))
    narrow = kernel_matrix(x / 2.0, z / 2.0, _params([1.0]))
    assert_allclose(wide, narrow, rtol=1e-13)


def test_symmetry_and_positive_semidefiniteness():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 3))
    k = kernel_matrix(x, x, _params([1.0, 0.5, 2.0], 1.7))
    assert_allclose(k, k.T, atol=1e-15)
    assert np.linalg.eigvalsh(k).min() > -1e-10


def test_diag_matches_matrix_diagonal():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((10, 2))
    params = _params([0.8, 1.1], 1.3)
    assert_allclose(kernel_diag(x, params), np.diag(kernel_matrix(x, x, params)))
    assert_allclose(kernel_diag(x, params), 1.3)


def test_input_validation():
    params = _params([1.0, 1.0])
    assert params.input_dim == 2
    with pytest.raises(ValueError):
        kernel_matrix(np.zeros((3, 3)), np.zeros((3, 2)), params)
    with pytest.raises(ValueError):
        kernel_matrix(np.zeros(3), np.zeros((3, 2)), params)


def test_noise_param_roundtrip():
    noise = NoiseParam(log_noise_variance=np.log(0.3))
    assert_allclose(noise.noise_variance, 0.3, rtol=1e-15)


def conditional_gap(x, z, params):
    state = ModelState(kernel=params, noise=NoiseParam(0.0), inducing=z)
    prep = prepare(x, np.zeros(x.shape[0]), state)
    return prep.block_gap(np.arange(x.shape[0])), prep.diag_clamp


def test_gap_vanishes_when_inducing_cover_inputs():
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, size=(12, 2))
    params = _params([1.0, 1.5], 1.2)
    gap, clamp = conditional_gap(x, x, params)
    assert np.abs(gap).max() < 1e-6
    assert clamp < 1e-6


def test_gap_bounded_by_prior_variance_and_nonnegative_diag():
    rng = np.random.default_rng(5)
    x = rng.uniform(-3, 3, size=(25, 2))
    z = rng.uniform(-3, 3, size=(4, 2))
    params = _params([0.9, 1.2], 1.5)
    gap, _ = conditional_gap(x, z, params)
    d = np.diag(gap)
    assert d.min() >= 0.0
    assert d.max() <= 1.5 + 1e-9


def test_gap_with_no_inducing_points_is_prior():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 1))
    params = _params([1.0])
    gap, clamp = conditional_gap(x, np.zeros((0, 1)), params)
    assert_allclose(gap, kernel_matrix(x, x, params), rtol=1e-14)
    assert clamp == 0.0


def test_gap_matches_dense_formula():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, size=(15, 2))
    z = rng.uniform(-2, 2, size=(5, 2))
    params = _params([1.1, 0.8], 1.4)
    gap, _ = conditional_gap(x, z, params)
    kff = kernel_matrix(x, x, params)
    kzx = kernel_matrix(z, x, params)
    kzz = kernel_matrix(z, z, params)
    dense = kff - kzx.T @ np.linalg.solve(kzz, kzx)
    assert_allclose(gap, dense, atol=1e-9)
