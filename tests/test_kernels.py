"""Squared-exponential kernel and conditional-gap tests.

The gap D = Kff - Kfu Kuu^-1 Kuf is read off PreparedBound as one block
over all points, with the clamp it needed on its diagonal.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import se_adjoint_oracle, se_oracle
from blockgp.bounds_vi import prepare
from blockgp.kernels import (
    KernelParams,
    NoiseParam,
    kernel_diag,
    kernel_matrix,
    kernel_matrix_adjoint,
    kernel_stack,
)
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


@st.composite
def _kernel_cases(draw):
    """Two point sets (the second at times the first itself), a (B, n, D)
    stack and parameters: D from 1 to 7, one-point sets, duplicate points,
    lengthscales from 1e-3 to 1e3 and, now and then, a non-finite input or a
    signal variance that overflows."""
    dim = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    # sets of 12 to 15 points and more are where BLAS syrk and gemm round apart
    x1 = scale * rng.standard_normal((draw(st.integers(1, 40)), dim))
    x2 = scale * rng.standard_normal((draw(st.integers(1, 40)), dim))
    xs = scale * rng.standard_normal((draw(st.integers(1, 4)), draw(st.integers(1, 5)), dim))
    if draw(st.booleans()):  # duplicates within and across the sets
        x1[-1] = x2[0] = x1[0]
        xs[:, -1] = xs[:, 0]
    if draw(st.booleans()):
        x2 = x1
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad is not None:
        x1[rng.integers(x1.shape[0]), rng.integers(dim)] = bad
        xs[rng.integers(xs.shape[0]), rng.integers(xs.shape[1]), rng.integers(dim)] = bad
    ell = draw(st.lists(st.sampled_from([1e-3, 1e3]) | st.floats(1e-3, 1e3),
                        min_size=dim, max_size=dim))
    log_s2 = draw(st.sampled_from([0.0, -3.0, 5.0, 800.0]))  # exp(800) overflows
    return x1, x2, xs, KernelParams(np.log(ell), log_s2)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_kernel_cases())
def test_kernel_matrix_and_stack_are_the_textbook_order_bit_for_bit(case):
    x1, x2, xs, params = case
    for call, ref in (
        (lambda: kernel_matrix(x1, x2, params), se_oracle(x1, x2, params)),
        (lambda: kernel_stack(xs, params), se_oracle(xs, xs, params)),
    ):
        if np.isfinite(ref).all():
            got = call()
            assert got.shape == ref.shape and np.array_equal(got, ref)
        else:
            with pytest.raises(FloatingPointError, match="kernel matrix has non-finite"):
                call()


def test_kernel_matrix_holds_at_most_one_product_beside_its_output():
    # the textbook order's temporaries peak at 3.13 times the output
    rng = np.random.default_rng(8)
    params = _params([0.7, 1.3, 0.9, 1.1], 1.4)
    z, x = rng.standard_normal((32, 4)), rng.standard_normal((4096, 4))
    kernel_matrix(z, x, params)
    tracemalloc.start()
    out = kernel_matrix(z, x, params)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 2.25 * out.nbytes


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_kernel_adjoints_callers_read_are_the_oracle_formula_bit_for_bit(dim, seed):
    rng = np.random.default_rng(seed)
    params = KernelParams(rng.uniform(-2.0, 2.0, dim), rng.uniform(-1.0, 1.0))
    z = rng.standard_normal((rng.integers(1, 9), dim))
    x = rng.standard_normal((rng.integers(1, 30), dim))
    x[-1] = x[0]
    xs = rng.standard_normal((rng.integers(1, 5), rng.integers(1, 6), dim))

    def pair(x1, x2, k):
        k_bar = rng.standard_normal(k.shape)
        got = kernel_matrix_adjoint(x1, x2, params, k, k_bar)
        return got, se_adjoint_oracle(x1, x2, params, k, k_bar), k_bar

    # a stack's K_bb: the parameters' adjoints
    got, ref, _ = pair(xs, xs, kernel_stack(xs, params))
    assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
    # K_uc: the parameters' and the inducing inputs'
    got, ref, _ = pair(z, x, kernel_matrix(z, x, params))
    assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
    assert np.array_equal(got[2], ref[2])
    # Kuu: both inputs', the second as the transposed call's first
    kuu = kernel_matrix(z, z, params)
    got, ref, g_uu = pair(z, z, kuu)
    assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
    assert np.array_equal(got[2], ref[2])
    assert np.array_equal(kernel_matrix_adjoint(z, z, params, kuu.T, g_uu.T)[2], ref[3])


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
