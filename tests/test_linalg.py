"""Cholesky ladder and low-rank Gaussian density tests.

Determinants of tiny matrices are checked against cofactor expansion
written out below, densities against scipy's multivariate normal, and
posteriors against the textbook precision-space formula.  None of
those routes share code with the package.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import multivariate_normal

from blockgp.linalg import (
    BlockNoise,
    CholeskyFactor,
    LowRankGaussian,
    NotPositiveDefiniteError,
    chol,
)


def _cofactor_det(a: np.ndarray) -> float:
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * _cofactor_det(minor)
    return total


def _random_spd(rng, n: int) -> np.ndarray:
    w = rng.standard_normal((n, n + 2))
    return w @ w.T / n + 0.5 * np.eye(n)


def test_chol_hand_example():
    factor = chol(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert factor.jitter_used == 0.0
    assert_allclose(factor.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], rtol=1e-15)


def test_logdet_matches_cofactor_expansion():
    rng = np.random.default_rng(0)
    for n in range(1, 6):
        for _ in range(5):
            a = _random_spd(rng, n)
            factor = chol(a)
            assert factor.jitter_used == 0.0
            assert_allclose(factor.logdet(), np.log(_cofactor_det(a)), rtol=1e-10)


def test_solves_match_numpy():
    rng = np.random.default_rng(1)
    a = _random_spd(rng, 7)
    b = rng.standard_normal((7, 3))
    factor = chol(a)
    assert_allclose(factor.solve(b), np.linalg.solve(a, b), rtol=1e-10)
    assert_allclose(factor.half_solve(b), np.linalg.solve(factor.lower, b), rtol=1e-10)
    assert_allclose(
        factor.half_solve_t(b), np.linalg.solve(factor.lower.T, b), rtol=1e-10
    )


def test_jitter_ladder_reconstructs_rank_deficient_input():
    rng = np.random.default_rng(2)
    w = rng.standard_normal(4)
    a = np.outer(w, w)  # rank one, needs the ladder
    factor = chol(a)
    assert factor.jitter_used > 0.0
    rebuilt = factor.lower @ factor.lower.T
    assert_allclose(rebuilt, a + factor.jitter_used * np.eye(4), atol=1e-12)


def test_chol_rejects_negative_definite():
    with pytest.raises(NotPositiveDefiniteError):
        chol(-np.eye(3))


def test_chol_rejects_non_square():
    with pytest.raises(ValueError):
        chol(np.zeros((2, 3)))


def test_chol_empty_matrix():
    factor = chol(np.zeros((0, 0)))
    assert factor.size == 0
    assert factor.logdet() == 0.0


def test_block_noise_validation():
    with pytest.raises(ValueError):
        BlockNoise(sigma2=0.0)
    with pytest.raises(ValueError):
        BlockNoise(sigma2=1.0, partition=[np.array([0])], blocks=None)
    with pytest.raises(ValueError):
        BlockNoise(sigma2=1.0, partition=[np.array([0])], blocks=[None, None])


def _random_lowrank(rng, n: int, m: int):
    z = rng.uniform(-2, 2, size=(m, 1))
    x = rng.uniform(-2, 2, size=(n, 1))
    kuu = np.exp(-0.5 * (z - z.T) ** 2) + 1e-8 * np.eye(m)
    kfu = np.exp(-0.5 * (x - z.T) ** 2)
    return kfu, kuu


def _lowrank_logpdf(y, kfu, kuu, noise):
    luu = chol(kuu)
    return LowRankGaussian(luu, luu.half_solve(kfu.T), noise).logpdf(y)


def test_lowrank_logpdf_iid_matches_dense():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, m = rng.integers(5, 20), rng.integers(2, 5)
        kfu, kuu = _random_lowrank(rng, n, m)
        sigma2 = float(rng.uniform(0.1, 1.0))
        y = rng.standard_normal(n)
        cov = kfu @ np.linalg.solve(kuu, kfu.T) + sigma2 * np.eye(n)
        dense = multivariate_normal(mean=np.zeros(n), cov=cov).logpdf(y)
        ours = _lowrank_logpdf(y, kfu, kuu, BlockNoise(sigma2=sigma2))
        assert_allclose(ours, dense, rtol=1e-9)


def test_lowrank_logpdf_block_noise_matches_dense():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n, m = 12, 3
        kfu, kuu = _random_lowrank(rng, n, m)
        sigma2 = float(rng.uniform(0.1, 1.0))
        idx = [np.arange(0, 5), np.arange(5, 9), np.arange(9, 12)]
        blocks = [_random_spd(rng, 5), None, 0.3 * _random_spd(rng, 3)]
        y = rng.standard_normal(n)

        cov = kfu @ np.linalg.solve(kuu, kfu.T) + sigma2 * np.eye(n)
        for ix, a in zip(idx, blocks):
            if a is not None:
                cov[np.ix_(ix, ix)] += a
        dense = multivariate_normal(mean=np.zeros(n), cov=cov).logpdf(y)
        noise = BlockNoise(sigma2=sigma2, partition=idx, blocks=blocks)
        ours = _lowrank_logpdf(y, kfu, kuu, noise)
        assert_allclose(ours, dense, rtol=1e-9)


def test_lowrank_posterior_matches_precision_space_formula():
    rng = np.random.default_rng(5)
    for _ in range(8):
        n, m = 15, 4
        kfu, kuu = _random_lowrank(rng, n, m)
        sigma2 = float(rng.uniform(0.1, 1.0))
        y = rng.standard_normal(n)

        luu = chol(kuu)
        v = luu.half_solve(kfu.T)
        mean, factor = LowRankGaussian(luu, v, BlockNoise(sigma2=sigma2)).posterior(y)

        a = np.linalg.solve(kuu, kfu.T).T  # projector Kfu Kuu^-1
        prec = np.linalg.inv(kuu) + a.T @ a / sigma2
        cov = np.linalg.inv(prec)
        assert_allclose(mean, cov @ a.T @ y / sigma2, rtol=1e-7, atol=1e-10)
        assert_allclose(factor.lower @ factor.lower.T, cov, rtol=1e-7, atol=1e-10)


def test_lowrank_rejects_mismatched_shapes():
    rng = np.random.default_rng(6)
    kfu, kuu = _random_lowrank(rng, 8, 3)
    luu = chol(kuu)
    v = luu.half_solve(kfu.T)
    lik = LowRankGaussian(luu, v, BlockNoise(sigma2=0.5))
    with pytest.raises(ValueError):
        lik.logpdf(np.zeros(9))
    with pytest.raises(ValueError):
        LowRankGaussian(chol(np.eye(4)), v, BlockNoise(sigma2=0.5))
    bad = BlockNoise(
        sigma2=0.5, partition=[np.arange(0, 4)], blocks=[None]
    )  # covers 4 of 8 indices
    with pytest.raises(ValueError):
        LowRankGaussian(luu, v, bad)


def test_cholesky_factor_is_frozen():
    factor = chol(np.eye(2))
    with pytest.raises(AttributeError):
        factor.jitter_used = 1.0
    assert isinstance(factor, CholeskyFactor)
