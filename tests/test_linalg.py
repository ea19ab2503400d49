"""Cholesky ladder and low-rank Gaussian density tests.

Determinants of tiny matrices are checked against cofactor expansion
written out below, densities against scipy's multivariate normal, and
posteriors against the textbook precision-space formula.  None of
those routes share code with the package.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import block_diag, lapack, solve_triangular
from scipy.stats import multivariate_normal

from blockgp.linalg import (
    CholeskyFactor,
    LowRankGaussian,
    BATCHED_INVERSE_MAX,
    SUBSTITUTION_MAX,
    NotPositiveDefiniteError,
    chol,
    chol_stack,
    stack_half_solve,
    stack_inverse,
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


# [[a+1, a], [a, a+1]] with a+1 == a in floating point: singular to working
# precision, yet LAPACK's rounding leaves its last pivot at sqrt(32)
_NOISE_PIVOT_A = 1e17


def _noise_pivot_block() -> np.ndarray:
    a = _NOISE_PIVOT_A
    assert a + 1.0 == a
    return np.array([[a + 1.0, a], [a, a + 1.0]])


def test_chol_rejects_a_rounding_noise_pivot():
    block = _noise_pivot_block()
    assert np.linalg.cholesky(block)[1, 1] > 0.0  # LAPACK alone accepts it
    factor = chol(block)
    assert factor.jitter_used > 0.0
    rebuilt = factor.lower @ factor.lower.T
    assert_allclose(rebuilt, block + factor.jitter_used * np.eye(2), rtol=1e-15)


def test_chol_stack_jitters_only_the_rounding_noise_block():
    good = np.array([[4.0, 2.0], [2.0, 3.0]])
    lower, jitter = chol_stack(np.stack([good, _noise_pivot_block(), good]))
    assert jitter[0] == jitter[2] == 0.0 and jitter[1] > 0.0
    assert np.array_equal(lower[0], np.linalg.cholesky(good))
    assert np.array_equal(lower[1], chol(_noise_pivot_block()).lower)


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


def _random_lowrank(rng, n: int, m: int):
    z = rng.uniform(-2, 2, size=(m, 1))
    x = rng.uniform(-2, 2, size=(n, 1))
    kuu = np.exp(-0.5 * (z - z.T) ** 2) + 1e-8 * np.eye(m)
    kfu = np.exp(-0.5 * (x - z.T) ** 2)
    return kfu, kuu


def _lowrank(y, kfu, kuu, sigma2, stacks=()):
    """The Gaussian with all the points added as one chunk."""
    luu = chol(kuu)
    gauss = LowRankGaussian(luu, sigma2)
    gauss.add(luu.half_solve(kfu.T), y, stacks)
    return gauss


def _lowrank_logpdf(y, kfu, kuu, sigma2, stacks=()):
    return _lowrank(y, kfu, kuu, sigma2, stacks).logpdf()


def _factored(sigma2, shapes, blocks):
    """(lower, jitter) of sigma2 I + A for each stack shape (B, n), the
    stacks in column order, and its blocks A, (n, n) or (B, n, n), or
    None for sigma2 I alone."""
    stacks = []
    for (b, n), a in zip(shapes, blocks):
        r = sigma2 * np.eye(n) + (0.0 if a is None else np.reshape(a, (-1, n, n)))
        stacks.append(chol_stack(np.broadcast_to(r, (b, n, n))))
    return stacks


def test_block_noise_validation():
    rng = np.random.default_rng(7)
    kfu, kuu = _random_lowrank(rng, 6, 2)
    for sigma2 in (0.0, -1.0):
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            _lowrank_logpdf(np.zeros(6), kfu, kuu, sigma2)
    seven = _factored(0.5, [(2, 3), (1, 1)], [None, None])  # 7 columns of 6
    with pytest.raises(ValueError, match="noise stacks cover 7 columns"):
        _lowrank_logpdf(np.zeros(6), kfu, kuu, 0.5, seven)


def test_lowrank_logpdf_iid_matches_dense():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, m = rng.integers(5, 20), rng.integers(2, 5)
        kfu, kuu = _random_lowrank(rng, n, m)
        sigma2 = float(rng.uniform(0.1, 1.0))
        y = rng.standard_normal(n)
        cov = kfu @ np.linalg.solve(kuu, kfu.T) + sigma2 * np.eye(n)
        dense = multivariate_normal(mean=np.zeros(n), cov=cov).logpdf(y)
        ours = _lowrank_logpdf(y, kfu, kuu, sigma2)
        assert_allclose(ours, dense, rtol=1e-9)


def test_lowrank_logpdf_block_noise_matches_dense():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n, m = 12, 3
        kfu, kuu = _random_lowrank(rng, n, m)
        sigma2 = float(rng.uniform(0.1, 1.0))
        idx = [np.arange(0, 5), np.arange(5, 9), np.arange(9, 12)]
        shapes = [(1, ix.size) for ix in idx]
        blocks = [_random_spd(rng, 5), None, 0.3 * _random_spd(rng, 3)]
        y = rng.standard_normal(n)

        cov = kfu @ np.linalg.solve(kuu, kfu.T) + sigma2 * np.eye(n)
        for ix, a in zip(idx, blocks):
            if a is not None:
                cov[np.ix_(ix, ix)] += a
        dense = multivariate_normal(mean=np.zeros(n), cov=cov).logpdf(y)
        ours = _lowrank_logpdf(y, kfu, kuu, sigma2, _factored(sigma2, shapes, blocks))
        assert_allclose(ours, dense, rtol=1e-9)


def test_lowrank_posterior_matches_precision_space_formula():
    rng = np.random.default_rng(5)
    for _ in range(8):
        n, m = 15, 4
        kfu, kuu = _random_lowrank(rng, n, m)
        sigma2 = float(rng.uniform(0.1, 1.0))
        y = rng.standard_normal(n)

        mean, factor = _lowrank(y, kfu, kuu, sigma2).posterior()

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
    lik = LowRankGaussian(luu, 0.5)
    with pytest.raises(ValueError, match=r"expected \(8,\)"):
        lik.add(v, np.zeros(9))
    with pytest.raises(ValueError):
        LowRankGaussian(chol(np.eye(4)), 0.5).add(v, np.zeros(8))
    bad = _factored(0.5, [(1, 4)], [None])  # covers 4 of 8 columns
    with pytest.raises(ValueError, match="noise stacks cover 4 columns"):
        lik.add(v, np.zeros(8), bad)


def test_cholesky_factor_is_frozen():
    factor = chol(np.eye(2))
    with pytest.raises(AttributeError):
        factor.jitter_used = 1.0
    assert isinstance(factor, CholeskyFactor)


@pytest.mark.parametrize(
    "n",
    [1, 4, SUBSTITUTION_MAX, SUBSTITUTION_MAX + 1, 40, BATCHED_INVERSE_MAX,
     BATCHED_INVERSE_MAX + 1],
)
def test_stack_inverse_matches_numpy_on_both_paths(n):
    # the batched path solves by substitution up to SUBSTITUTION_MAX points
    # and by trtrs above it; past BATCHED_INVERSE_MAX each block is inverted
    # alone, by the recursive triangular inverse and lauum
    rng = np.random.default_rng(n)
    a = np.stack([_random_spd(rng, n) for _ in range(3)])
    inv = stack_inverse(np.linalg.cholesky(a))
    assert_allclose(inv, np.linalg.inv(a), rtol=1e-10, atol=1e-12)
    assert_allclose(inv, np.swapaxes(inv, 1, 2), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("blocks,n", [(1, 200), (4, BATCHED_INVERSE_MAX + 1)])
def test_per_block_inverses_are_symmetric_to_the_bit(blocks, n):
    # past BATCHED_INVERSE_MAX each block's lauum triangle is mirrored in
    # one pass, which must leave no rounding-level asymmetry
    rng = np.random.default_rng(13 + n)
    a = np.stack([_random_spd(rng, n) for _ in range(blocks)])
    inv = stack_inverse(np.linalg.cholesky(a))
    assert np.array_equal(inv, np.swapaxes(inv, 1, 2))
    assert_allclose(inv, np.linalg.inv(a), rtol=1e-10, atol=1e-12)


def _spd_with_condition(rng, n: int, cond: float) -> np.ndarray:
    """A symmetric positive-definite block with eigenvalues spread
    geometrically from 1 to 1 / cond."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.geomspace(1.0, 1.0 / cond, n)) @ q.T
    return 0.5 * (a + a.T)


def _jittered_block(n: int) -> np.ndarray:
    """A kernel block over n points of which two are equal, plus a noise
    variance far below the ladder's first rung, so chol must jitter it."""
    x = np.linspace(-2.0, 2.0, n)
    x[1] = x[0]
    return np.exp(-0.5 * (x[:, None] - x[None, :]) ** 2) + 1e-18 * np.eye(n)


def _potri_inverse(low: np.ndarray) -> np.ndarray:
    inv, info = lapack.dpotri(low, lower=1)
    assert info == 0
    return np.tril(inv) + np.tril(inv, -1).T


@pytest.mark.parametrize("n", [BATCHED_INVERSE_MAX + 1, 97, 200, 301])
def test_per_block_inverse_is_as_accurate_as_potri_on_hard_blocks(n):
    # the recursive inverse splits 65, 97 and 301 points unevenly; its error
    # against a plain inverse stays within a small factor of LAPACK's potri
    # on the same factor, from benign blocks to condition numbers of 1e10
    # and a block that needed jitter
    rng = np.random.default_rng(n)
    blocks = [_spd_with_condition(rng, n, cond) for cond in (1e2, 1e6, 1e10)]
    blocks.append(_jittered_block(n))
    lower, jitter = chol_stack(np.stack(blocks))
    assert jitter[:3].max() == 0.0 and jitter[3] > 0.0
    inv = stack_inverse(lower)
    assert np.array_equal(inv, np.swapaxes(inv, 1, 2))
    for low, got, block, j in zip(lower, inv, blocks, jitter):
        ref = np.linalg.inv(block + j * np.eye(n))
        scale = np.max(np.abs(ref))
        err = np.max(np.abs(got - ref)) / scale
        potri_err = np.max(np.abs(_potri_inverse(low) - ref)) / scale
        assert err <= 4.0 * potri_err


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("n", [BATCHED_INVERSE_MAX + 1, 200, 257])
def test_large_blocks_are_factored_by_potrf_one_at_a_time(n, blocks):
    # past BATCHED_INVERSE_MAX each block is LAPACK's potrf of it, bit for
    # bit; numpy's batched Cholesky, which smaller blocks take, is a build
    # of OpenBLAS of its own, so it agrees to the last bit only
    rng = np.random.default_rng(n + blocks)
    a = np.stack([_random_spd(rng, n) for _ in range(blocks)])
    lower, jitter = chol_stack(a)
    assert np.array_equal(jitter, np.zeros(blocks))
    for low, ab in zip(lower, a):
        assert np.array_equal(low, lapack.dpotrf(ab, lower=1, clean=1)[0])
    ref = np.linalg.cholesky(a)
    assert np.max(np.abs(lower - ref)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(ref))


def _large_noise_pivot_block(n: int) -> np.ndarray:
    """_noise_pivot_block in the corner of an n x n block whose other
    pivots are large enough to pass the rule, so only the noise pivot fails."""
    block = _NOISE_PIVOT_A * np.eye(n)
    block[:2, :2] = _noise_pivot_block()
    return block


def test_a_large_stack_jitters_only_the_rounding_noise_block():
    n = BATCHED_INVERSE_MAX + 1
    good = _random_spd(np.random.default_rng(3), n)
    noisy = _large_noise_pivot_block(n)
    assert lapack.dpotrf(noisy, lower=1)[1] == 0  # LAPACK alone accepts it
    lower, jitter = chol_stack(np.stack([good, noisy, good]))
    assert jitter[0] == jitter[2] == 0.0 and jitter[1] > 0.0
    assert np.array_equal(lower[0], chol(good).lower)
    assert np.array_equal(lower[1], chol(noisy).lower)


def test_a_large_stack_past_the_ladder_raises_by_name():
    n = BATCHED_INVERSE_MAX + 1
    indefinite = np.eye(n)
    indefinite[-1, -1] = -1.0
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite at jitter"):
        chol_stack(np.stack([np.eye(n), indefinite, 2.0 * np.eye(n)]))


def _per_block_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack([solve_triangular(low, rhs, lower=True) for low, rhs in zip(lower, b)])


def _assert_close_relative(got: np.ndarray, ref: np.ndarray, rtol: float = 1e-12):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize(
    "n", [1, 2, SUBSTITUTION_MAX - 1, SUBSTITUTION_MAX, SUBSTITUTION_MAX + 1, 40]
)
def test_stack_half_solve_matches_per_block_lapack_on_both_paths(n, k):
    rng = np.random.default_rng(10 * n + k)
    lower = np.linalg.cholesky(np.stack([_random_spd(rng, n) for _ in range(4)]))
    b = rng.standard_normal((4, n, k))
    _assert_close_relative(stack_half_solve(lower, b), _per_block_solve(lower, b))


def _noise_gaussian(stacks, n):
    """A LowRankGaussian on the noise stacks with a one-row V."""
    v = np.random.default_rng(n).standard_normal((1, n))
    gauss = LowRankGaussian(chol(np.eye(1)), 0.3)
    gauss.add(v, np.zeros(n), stacks)
    return gauss


@pytest.mark.parametrize("n", [3, SUBSTITUTION_MAX + 4])
def test_block_factors_solve_a_jittered_stack_block_by_block(n):
    # rank-one blocks a round-off below positive semi-definite, as a gap
    # block can come out, are not positive definite at a tiny sigma2, so the
    # stack goes through chol's ladder; the solve uses the jittered factors
    rng = np.random.default_rng(n)
    w = rng.standard_normal((5, n))
    blocks = w[:, :, None] * w[:, None, :] - 1e-12 * np.eye(n)
    stacks = _factored(1e-14, [(5, n)], [blocks])
    gauss = _noise_gaussian(stacks, 5 * n)
    assert gauss.jitter_used > 0.0
    ((lower, _),) = stacks
    b = rng.standard_normal((5 * n, 3))
    out = gauss._noise_half_solve(b, stacks)
    _assert_close_relative(out.reshape(5, n, 3), _per_block_solve(lower, b.reshape(5, n, 3)))


def test_block_factors_solve_mixed_sizes_against_the_dense_factor():
    # one-point blocks, a substitution stack and a LAPACK stack in one noise
    rng = np.random.default_rng(11)
    sizes = [1, 1, 4, 4, SUBSTITUTION_MAX + 1]
    covs = [0.1 * np.ones((2, 1, 1)), np.stack([_random_spd(rng, 4) for _ in range(2)]),
            _random_spd(rng, sizes[-1])]
    stacks = _factored(0.3, [(2, 1), (2, 4), (1, sizes[-1])], covs)
    gauss = _noise_gaussian(stacks, sum(sizes))
    b = rng.standard_normal((sum(sizes), 6))
    dense = block_diag(*[low for lower, _ in stacks for low in lower])
    ref = solve_triangular(dense, b, lower=True)
    _assert_close_relative(gauss._noise_half_solve(b, stacks), ref)


@st.composite
def _solve_cases(draw):
    """A well-conditioned factor of size 1 to 8 and a right-hand side: a
    vector, or a C- or F-ordered matrix of 0 to 5 columns."""
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = chol(_random_spd(rng, m))
    cols = draw(st.sampled_from([None, 0, 1, 2, 5]))
    if cols is None:
        return factor, rng.standard_normal(m)
    b = rng.standard_normal((m, cols))
    return factor, b if draw(st.booleans()) else np.asfortranarray(b)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_solve_cases())
def test_solves_match_solve_triangular_and_leave_the_input(case):
    factor, b = case
    low = factor.lower
    kept = b.copy(order="A")
    half = solve_triangular(low, b, lower=True)
    half_t = solve_triangular(low.T, b, lower=False)
    refs = [
        (factor.half_solve, half),
        (factor.half_solve_t, half_t),
        (factor.solve, solve_triangular(low.T, half, lower=False)),
    ]
    for method, ref in refs:
        got = method(b)
        assert got.shape == ref.shape
        if ref.size:
            _assert_close_relative(got, ref)
        assert np.array_equal(b, kept) and b.flags.f_contiguous == kept.flags.f_contiguous


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(3,), (3, 2)])
def test_a_non_finite_right_hand_side_raises_by_name(bad, shape):
    factor = chol(_random_spd(np.random.default_rng(12), 3))
    b = np.ones(shape)
    b[(1,) * len(shape)] = bad
    for method in (factor.half_solve, factor.half_solve_t, factor.solve):
        with pytest.raises(FloatingPointError, match="not finite"):
            method(b)


def test_a_right_hand_side_of_the_wrong_length_raises():
    factor = chol(np.eye(3))
    for b in (np.ones(4), np.ones((2, 5)), np.ones((3, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="does not fit"):
            factor.half_solve(b)
