"""Dense reference computations for the test suite.

Everything here forms full N x N covariances and goes through scipy's
multivariate normal or plain np.linalg calls.  The package never takes
these routes (it works with Cholesky factors of M x M and block-sized
matrices), so agreement between the two is a real check, not a
tautology.  The set-up oracles likewise build the full difference
arrays the package's initializers avoid.
"""

import numpy as np
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal

from blockgp.kernels import QUIET, kernel_matrix
from blockgp.linalg import chol
from blockgp.model import ModelState, Partition


def mvn_logpdf(y: np.ndarray, cov: np.ndarray) -> float:
    return float(
        multivariate_normal(mean=np.zeros(y.shape[0]), cov=cov).logpdf(y)
    )


def se_oracle(x1: np.ndarray, x2: np.ndarray, params) -> np.ndarray:
    """The SE kernel in the textbook order, s2 * exp(-0.5 * max(S - 2 a b^T,
    0)) with a = x1 / l, b = x2 / l and S = |a|^2 + |b|^2, over the last two
    axes; non-finite entries are returned, not raised."""
    ell = params.lengthscales
    with np.errstate(**QUIET):
        a = x1 / ell
        b = x2 / ell
        sq = (a * a).sum(axis=-1)[..., :, None] + (b * b).sum(axis=-1)[..., None, :]
        sq -= 2.0 * (a @ np.swapaxes(b, -1, -2))
        np.maximum(sq, 0.0, out=sq)
        return params.signal_variance * np.exp(-0.5 * sq)


def se_adjoint_oracle(x1, x2, params, k, k_bar):
    """Every adjoint of K = k(x1, x2) under k_bar, each input's by its own
    formula: (d_log_lengthscales, d_log_signal_variance, d_x1, d_x2)."""
    inv = params.lengthscales ** -2.0
    w = k_bar * k
    rows = w.sum(axis=-1)
    cols = w.sum(axis=-2)
    w_x2 = w @ x2
    d_x1 = (w_x2 - rows[..., None] * x1) * inv
    d_x2 = (np.swapaxes(w, -1, -2) @ x1 - cols[..., None] * x2) * inv
    dim = x1.shape[-1]
    d_ell = (
        rows.reshape(-1) @ (x1 * x1).reshape(-1, dim)
        + cols.reshape(-1) @ (x2 * x2).reshape(-1, dim)
        - 2.0 * np.sum((x1 * w_x2).reshape(-1, dim), axis=0)
    ) * inv
    return d_ell, float(w.sum()), d_x1, d_x2


def dense_parts(x: np.ndarray, state: ModelState):
    """Kff, the projected covariance Q, and the full conditional gap Kff - Q."""
    kff = kernel_matrix(x, x, state.kernel)
    kuf = kernel_matrix(state.inducing, x, state.kernel)
    kuu = kernel_matrix(state.inducing, state.inducing, state.kernel)
    q = kuf.T @ np.linalg.solve(kuu, kuf)
    q = 0.5 * (q + q.T)
    gap = 0.5 * ((kff - q) + (kff - q).T)
    return kff, q, gap


def dense_exact(x, y, state) -> float:
    kff, _, _ = dense_parts(x, state)
    return mvn_logpdf(y, kff + state.noise.noise_variance * np.eye(y.shape[0]))


def dense_sgpr(x, y, state) -> float:
    _, q, gap = dense_parts(x, state)
    s2 = state.noise.noise_variance
    fit = mvn_logpdf(y, q + s2 * np.eye(y.shape[0]))
    return fit - float(np.trace(gap)) / (2.0 * s2)


def dense_tsgpr(x, y, state) -> float:
    _, q, gap = dense_parts(x, state)
    s2 = state.noise.noise_variance
    fit = mvn_logpdf(y, q + s2 * np.eye(y.shape[0]))
    return fit - 0.5 * float(np.sum(np.log1p(np.diag(gap) / s2)))


def dense_btsgpr(x, y, state, partition: Partition) -> float:
    _, q, gap = dense_parts(x, state)
    s2 = state.noise.noise_variance
    fit = mvn_logpdf(y, q + s2 * np.eye(y.shape[0]))
    pen = 0.0
    for ix in partition.blocks:
        block = gap[np.ix_(ix, ix)]
        pen += 0.5 * float(np.linalg.slogdet(np.eye(ix.size) + block / s2)[1])
    return fit - pen


def dense_sharedblock(x, y, state, partition: Partition) -> float:
    _, q, gap = dense_parts(x, state)
    s2 = state.noise.noise_variance
    fit = mvn_logpdf(y, q + s2 * np.eye(y.shape[0]))
    nb = partition.blocks[0].size
    avg = np.zeros((nb, nb))
    for ix in partition.blocks:
        avg += gap[np.ix_(ix, ix)]
    avg /= partition.num_blocks
    _, ld = np.linalg.slogdet(np.eye(nb) + avg / s2)
    return fit - 0.5 * partition.num_blocks * float(ld)


def dense_spherical(x, y, state) -> float:
    _, q, gap = dense_parts(x, state)
    s2 = state.noise.noise_variance
    n = y.shape[0]
    fit = mvn_logpdf(y, q + s2 * np.eye(n))
    return fit - 0.5 * n * float(np.log1p(np.mean(np.diag(gap)) / s2))


def dense_general_c(x, y, state, c: np.ndarray) -> float:
    """Identity-free evaluation of the free-scale objective at PSD C."""
    _, q, gap = dense_parts(x, state)
    s2 = state.noise.noise_variance
    n = y.shape[0]
    fit = mvn_logpdf(y, q + s2 * np.eye(n))
    trace_term = 0.5 * float(np.trace(np.linalg.solve(gap, c))) + 0.5 * float(
        np.trace(c)
    ) / s2
    _, ld_gap = np.linalg.slogdet(gap)
    _, ld_c = np.linalg.slogdet(c)
    return fit - trace_term - 0.5 * (float(ld_gap) - float(ld_c)) + 0.5 * n


def dense_pep(x, y, state, alpha: float, partition: Partition) -> float:
    """Power-EP energy with unit gap scale, via the full covariance."""
    return dense_tpep(x, y, state, alpha, 1.0, partition)


def dense_tpep(x, y, state, alpha: float, m: float, partition: Partition) -> float:
    _, q, gap = dense_parts(x, state)
    s2 = state.noise.noise_variance
    n = y.shape[0]
    blk = np.zeros((n, n))
    pen = 0.0
    for ix in partition.blocks:
        block = gap[np.ix_(ix, ix)]
        blk[np.ix_(ix, ix)] = block
        _, ld = np.linalg.slogdet(np.eye(ix.size) + alpha * m * block / s2)
        pen += float(ld)
    fit = mvn_logpdf(y, q + alpha * m * blk + s2 * np.eye(n))
    return (
        fit
        - (1.0 - alpha) / (2.0 * alpha) * pen
        - n / (2.0 * alpha) * float(np.log1p(alpha * (m - 1.0)))
        + 0.5 * n * float(np.log(m))
    )


def dense_optimal_qu(x, y, state):
    """Textbook Bayes-linear posterior over the inducing values."""
    kuf = kernel_matrix(state.inducing, x, state.kernel)
    kuu = kernel_matrix(state.inducing, state.inducing, state.kernel)
    s2 = state.noise.noise_variance
    b = kuu + kuf @ kuf.T / s2
    mean = kuu @ np.linalg.solve(b, kuf @ y) / s2
    cov = kuu @ np.linalg.solve(b, kuu)
    return mean, 0.5 * (cov + cov.T)


def dense_gp_predict(x_train, y_train, x_test, state, include_noise: bool):
    """Exact GP posterior, the Z = X reference for the sparse predictor."""
    s2 = state.noise.noise_variance
    kff = kernel_matrix(x_train, x_train, state.kernel)
    ktf = kernel_matrix(x_test, x_train, state.kernel)
    ktt = kernel_matrix(x_test, x_test, state.kernel)
    solve = np.linalg.solve(kff + s2 * np.eye(y_train.shape[0]), np.eye(y_train.shape[0]))
    mean = ktf @ solve @ y_train
    var = np.diag(ktt) - np.einsum("ij,jk,ik->i", ktf, solve, ktf)
    if include_noise:
        var = var + s2
    return mean, var


def two_solve_predict(x_test, state, q, include_noise: bool):
    """Sparse predictive moments with a* = Kuu^-1 ku* formed whole.

    Two M x N* triangular solves, v = Lu^-1 Kuf* and a* = Lu^-T v, then
    mean = a*^T mean and var = k** - |v|^2 + |L_S^T a*|^2, all test points
    at once.  Kuu is factored by the package's chol, so a jittered Kuu
    (duplicate inducing points) is the same matrix on both sides.
    """
    z, kern = state.inducing, state.kernel
    luu = chol(kernel_matrix(z, z, kern)).lower
    v = solve_triangular(luu, kernel_matrix(z, x_test, kern), lower=True)
    a = solve_triangular(luu.T, v, lower=False)
    h = q.cov_chol.lower.T @ a
    var = np.maximum(kern.signal_variance - np.sum(v * v, axis=0) + np.sum(h * h, axis=0), 0.0)
    if include_noise:
        var = var + state.noise.noise_variance
    return a.T @ q.mean, var


def median_distance_oracle(x: np.ndarray) -> float:
    """Median of the pairwise distances, from the (N, N, D) difference array."""
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    iu = np.triu_indices(x.shape[0], k=1)
    return float(np.median(dist[iu]))


def kmeans_oracle(x: np.ndarray, num_inducing: int, seed: int = 0,
                  max_iter: int = 100, tol: float = 1e-6):
    """k-means++ seeding and Lloyd iterations written the direct way.

    Distances come from the (N, M, D) difference array and each center
    is the mean of its members; an empty cluster keeps its center.
    Returns the final centers and, for every iteration, the centers it
    started from and the assignment it made against them.
    """
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((num_inducing, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for k in range(1, num_inducing):
        total = d2.sum()
        if total <= 0.0:
            centers[k] = x[rng.integers(n)]
        else:
            centers[k] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centers[k]) ** 2, axis=1))
    history = []
    for _ in range(max_iter):
        dist = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
        assign = dist.argmin(axis=1)
        history.append((centers, assign))
        new_centers = centers.copy()
        for k in range(num_inducing):
            members = x[assign == k]
            if members.shape[0]:
                new_centers[k] = members.mean(axis=0)
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift < tol:
            break
    return centers, history
