"""Predictive distribution and held-out metrics.

Every method in the package summarizes its posterior as a Gaussian
q(u) = N(mean, S) over the inducing values, so prediction is shared:

    mean(x*) = k*u Kuu^-1 mean
    var(x*)  = k** - k*u Kuu^-1 ku* + a*^T S a*,   a* = Kuu^-1 ku*

plus the noise variance when predicting observations.  With Kuu = Lu Lu^T,
S = L_S L_S^T and v* = Lu^-1 ku*, the only solve a test point needs is v*:

    mean(x*) = (Lu^-1 mean)^T v*
    var(x*)  = k** - |v*|^2 + |G v*|^2,   G = (Lu^-1 L_S)^T,

so after O(M^3) set-up a test point costs one kernel column, one triangular
solve and one product with G, O(M^2).  The test points are streamed in
chunks of PREDICT_CHUNK_ENTRIES // M, so the temporaries are a few
M x chunk arrays whatever N* is, and memory beyond the inputs and the two
outputs does not grow with N*.  The triangular solve is the factor's own
half_solve, which goes straight to BLAS from the right on the transposed
kernel block, already in BLAS's column order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import kernel_diag, kernel_matrix
from .linalg import chol
from .model import GaussianQU, ModelState

# Round-off can push a variance a hair below zero; anything worse than
# this (relative to the kernel variance) earns a warning.
_NEGATIVE_VAR_TOL = 1e-10

# Entries of the M x chunk cross term and its solve in one chunk of test
# points, 256 kB an array.  With one BLAS thread on a 2-core Xeon (4 MB L2),
# for 2^14, 2^15 and 2^16 entries and unchunked: 4.6, 4.2, 5.9 and 5.5 ms
# for 5000 points at M=32, D=4; 0.83, 0.83, 0.78 and 0.77 ms at M=8, D=2;
# 82, 73, 71 and 88 ms for 20 000 points at M=128, D=4.
PREDICT_CHUNK_ENTRIES = 2**15


@dataclass(frozen=True)
class PredictiveGaussian:
    mean: np.ndarray
    variance: np.ndarray
    clamped: int = 0  # entries clipped to zero beyond round-off tolerance


def predict(
    x_test: np.ndarray,
    state: ModelState,
    q: GaussianQU,
    include_noise: bool = True,
) -> PredictiveGaussian:
    """Predictive mean and variance at x_test for a Gaussian q(u)."""
    x_test = np.asarray(x_test, dtype=float)
    if q.dim != state.num_inducing:
        raise ValueError("q(u) dimension does not match the inducing set")
    kern = state.kernel
    luu = chol(kernel_matrix(state.inducing, state.inducing, kern))
    mean_w = luu.half_solve(q.mean)  # Lu^-1 mean
    g = luu.half_solve(q.cov_chol.lower).T  # (Lu^-1 L_S)^T
    var = kernel_diag(x_test, kern)  # checks x_test's shape, even with no rows
    mean = np.empty(var.shape)
    step = max(1, PREDICT_CHUNK_ENTRIES // state.num_inducing)
    bad = 0
    for lo in range(0, x_test.shape[0], step):
        xs = x_test[lo : lo + step]
        kxs = kernel_matrix(state.inducing, xs, kern)
        v = luu.half_solve(kxs)  # Lu^-1 Ku*
        # G v into the kernel block, which the solve no longer needs: a fresh
        # M x chunk array a chunk made predict 20 % slower at M=32
        gv = np.matmul(g, v, out=kxs)
        mean[lo : lo + step] = mean_w @ v
        chunk = var[lo : lo + step]
        chunk -= np.einsum("ij,ij->j", v, v)
        chunk += np.einsum("ij,ij->j", gv, gv)
        bad += int(np.sum(chunk < -_NEGATIVE_VAR_TOL * kern.signal_variance))
    if bad:
        warnings.warn(
            f"{bad} predictive variances below round-off tolerance were clamped",
            RuntimeWarning,
        )
    np.maximum(var, 0.0, out=var)
    if include_noise:
        var += state.noise.noise_variance
    return PredictiveGaussian(mean=mean, variance=var, clamped=bad)


def _targets(pred: PredictiveGaussian, y_true: np.ndarray) -> np.ndarray:
    """y_true as a vector, one target for each predicted point."""
    y_true = np.asarray(y_true, dtype=float).reshape(-1)
    if y_true.shape != np.shape(pred.mean):
        raise ValueError(f"{y_true.size} targets for {np.size(pred.mean)} predicted points")
    return y_true


def rmse(pred: PredictiveGaussian, y_true: np.ndarray) -> float:
    y_true = _targets(pred, y_true)
    return float(np.sqrt(np.mean((pred.mean - y_true) ** 2)))


def mean_log_likelihood(pred: PredictiveGaussian, y_true: np.ndarray) -> float:
    """Average predictive log density, which needs the noisy variance."""
    y_true = _targets(pred, y_true)
    var = pred.variance
    if np.any(var <= 0.0):
        raise ValueError("mean_log_likelihood needs strictly positive variances; "
                         "predict with include_noise=True")
    return float(
        np.mean(-0.5 * (np.log(2.0 * np.pi * var) + (y_true - pred.mean) ** 2 / var))
    )


def metrics(pred: PredictiveGaussian, y_true: np.ndarray) -> dict:
    return {
        "rmse": rmse(pred, y_true),
        "mean_ll": mean_log_likelihood(pred, y_true),
    }
