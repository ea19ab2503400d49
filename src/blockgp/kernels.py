"""Squared-exponential kernel with per-dimension lengthscales.

k(x, x') = s2 * exp(-0.5 * sum_d (x_d - x'_d)^2 / l_d^2).

Parameters are stored on log scale so optimizers can move freely in R.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# Parameters far out on log scale over- or underflow exp; the non-finite
# checks below and in the bounds raise FloatingPointError for them, so the
# floating-point warnings on the way there are noise.
QUIET = dict(over="ignore", divide="ignore", invalid="ignore", under="ignore")


@dataclass(frozen=True)
class KernelParams:
    log_lengthscales: np.ndarray  # shape (D,)
    log_signal_variance: float

    def __post_init__(self):
        object.__setattr__(
            self, "log_lengthscales",
            np.atleast_1d(np.asarray(self.log_lengthscales, dtype=float)),
        )

    @property
    def lengthscales(self) -> np.ndarray:
        with np.errstate(**QUIET):
            return np.exp(self.log_lengthscales)

    @property
    def signal_variance(self) -> float:
        with np.errstate(**QUIET):
            return float(np.exp(self.log_signal_variance))

    @property
    def input_dim(self) -> int:
        return self.log_lengthscales.shape[0]


@dataclass(frozen=True)
class NoiseParam:
    log_noise_variance: float

    @property
    def noise_variance(self) -> float:
        with np.errstate(**QUIET):
            value = float(np.exp(self.log_noise_variance))
        if not 0.0 < value < np.inf:
            raise FloatingPointError(
                f"noise variance exp({self.log_noise_variance!r}) is {value!r}"
            )
        return value


def _check_inputs(x: np.ndarray, params: KernelParams, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-d (points x dims), got shape {x.shape}")
    if x.shape[1] != params.input_dim:
        raise ValueError(
            f"{name} has {x.shape[1]} columns but the kernel has "
            f"{params.input_dim} lengthscales"
        )
    return x


def _se(x1: np.ndarray, x2: np.ndarray, params: KernelParams) -> np.ndarray:
    """SE kernel between the rows of x1 and x2 over their last two axes."""
    ell = params.lengthscales
    with np.errstate(**QUIET):
        a = x1 / ell
        b = x2 / ell
        sq = (a * a).sum(axis=-1)[..., :, None] + (b * b).sum(axis=-1)[..., None, :]
        sq -= 2.0 * (a @ np.swapaxes(b, -1, -2))
        np.maximum(sq, 0.0, out=sq)
        k = params.signal_variance * np.exp(-0.5 * sq)
    if not np.isfinite(k).all():
        raise FloatingPointError(
            f"kernel matrix has non-finite entries at lengthscales {ell} and "
            f"signal variance {params.signal_variance!r}"
        )
    return k


def kernel_matrix(x1: np.ndarray, x2: np.ndarray, params: KernelParams) -> np.ndarray:
    """Cross-covariance matrix k(x1[i], x2[j]), shape (n1, n2)."""
    return _se(_check_inputs(x1, params, "x1"), _check_inputs(x2, params, "x2"), params)


def kernel_stack(xs: np.ndarray, params: KernelParams) -> np.ndarray:
    """k(xs[b, i], xs[b, j]) for a (B, n, D) stack of point sets, shape (B, n, n).

    One broadcast over the whole stack, with kernel_matrix's arithmetic.
    """
    xs = np.asarray(xs, dtype=float)
    return _se(xs, xs, params)


def kernel_matrix_adjoint(
    x1: np.ndarray,
    x2: np.ndarray,
    params: KernelParams,
    k: np.ndarray,
    k_bar: np.ndarray,
):
    """Pull the adjoint k_bar of K = kernel_matrix(x1, x2, params) back.

    With W = k_bar * K and r_ld = (x1_ld - x2_jd)^2 / l_d^2 per pair,
    dK/dlog s2 = K, dK/dlog l_d = K r_ld and dK/dx1_id = -K (x1_id -
    x2_jd) / l_d^2.  Returns (d_log_lengthscales, d_log_signal_variance,
    d_x1, d_x2).  When x1 and x2 are the same array, its adjoint is
    d_x1 + d_x2.
    """
    x1 = _check_inputs(x1, params, "x1")
    x2 = _check_inputs(x2, params, "x2")
    inv = params.lengthscales ** -2.0
    w = k_bar * k
    rows = w.sum(axis=1)
    cols = w.sum(axis=0)
    w_x2 = w @ x2
    d_x1 = (w_x2 - rows[:, None] * x1) * inv
    d_x2 = (w.T @ x1 - cols[:, None] * x2) * inv
    d_ell = (rows @ (x1 * x1) + cols @ (x2 * x2) - 2.0 * np.sum(x1 * w_x2, axis=0)) * inv
    return d_ell, float(w.sum()), d_x1, d_x2


def kernel_diag(x: np.ndarray, params: KernelParams) -> np.ndarray:
    """diag k(x, x), which is constant s2 for this kernel."""
    x = _check_inputs(x, params, "x")
    return np.full(x.shape[0], params.signal_variance)

