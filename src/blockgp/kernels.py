"""Squared-exponential kernel with per-dimension lengthscales.

k(x, x') = s2 * exp(-0.5 * sum_d (x_d - x'_d)^2 / l_d^2).

Parameters are stored on log scale so optimizers can move freely in R.

Evaluation order.  With a = x1 / l and b = x2 / l, the kernel is built in
one array, in place:

    k = (n_a + n_b) + a b^T,   n_a = -0.5 |a|^2,   n_b = -0.5 |b|^2,
    k = s2 * exp(min(k, 0)).

This is bitwise the textbook order s2 * exp(-0.5 * max(S - 2 a b^T, 0))
with S = |a|^2 + |b|^2.  Scaling by a power of two is exact, so it
commutes with rounding: -0.5 * fl(S - fl(2 a b^T)) = fl(-0.5 S + fl(a b^T)),
and -0.5 * max(., 0) is min(-0.5 * ., 0).  (Halving a subnormal can round,
but exp of anything that small is 1 either way.)  |a|^2 is a running sum
over the coordinates, the order numpy's sum over the last axis takes for
up to 7 of them (from 8 on it sums pairwise); tests/_oracles.py keeps the
textbook order as the reference.  Only the output and one product of its
size are held at once, where the textbook order holds about three.
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


def _half_neg_sq_norm(a: np.ndarray) -> np.ndarray:
    """-0.5 * sum_d a[..., d]^2, summed one coordinate at a time."""
    n = a[..., 0] ** 2
    for d in range(1, a.shape[-1]):
        n += a[..., d] ** 2
    n *= -0.5
    return n


def _se(x1: np.ndarray, x2: np.ndarray, params: KernelParams) -> np.ndarray:
    """SE kernel between the rows of x1 and x2 over their last two axes."""
    ell = params.lengthscales
    with np.errstate(**QUIET):
        a = x1 / ell
        b = x2 / ell
        na = _half_neg_sq_norm(a)
        nb = na if x2 is x1 else _half_neg_sq_norm(b)
        k = np.add(na[..., :, None], nb[..., None, :])
        # a and b are two buffers also when x2 is x1: numpy sends a product
        # of an array with its own transpose to BLAS syrk, whose last bits
        # differ from gemm's.  Only the norms are shared.
        k += a @ np.swapaxes(b, -1, -2)
        np.minimum(k, 0.0, out=k)
        np.exp(k, out=k)
        k *= params.signal_variance
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
    d_x1).  x2's adjoint is the first input's of the transposed call,
    kernel_matrix_adjoint(x2, x1, params, k.T, k_bar.T); when x1 and x2
    are the same array, its adjoint is the sum of the two.  Like _se, it
    broadcasts over leading stack axes: for K = kernel_stack(xs) of a
    (B, n, D) stack, x1 = x2 = xs, and the parameter adjoints are summed
    over the stack.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    inv = params.lengthscales ** -2.0
    w = k_bar * k
    rows = w.sum(axis=-1)
    cols = w.sum(axis=-2)
    w_x2 = w @ x2
    d_x1 = (w_x2 - rows[..., None] * x1) * inv
    dim = x1.shape[-1]
    with np.errstate(**QUIET):
        d_ell = (
            rows.reshape(-1) @ (x1 * x1).reshape(-1, dim)
            + cols.reshape(-1) @ (x2 * x2).reshape(-1, dim)
            - 2.0 * np.sum((x1 * w_x2).reshape(-1, dim), axis=0)
        ) * inv
    return d_ell, float(w.sum()), d_x1


def kernel_diag(x: np.ndarray, params: KernelParams) -> np.ndarray:
    """diag k(x, x), which is constant s2 for this kernel."""
    x = _check_inputs(x, params, "x")
    return np.full(x.shape[0], params.signal_variance)

