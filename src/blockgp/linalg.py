"""Dense positive-definite linear algebra shared by every objective.

Two things live here: a Cholesky wrapper with an escalating diagonal
jitter ladder, and the log-density of a Gaussian whose covariance is
"low rank plus block noise",

    N(y; 0, Kfu Kuu^-1 Kuf + blkdiag(A_1, ..., A_B) + sigma2 * I),

evaluated through the matrix inversion and determinant lemmas so the
N x N covariance is never formed.  Cost is O(N M^2 + sum_b Nb^3 + M^3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular

# Jitter ladder: relative to the mean diagonal, multiplied by
# JITTER_GROWTH on each failed attempt until JITTER_CAP.
JITTER_START = 1e-10
JITTER_GROWTH = 10.0
JITTER_CAP = 1e-2


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Matrix stayed non positive definite after the whole jitter ladder."""


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L L^T = A + jitter_used * I."""

    lower: np.ndarray
    jitter_used: float = 0.0

    @property
    def size(self) -> int:
        return self.lower.shape[0]

    def logdet(self) -> float:
        """log det(A + jitter_used * I), via the factor diagonal."""
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    def half_solve(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b."""
        return solve_triangular(self.lower, b, lower=True)

    def half_solve_t(self, b: np.ndarray) -> np.ndarray:
        """L^-T b."""
        return solve_triangular(self.lower.T, b, lower=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(A + jitter_used * I)^-1 b."""
        return self.half_solve_t(self.half_solve(b))


def chol(a: np.ndarray, symmetrize: bool = True) -> CholeskyFactor:
    """Cholesky factorization with an escalating jitter ladder.

    The input is symmetrized as (A + A^T)/2 first.  Factorization is
    attempted with no jitter, then with JITTER_START times the mean
    diagonal, growing by JITTER_GROWTH per attempt.  Past JITTER_CAP
    times the mean diagonal, NotPositiveDefiniteError is raised.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if symmetrize:
        a = 0.5 * (a + a.T)
    n = a.shape[0]
    if n == 0:
        return CholeskyFactor(lower=np.zeros((0, 0)), jitter_used=0.0)
    scale = float(np.mean(np.diag(a)))
    jitter = 0.0
    while True:
        try:
            lower = np.linalg.cholesky(a if jitter == 0.0 else a + jitter * np.eye(n))
            return CholeskyFactor(lower=lower, jitter_used=jitter)
        except np.linalg.LinAlgError:
            if scale <= 0.0 or not np.isfinite(scale):
                raise NotPositiveDefiniteError(
                    f"matrix of size {n} has non-positive mean diagonal {scale!r}"
                ) from None
            jitter = JITTER_START * scale if jitter == 0.0 else jitter * JITTER_GROWTH
            if jitter > JITTER_CAP * scale:
                raise NotPositiveDefiniteError(
                    f"matrix of size {n} not positive definite at jitter "
                    f"{jitter / JITTER_GROWTH:g} (cap {JITTER_CAP * scale:g})"
                ) from None


def logdet(factor: CholeskyFactor) -> float:
    return factor.logdet()


@dataclass(frozen=True)
class BlockNoise:
    """Noise covariance sigma2 * I plus an optional block-diagonal part.

    ``partition`` holds index arrays into 0..N-1 and ``blocks`` the
    corresponding dense PSD matrices (entries may be None for a pure
    sigma2 * I block).  With no partition the noise is plain iid.
    """

    sigma2: float
    partition: Optional[Sequence[np.ndarray]] = None
    blocks: Optional[Sequence[Optional[np.ndarray]]] = None

    def __post_init__(self):
        if self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2!r}")
        if (self.blocks is None) != (self.partition is None):
            raise ValueError("partition and blocks must be given together")
        if self.partition is not None and len(self.partition) != len(self.blocks):
            raise ValueError("partition and blocks must have equal length")


class LowRankGaussian:
    """N(0, V^T V scaled back + R) where the low-rank part is Q = Kfu Kuu^-1 Kuf.

    Built from the Cholesky factor Lu of Kuu and the whitened cross
    term V = Lu^-1 Kuf, so Q = V^T V.  R comes from a BlockNoise.  The
    core quantities are per-block factors L_b of R_b, the projected
    blocks U_b = V_b L_b^-T, and the capacitance B = I + sum_b U_b U_b^T:

        log det(Q + R) = log det B + sum_b log det R_b
        y^T (Q + R)^-1 y = sum_b |L_b^-1 y_b|^2 - |L_B^-1 c|^2,
        c = sum_b U_b L_b^-1 y_b.

    ``posterior`` returns mean and covariance of p(u) N(y; A u, R)
    renormalized, with A = Kfu Kuu^-1: S = Lu B^-1 Lu^T, m = Lu B^-1 c.
    ``logdet_noise`` is sum_b log det R_b, from the factors L_b.
    """

    def __init__(self, kuu_chol: CholeskyFactor, v: np.ndarray, noise: BlockNoise):
        m, n = v.shape
        if kuu_chol.size != m:
            raise ValueError("Kuu factor and V disagree on the number of inducing points")
        self._lu = kuu_chol
        self._n = n
        self._sigma2 = noise.sigma2
        jit = kuu_chol.jitter_used
        if noise.partition is None:
            sig = np.sqrt(noise.sigma2)
            self._idx = [np.arange(n)]
            self._rchol = [None]
            self._u = [v / sig]
            self.logdet_noise = n * np.log(noise.sigma2)
        else:
            self._idx = [np.asarray(ix, dtype=int) for ix in noise.partition]
            covered = np.concatenate(self._idx) if self._idx else np.empty(0, int)
            if len(covered) != n or not np.array_equal(np.sort(covered), np.arange(n)):
                raise ValueError("noise partition must cover each of the N indices once")
            self._rchol = []
            self._u = []
            self.logdet_noise = 0.0
            for ix, a in zip(self._idx, noise.blocks):
                nb = len(ix)
                r = noise.sigma2 * np.eye(nb)
                if a is not None:
                    r = r + np.asarray(a, dtype=float)
                lr = chol(r)
                jit = max(jit, lr.jitter_used)
                self._rchol.append(lr)
                self._u.append(lr.half_solve(v[:, ix].T).T)
                self.logdet_noise += lr.logdet()
        bmat = np.eye(m)
        for u in self._u:
            bmat += u @ u.T
        self._bchol = chol(bmat)
        self.jitter_used = max(jit, self._bchol.jitter_used)

    def _whiten_y(self, y: np.ndarray):
        """Per-block L_b^-1 y_b and the projected vector c = sum U_b t_b."""
        ts = []
        c = np.zeros(self._lu.size)
        for ix, lr, u in zip(self._idx, self._rchol, self._u):
            t = y[ix] / np.sqrt(self._sigma2) if lr is None else lr.half_solve(y[ix])
            ts.append(t)
            c += u @ t
        return ts, c

    def logpdf(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != self._n:
            raise ValueError(f"y has length {y.shape[0]}, expected {self._n}")
        ts, c = self._whiten_y(y)
        w = self._bchol.half_solve(c)
        quad = sum(float(t @ t) for t in ts) - float(w @ w)
        ld = self.logdet_noise + self._bchol.logdet()
        return -0.5 * (self._n * np.log(2.0 * np.pi) + ld + quad)

    def posterior(self, y: np.ndarray):
        """Mean and Cholesky factor of the u-posterior under this likelihood."""
        y = np.asarray(y, dtype=float).reshape(-1)
        _, c = self._whiten_y(y)
        w = self._bchol.half_solve(c)
        f = self._bchol.half_solve(self._lu.lower.T)
        mean = f.T @ w
        cov = f.T @ f
        return mean, chol(cov)


def gauss_logpdf_lowrank(
    y: np.ndarray, kfu: np.ndarray, kuu: np.ndarray, noise: BlockNoise
) -> float:
    """log N(y; 0, Kfu Kuu^-1 Kuf + R) without forming the N x N matrix."""
    kfu = np.asarray(kfu, dtype=float)
    luu = chol(np.asarray(kuu, dtype=float))
    v = luu.half_solve(kfu.T)
    return LowRankGaussian(luu, v, noise).logpdf(y)
