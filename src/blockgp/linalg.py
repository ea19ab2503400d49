"""Dense positive-definite linear algebra shared by every objective.

Three things live here: a Cholesky wrapper with an escalating diagonal
jitter ladder, its batched form for stacks of equal-size blocks, and the
log-density of a Gaussian whose covariance is "low rank plus block noise",

    N(y; 0, Kfu Kuu^-1 Kuf + blkdiag(A_1, ..., A_B) + sigma2 * I),

evaluated through the matrix inversion and determinant lemmas so the
N x N covariance is never formed.  Cost is O(N M^2 + sum_b Nb^3 + M^3);
the per-block work is batched by block size, one factorization and one
triangular solve for each stack of equal-size blocks.
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


def chol_stack(a: np.ndarray):
    """Cholesky factors of a (B, n, n) stack, with chol's jitter ladder.

    The stack is symmetrized and factored in one call.  If any matrix in
    it is not positive definite, every matrix of the stack goes through
    chol one at a time, so the jitter each one gets, and the error past
    the ladder's cap, are chol's.  Returns the (B, n, n) lower factors
    and the (B,) jitters.
    """
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    try:
        return np.linalg.cholesky(a), np.zeros(a.shape[0])
    except np.linalg.LinAlgError:
        factors = [chol(ab) for ab in a]
    return np.stack([f.lower for f in factors]), np.array([f.jitter_used for f in factors])


def stack_logdet(lower: np.ndarray) -> float:
    """sum_b log det(L_b L_b^T) over a (B, n, n) stack of lower factors."""
    return 2.0 * float(np.sum(np.log(np.diagonal(lower, 0, 1, 2))))


@dataclass(frozen=True)
class BlockNoise:
    """Noise covariance sigma2 * I plus an optional block-diagonal part.

    ``partition`` holds index arrays into 0..N-1, each one block or a
    (B_s, n_s) stack of equal-size blocks, and ``blocks`` the matching
    dense PSD matrices, (n_s, n_s) or (B_s, n_s, n_s); an entry may be
    None for a pure sigma2 * I block.  With no partition the noise is
    plain iid.
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


class BlockFactors:
    """Factors L_b of the blocks R_b = sigma2 I + A_b of a BlockNoise.

    Each entry of the partition, one block or a stack of equal-size
    blocks, is factored by chol_stack in one call; iid noise has
    L = sqrt(sigma2) I.  ``logdet`` is sum_b log det R_b and
    ``jitter_used`` the largest jitter a block needed.
    """

    def __init__(self, noise: BlockNoise, n: int):
        self.sigma2 = noise.sigma2
        self.stacks = []  # (index stack (B_s, n_s), lower factors (B_s, n_s, n_s))
        self.jitter_used = 0.0
        self.logdet = n * np.log(noise.sigma2)
        if noise.partition is None:
            return
        covered = np.concatenate([np.ravel(ix) for ix in noise.partition])
        if len(covered) != n or not np.array_equal(np.sort(covered), np.arange(n)):
            raise ValueError("noise partition must cover each of the N indices once")
        self.logdet = 0.0
        for ix, a in zip(noise.partition, noise.blocks):
            ix = np.atleast_2d(np.asarray(ix, dtype=int))
            shape = (ix.shape[0], ix.shape[1], ix.shape[1])
            a = 0.0 if a is None else np.reshape(a, shape)
            r = noise.sigma2 * np.eye(ix.shape[1]) + a
            lower, jitter = chol_stack(np.broadcast_to(r, shape))
            self.stacks.append((ix, lower))
            self.logdet += stack_logdet(lower)
            self.jitter_used = max(self.jitter_used, float(jitter.max()))

    def half_solve(self, b: np.ndarray) -> np.ndarray:
        """blkdiag(L_b)^-1 b for b of shape (N, k), one batched solve per stack."""
        if not self.stacks:
            return b / np.sqrt(self.sigma2)
        out = np.empty(b.shape)
        for ix, lower in self.stacks:
            out[ix] = np.linalg.solve(lower, b[ix])
        return out


class LowRankGaussian:
    """N(0, V^T V scaled back + R) where the low-rank part is Q = Kfu Kuu^-1 Kuf.

    Built from the Cholesky factor Lu of Kuu and the whitened cross
    term V = Lu^-1 Kuf, so Q = V^T V.  R comes from a BlockNoise.  The
    core quantities are the block factors L_b of R_b (BlockFactors),
    W = blkdiag(L_b)^-1 V^T, whose block rows are the projected blocks
    U_b^T = L_b^-1 V_b^T, and the capacitance B = I + W^T W:

        log det(Q + R) = log det B + sum_b log det R_b
        y^T (Q + R)^-1 y = |t|^2 - |L_B^-1 c|^2,
        t = blkdiag(L_b)^-1 y,  c = W^T t.

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
        self._rfac = BlockFactors(noise, n)
        self._w = self._rfac.half_solve(v.T)
        self._bchol = chol(np.eye(m) + self._w.T @ self._w)
        self.logdet_noise = self._rfac.logdet
        self.jitter_used = max(
            kuu_chol.jitter_used, self._rfac.jitter_used, self._bchol.jitter_used
        )

    def _whiten_y(self, y: np.ndarray):
        """t = blkdiag(L_b)^-1 y and the projected vector c = W^T t."""
        t = self._rfac.half_solve(y[:, None])[:, 0]
        return t, self._w.T @ t

    def logpdf(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != self._n:
            raise ValueError(f"y has length {y.shape[0]}, expected {self._n}")
        t, c = self._whiten_y(y)
        w = self._bchol.half_solve(c)
        quad = float(t @ t) - float(w @ w)
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

