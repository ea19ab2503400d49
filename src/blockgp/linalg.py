"""Dense positive-definite linear algebra shared by every objective.

Three things live here: a Cholesky wrapper with an escalating diagonal
jitter ladder, its batched form for stacks of equal-size blocks, and the
log-density of a Gaussian whose covariance is "low rank plus block noise",

    N(y; 0, Kfu Kuu^-1 Kuf + blkdiag(R_1, ..., R_B)),

evaluated through the matrix inversion and determinant lemmas so the
N x N covariance is never formed, from M x M and M-sized sums that
take the points a chunk at a time.  The noise comes as sigma2 I or as the
factors of its blocks, a (B_s, n_s, n_s) stack of equal-size blocks at a
time, as chol_stack gives them; the objectives factor each block once
and hand the same factors on.  Cost is O(N M^2 + sum_b Nb^3 + M^3).

A factor is accepted only if its smallest squared pivot exceeds n eps
times the matrix's mean diagonal; a smaller pivot is rounding noise (the
matrix is singular to working precision), so it fails like a negative
one and the jitter ladder runs, in chol and per block in chol_stack.
Solves against a triangular factor do triangular work only, O(n^2) a
right-hand side for a block of n points: a single factor's solves go
straight to BLAS (trsv for a vector, trsm from the right for a matrix,
so a C-ordered right-hand side needs no reordering copy); a stack's
small blocks by forward substitution vectorized over the stack, large
ones by LAPACK's trtrs one block at a time (stack_half_solve).  No LU
factorization is ever made of a triangle.

A stack of blocks up to BATCHED_INVERSE_MAX (64) points is factored by
one batched np.linalg.cholesky and inverted by batched substitution, so
the many small blocks of a fine partition cost a few array calls.  A
stack of larger blocks goes one block at a time through LAPACK: potrf
for the factor, and for the inverse (L L^T)^-1 a recursive triangular
inverse whose off-diagonal pieces are gemm products (_lower_inverse)
and lauum's (L^-1)^T L^-1.  At 200 points a block, one BLAS thread,
chol_stack took 185 us a block against 451 for a symmetrizing pass and
one batched call, and stack_inverse 286 against potri's 497; at 400,
1182 against 1891 and 1723 against 3330.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import blas, lapack

# Jitter ladder: relative to the mean diagonal, multiplied by
# JITTER_GROWTH on each failed attempt until JITTER_CAP.
JITTER_START = 1e-10
JITTER_GROWTH = 10.0
JITTER_CAP = 1e-2


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Matrix stayed non positive definite after the whole jitter ladder."""


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L L^T = A + jitter_used * I.

    As chol builds it, L's smallest squared pivot is above n eps times
    A's mean diagonal.  half_solve, half_solve_t and solve take a vector
    or an (n, k) matrix, call BLAS directly and return a new array; a
    right-hand side with a nan or inf raises FloatingPointError.
    """

    lower: np.ndarray
    jitter_used: float = 0.0

    @property
    def size(self) -> int:
        return self.lower.shape[0]

    def logdet(self) -> float:
        """log det(A + jitter_used * I), via the factor diagonal."""
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    # Solves go straight to BLAS.  A matrix b is solved from the right,
    # (L^-1 b)^T = b^T L^-T, by trsm on b^T: a C-ordered b is then already
    # in BLAS's column order, where scipy's left-side solve_triangular first
    # copies it there and checks its inputs again.  A vector goes to trsv.
    # BLAS solves in a copy of b, so the caller's array is never
    # overwritten; L itself is copied to column order, M^2 entries.  With
    # one BLAS thread on a 2-core Xeon, L^-1 b at M=32 with 2000 columns
    # took 330 against 880 us, and 170 against 630 us at M=8 with 6000.

    def half_solve(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b."""
        return self._solve(b, trans=0)

    def half_solve_t(self, b: np.ndarray) -> np.ndarray:
        """L^-T b."""
        return self._solve(b, trans=1)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(A + jitter_used * I)^-1 b."""
        return self.half_solve_t(self.half_solve(b))

    def _solve(self, b: np.ndarray, trans: int) -> np.ndarray:
        """L^-1 b (trans 0) or L^-T b (trans 1) for a vector or matrix b."""
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != self.size:
            raise ValueError(
                f"right-hand side of shape {b.shape} does not fit a factor of size {self.size}"
            )
        if not np.isfinite(b).all():
            raise FloatingPointError("right-hand side of a triangular solve is not finite")
        if b.size == 0:
            return np.zeros(b.shape)
        if b.ndim == 1:
            return blas.dtrsv(self.lower, b, lower=1, trans=trans)
        return blas.dtrsm(1.0, self.lower, b.T, side=1, lower=1, trans_a=1 - trans).T


def chol(a: np.ndarray) -> CholeskyFactor:
    """Cholesky factorization with an escalating jitter ladder.

    The input is symmetrized as (A + A^T)/2 first.  Factorization is
    attempted with no jitter, then with JITTER_START times the mean
    diagonal, growing by JITTER_GROWTH per attempt.  An attempt fails
    when LAPACK finds a non-positive pivot, and also when the smallest
    squared pivot is at most n eps times the mean diagonal (eps times the
    trace): such a pivot is rounding noise, the matrix is singular to
    working precision, and log det and every solve through the factor
    would be noise too.  Past JITTER_CAP times the mean diagonal,
    NotPositiveDefiniteError is raised.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    if n == 0:
        return CholeskyFactor(lower=np.zeros((0, 0)), jitter_used=0.0)
    scale = float(np.mean(np.diag(a)))
    jitter = 0.0
    while True:
        try:
            lower = np.linalg.cholesky(a if jitter == 0.0 else a + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            pass
        else:
            if np.min(np.diag(lower)) ** 2 > np.finfo(float).eps * n * scale:
                return CholeskyFactor(lower=lower, jitter_used=jitter)
        if scale <= 0.0 or not np.isfinite(scale):
            raise NotPositiveDefiniteError(
                f"matrix of size {n} has non-positive mean diagonal {scale!r}"
            )
        jitter = JITTER_START * scale if jitter == 0.0 else jitter * JITTER_GROWTH
        if jitter > JITTER_CAP * scale:
            raise NotPositiveDefiniteError(
                f"matrix of size {n} not positive definite at jitter "
                f"{jitter / JITTER_GROWTH:g} (cap {JITTER_CAP * scale:g})"
            )


# Blocks up to this size are factored and inverted batched over the stack:
# one np.linalg.cholesky call, and L_b^-1 by stack_half_solve on the
# identity with one batched product.  Larger ones go one at a time: LAPACK's
# potrf, and _lower_inverse's L^-1, with lauum's (L^-1)^T L^-1.  With one
# BLAS thread on a 2-core Xeon, stacks of 2^16 entries, 10 alternating
# repeats, median us a block, batched against one block at a time:
#   points                      32     48     64     65     96    128
#   factor (potrf)             4/7  14/14  16/15  18/16  35/34 124/117
#   inverse (_lower_inverse) 20/19  35/34  46/44  50/38 174/73 299/154
# (the batched factor won 10, 9, 0, 0, 0 and 2 of 10; the batched inverse
# 2, 2, 0, 1, 0 and 0).  Up to 64 points the two are within 10 % but for
# the factor at 32, so those blocks keep the batched path and its bits;
# past 64 the inverse is 1.3 to 2.4 times faster alone.  The same size is
# _lower_inverse's leaf: one 200-point block took 442, 437, 428 and 435 us
# with leaves of 32, 48, 64 and 96 points, and 1231, 1197, 1215 and 1249
# at 300, against potri's 779 and 1900.
BATCHED_INVERSE_MAX = 64


def chol_stack(a: np.ndarray):
    """Cholesky factors of a (B, n, n) stack, with chol's jitter ladder.

    Every matrix of the stack must be symmetric to the bit, as gap_factors
    builds them: only the lower triangle is read, and nothing symmetrizes
    it first.  A stack of blocks up to BATCHED_INVERSE_MAX points is
    factored in one batched call, a larger one by LAPACK's potrf a block
    at a time; then each block's smallest squared pivot is held to chol's
    rule (above eps times the block's trace) in a fixed number of array
    operations.  If any matrix in it is not positive definite, or fails
    the pivot rule, every matrix of the stack goes through chol one at a
    time, so the jitter each one gets, and the error past the ladder's
    cap, are chol's.  Returns the (B, n, n) lower factors and the (B,)
    jitters.
    """
    lower = _factor_stack(a)
    if lower is not None:
        pivots = np.diagonal(lower, 0, 1, 2)
        if np.all(np.min(pivots, axis=1) ** 2 > np.finfo(float).eps * np.trace(a, 0, 1, 2)):
            return lower, np.zeros(a.shape[0])
    factors = [chol(ab) for ab in a]
    return np.stack([f.lower for f in factors]), np.array([f.jitter_used for f in factors])


def _factor_stack(a: np.ndarray):
    """The lower Cholesky factors of a symmetric (B, n, n) stack, zero
    above the diagonal, or None if a matrix in it is not positive definite."""
    if a.shape[-1] <= BATCHED_INVERSE_MAX:
        try:
            return np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return None
    lower = np.empty(a.shape)
    for b, ab in enumerate(a):
        lower[b], info = lapack.dpotrf(ab, lower=1, clean=1)
        if info != 0:
            return None
    return lower


def stack_logdet(lower: np.ndarray) -> float:
    """sum_b log det(L_b L_b^T) over a (B, n, n) stack of lower factors."""
    return 2.0 * float(np.sum(np.log(np.diagonal(lower, 0, 1, 2))))


# Blocks up to this size are solved by forward substitution vectorized over
# the stack (n steps, each one batched row-times-solution product); larger
# ones go one at a time through LAPACK's trtrs.  With one BLAS thread on a
# 2-core Xeon, stacks of 2^16 entries, median of 10 repeats, one
# right-hand side: substitution 1.2, 3.2 and 4.5 us a block at 24, 32 and
# 40 points, trtrs 1.5, 1.7 and 1.7 us; 32 right-hand sides: substitution
# 7.4, 15 and 13 us, trtrs 11, 15 and 11 us.  A factor's solves come in
# such pairs (W and y in LowRankGaussian), within 15 % of each other
# either way at 32 points; trtrs is 5 times faster at 200.  stack_inverse's
# batched path solves through here on the identity, so its blocks of 33 to
# BATCHED_INVERSE_MAX points go through trtrs.
SUBSTITUTION_MAX = 32


def stack_half_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L_b^-1 b_b for a (B, n, n) stack of lower factors and (B, n, k) b."""
    n = lower.shape[-1]
    x = np.empty(b.shape)
    if n <= SUBSTITUTION_MAX:
        for i in range(n):
            done = lower[:, i : i + 1, :i] @ x[:, :i]  # (B, 1, k)
            x[:, i] = (b[:, i] - done[:, 0]) / lower[:, i, i, None]
        return x
    for j, low in enumerate(lower):
        # low.T is L^T in Fortran order, so trtrs solves with L without a copy
        x[j], info = lapack.dtrtrs(low.T, b[j], lower=0, trans=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"trtrs failed on block {j} (info {info})")
    return x


def stack_inverse(lower: np.ndarray) -> np.ndarray:
    """(L_b L_b^T)^-1 for a (B, n, n) stack of lower factors (zero above
    the diagonal, as chol_stack gives them), symmetric to the bit."""
    n = lower.shape[-1]
    if n <= BATCHED_INVERSE_MAX:
        eye = np.broadcast_to(np.eye(n), lower.shape)
        inv_l = stack_half_solve(lower, eye)
        return np.swapaxes(inv_l, -1, -2) @ inv_l
    out = np.empty(lower.shape)
    inv_l = np.empty((n, n))
    diag = np.arange(n)
    for b, low in enumerate(lower):
        _lower_inverse(low, inv_l)
        # inv_l.T is (L^-1)^T, upper and in Fortran order, so lauum forms
        # (L^-1)^T L^-1 in place in the lower triangle of inv_l
        tri, info = lapack.dlauum(inv_l.T, lower=0, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"lauum failed on block {b} (info {info})")
        tri = tri.T
        # tri is zero above the diagonal, so tri + tri^T is the inverse
        # but for its doubled diagonal
        np.add(tri, tri.T, out=out[b])
        out[b, diag, diag] = tri[diag, diag]
    return out


def _lower_inverse(low: np.ndarray, out: np.ndarray):
    """L^-1 of a lower factor into out, zero above the diagonal.

    L = [[A, 0], [B, C]] has the inverse [[A^-1, 0], [-C^-1 B A^-1, C^-1]]:
    A^-1 and C^-1 recursively, down to pieces of at most
    BATCHED_INVERSE_MAX points that LAPACK's trtri inverts, and the corner
    in two matrix products, at gemm speed where trtri's own triangular
    kernels are slow.  This is the recursive form of LAPACK's blocked
    trtri, with its products by gemm rather than trmm, and in the same
    stability class (Du Croz and Higham 1992).
    """
    n = low.shape[0]
    if n <= BATCHED_INVERSE_MAX:
        out[...], info = lapack.dtrtri(low, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"trtri failed on a factor of size {n} (info {info})")
        return
    h = n // 2
    _lower_inverse(low[:h, :h], out[:h, :h])
    _lower_inverse(low[h:, h:], out[h:, h:])
    out[:h, h:] = 0.0
    corner = low[h:, :h] @ out[:h, :h]
    np.negative(corner, out=corner)
    np.matmul(out[h:, h:], corner, out=out[h:, :h])


class LowRankGaussian:
    """N(0, Q + R) with the low-rank part Q = Kfu Kuu^-1 Kuf, through sums.

    Built empty from the Cholesky factor Lu of Kuu and sigma2; add takes
    the points a chunk at a time: the chunk's columns of the whitened
    cross term V = Lu^-1 Kuf (so Q = V^T V), their targets y and the
    chunk's noise, sigma2 I or, for block noise, ``stacks``: (lower,
    jitter) for each (B_s, n_s) stack of equal-size blocks in column
    order, the stacks one after another covering the chunk's columns once,
    with the (B_s, n_s, n_s) lower factors L_b of the R_b and the jitters
    they needed, as chol_stack returns them.  Each chunk is projected,
    W_c = blkdiag(L_b)^-1 V_c^T and t_c = blkdiag(L_b)^-1 y_c
    (stack_half_solve, O(n_s^2 M) a block of n_s points), into the only
    sums held, each M x M or M-sized: the capacitance B = I + sum_c W_c^T
    W_c, c = sum_c W_c^T t_c, |t|^2 and sum_b log det R_b.  There is no
    N x M W:

        log det(Q + R) = log det B + sum_b log det R_b
        y^T (Q + R)^-1 y = |t|^2 - |L_B^-1 c|^2.

    ``posterior`` returns mean and covariance of p(u) N(y; A u, R)
    renormalized, with A = Kfu Kuu^-1: S = Lu B^-1 Lu^T,
    m = Lu B^-1 c.  ``logdet_noise`` is sum_b log det R_b, from the factors
    L_b, and ``jitter_used`` the largest jitter Lu, an L_b or B's factor
    needed.
    """

    def __init__(self, kuu_chol: CholeskyFactor, sigma2: float):
        if sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be positive, got {sigma2!r}")
        self._lu = kuu_chol
        self._sigma2 = sigma2
        m = kuu_chol.size
        self._gram = np.zeros((m + 1, m + 1))  # sum_c [W_c t_c]^T [W_c t_c]
        self._n = self._n_iid = 0
        self._logdet_stacks = 0.0
        self._noise_jitter = 0.0
        self._bchol = None

    def add(self, v: np.ndarray, y: np.ndarray, stacks: Iterable = ()):
        """Add one chunk: v (M, c), the chunk's columns of V, their targets
        y (c,) and, for block noise, the chunk's stacks."""
        m, n = v.shape
        if self._lu.size != m:
            raise ValueError("Kuu factor and V disagree on the number of inducing points")
        if np.shape(y) != (n,):
            raise ValueError(f"y has shape {np.shape(y)}, expected ({n},) for V's columns")
        stacks = list(stacks)
        rhs = np.empty((n, m + 1))
        rhs[:, :m] = v.T
        rhs[:, m] = y
        if not stacks:
            self._n_iid += n
        else:
            covered = sum(lower.shape[0] * lower.shape[1] for lower, _ in stacks)
            if covered != n:
                raise ValueError(f"noise stacks cover {covered} columns, not the chunk's {n}")
            for lower, jitter in stacks:
                self._logdet_stacks += stack_logdet(lower)
                self._noise_jitter = max(self._noise_jitter, float(np.max(jitter)))
        w = self._noise_half_solve(rhs, stacks)
        self._gram += w.T @ w
        self._n += n
        self._bchol = None

    def _noise_half_solve(self, b: np.ndarray, stacks) -> np.ndarray:
        """blkdiag(L_b)^-1 b for b of shape (c, k), one stack_half_solve a
        stack of the chunk's stacks, or for none b / sigma, divided in place."""
        if not stacks:
            b /= np.sqrt(self._sigma2)
            return b
        out, start = np.empty(b.shape), 0
        for lower, _ in stacks:
            nb, s = lower.shape[:2]
            rows = slice(start, start + nb * s)
            out[rows] = stack_half_solve(lower, b[rows].reshape(nb, s, -1)).reshape(nb * s, -1)
            start = rows.stop
        return out

    @property
    def logdet_noise(self) -> float:
        return self._logdet_stacks + self._n_iid * np.log(self._sigma2)

    @property
    def jitter_used(self) -> float:
        return max(self._lu.jitter_used, self._noise_jitter, self._factor().jitter_used)

    def _factor(self) -> CholeskyFactor:
        """The factor of the capacitance B = I + sum_c W_c^T W_c."""
        if self._bchol is None:
            m = self._lu.size
            self._bchol = chol(np.eye(m) + self._gram[:m, :m])
        return self._bchol

    def _whitened_c(self) -> np.ndarray:
        """L_B^-1 c."""
        m = self._lu.size
        return self._factor().half_solve(self._gram[:m, m])

    def logpdf(self) -> float:
        m = self._lu.size
        w = self._whitened_c()
        quad = float(self._gram[m, m]) - float(w @ w)
        ld = self.logdet_noise + self._factor().logdet()
        return -0.5 * (self._n * np.log(2.0 * np.pi) + ld + quad)

    def posterior(self):
        """Mean and Cholesky factor of the u-posterior under this likelihood."""
        w = self._whitened_c()
        f = self._factor().half_solve(self._lu.lower.T)
        mean = f.T @ w
        cov = f.T @ f
        return mean, chol(cov)
