"""Collapsed and uncollapsed variational objectives for sparse GP regression.

All bounds here share one structure: a Gaussian fit term that uses the
low-rank surrogate Q = Kfu Kuu^-1 Kuf in place of Kff, minus a penalty
that charges for the conditional gap D = Kff - Q.  The family differs
only in how much of D the penalty keeps:

    SGPR         trace penalty, diag(D) / (2 sigma2)
    Spherical    one shared scalar scale on D's diagonal
    T-SGPR       one scale per point (log(1 + d_nn / sigma2) penalty)
    SharedBlock  one scale matrix shared across equal-size blocks
    BT-SGPR      one scale matrix per block (log det penalty)

Each collapsed form equals the corresponding uncollapsed evidence lower
bound at the optimal Gaussian q(u); both routes are implemented and the
tests hold them together.  A dense oracle over arbitrary PSD scalings C
of the full conditional covariance backs the optimality claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .kernels import kernel_diag, kernel_matrix, kernel_matrix_adjoint, kernel_stack
from .linalg import BlockNoise, CholeskyFactor, LowRankGaussian, chol, chol_stack, stack_logdet
from .model import GaussianQU, ModelState, Partition

# Dense oracles refuse anything bigger than this.
DENSE_CAP = 2000

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class BoundBreakdown:
    """Objective value split into its fit and penalty parts.

    total = fit_term + regularizer.  fit_term is the Gaussian marginal
    (or expected log-likelihood plus -KL for uncollapsed forms) and
    regularizer collects the gap penalties, so tightening claims can be
    checked term by term.  jitter_used is the largest diagonal jitter
    any factorization in the evaluation needed.
    """

    total: float
    fit_term: float
    regularizer: float
    jitter_used: float = 0.0


class PreparedBound:
    """Kernel and Cholesky work shared by every objective at one state.

    Holds Lu (factor of Kuu), the whitened cross term V = Lu^-1 Kuf,
    and the clamped diagonal of the conditional gap D = Kff - V^T V.
    Dense D blocks are built on demand, a whole stack of equal-size
    blocks at a time; the full N x N gap is never built by the bounds
    themselves.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, state: ModelState):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-d, got shape {x.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        self.x = x
        self.y = y
        self.state = state
        self.luu = chol(kernel_matrix(state.inducing, state.inducing, state.kernel))
        self.v = self.luu.half_solve(kernel_matrix(state.inducing, x, state.kernel))
        raw = _raw_gap_diag(kernel_diag(x, state.kernel), self.v)
        self.diag_clamp = float(max(0.0, -raw.min())) if raw.size else 0.0
        self.gap_diag = np.maximum(raw, 0.0)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def sigma2(self) -> float:
        return self.state.noise.noise_variance

    def block_gaps(self, groups: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
        """Gap blocks D[idx, idx] with the clamped diagonal, stacked: one
        (B_s, n_s, n_s) array per (B_s, n_s) stack of block indices, from
        one kernel broadcast and one V_b^T V_b product, built as consumed."""
        for ix in groups:
            kbb = kernel_stack(self.x[ix], self.state.kernel)
            yield _gap_block(kbb, np.moveaxis(self.v[:, ix], 0, -2), self.gap_diag[ix])

    def block_gap(self, idx: np.ndarray) -> np.ndarray:
        """Dense conditional-gap block D[idx, idx] with the clamped diagonal."""
        return next(self.block_gaps([np.asarray(idx)[None]]))[0]

    def fit_gaussian(self, noise: BlockNoise) -> LowRankGaussian:
        return LowRankGaussian(self.luu, self.v, noise)

    def projector_t(self) -> np.ndarray:
        """A^T = Kuu^-1 Kuf, shape (M, N); A maps u to the prior mean of f."""
        return self.luu.half_solve_t(self.v)


def _raw_gap_diag(kff_diag: np.ndarray, v: np.ndarray) -> np.ndarray:
    """diag(Kff - V^T V) before clamping; rounding can make entries negative."""
    return kff_diag - np.sum(v * v, axis=0)


def _gap_block(kbb: np.ndarray, vb: np.ndarray, gap_diag: np.ndarray) -> np.ndarray:
    """Symmetrized K_bb - V_b^T V_b with the clamped diagonal put back.

    Stacks too: kbb (..., n, n), vb (..., M, n), gap_diag (..., n).
    """
    d = kbb - np.swapaxes(vb, -1, -2) @ vb
    d = 0.5 * (d + np.swapaxes(d, -1, -2))
    diag = np.arange(d.shape[-1])
    d[..., diag, diag] = gap_diag
    return d


def prepare(x: np.ndarray, y: np.ndarray, state: ModelState) -> PreparedBound:
    return PreparedBound(x, y, state)


def exact_lml(x: np.ndarray, y: np.ndarray, state: ModelState) -> BoundBreakdown:
    """Dense log marginal likelihood log N(y; 0, Kff + sigma2 I)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = y.shape[0]
    if n > DENSE_CAP:
        raise ValueError(f"exact_lml is dense; refusing N={n} > {DENSE_CAP}")
    kff = kernel_matrix(x, x, state.kernel)
    lk = chol(kff + state.noise.noise_variance * np.eye(n))
    w = lk.half_solve(y)
    total = -0.5 * (n * _LOG_2PI + lk.logdet() + float(w @ w))
    return BoundBreakdown(total, total, 0.0, lk.jitter_used)


def _collapsed(prep: PreparedBound, regularizer: float, extra_jitter: float = 0.0):
    gauss = prep.fit_gaussian(BlockNoise(sigma2=prep.sigma2))
    fit = gauss.logpdf(prep.y)
    jit = max(gauss.jitter_used, extra_jitter)
    return BoundBreakdown(fit + regularizer, fit, regularizer, jit)


def sgpr_collapsed(x, y, state: ModelState) -> BoundBreakdown:
    """Collapsed bound with the plain trace penalty sum_n d_nn / (2 sigma2)."""
    prep = prepare(x, y, state)
    return _collapsed(prep, *_gap_regularizer(prep, None, "trace"))


def tsgpr_collapsed(x, y, state: ModelState) -> BoundBreakdown:
    """Collapsed bound with a per-point scale, penalty sum_n log(1 + d_nn/sigma2)/2."""
    prep = prepare(x, y, state)
    return _collapsed(prep, *_gap_regularizer(prep, None, "diag"))


def tsgpr_optimal_scales(x, y, state: ModelState) -> np.ndarray:
    """Per-point optimal scales sigma2 / (sigma2 + d_nn), in (0, 1]."""
    prep = prepare(x, y, state)
    return prep.sigma2 / (prep.sigma2 + prep.gap_diag)


def btsgpr_collapsed(x, y, state: ModelState, partition: Partition) -> BoundBreakdown:
    """Collapsed bound with one scale matrix per block, log-det penalty."""
    prep = prepare(x, y, state)
    _check_partition(prep, partition)
    return _collapsed(prep, *_gap_regularizer(prep, partition, "logdet"))


def btsgpr_optimal_scales(x, y, state: ModelState, partition: Partition) -> List[np.ndarray]:
    """Per-block optimal scale matrices (I + D_bb / sigma2)^-1."""
    prep = prepare(x, y, state)
    _check_partition(prep, partition)
    scales = {}
    for ix, lower, _ in _scale_stacks(prep, partition):
        inv_l = np.linalg.solve(lower, np.eye(ix.shape[1]))
        scales.update(zip(ix[:, 0], np.swapaxes(inv_l, -1, -2) @ inv_l))
    return [scales[idx[0]] for idx in partition.blocks]


def btsgpr_parametric(
    x, y, state: ModelState, partition: Partition, scales: List[np.ndarray]
) -> BoundBreakdown:
    """Block bound at explicit PSD scale matrices, before optimizing them out.

    Penalty per block: tr(M_b D_bb)/(2 sigma2) + (tr M_b - log det M_b - N_b)/2.
    Maximized over M_b it reproduces btsgpr_collapsed.
    """
    prep = prepare(x, y, state)
    _check_partition(prep, partition)
    if len(scales) != partition.num_blocks:
        raise ValueError("need one scale matrix per block")
    reg = 0.0
    jit = 0.0
    for idx, mb in zip(partition.blocks, scales):
        mb = np.asarray(mb, dtype=float)
        if mb.shape != (idx.size, idx.size):
            raise ValueError("scale matrix shape does not match its block")
        lm = chol(mb)
        jit = max(jit, lm.jitter_used)
        reg -= 0.5 * (
            float(np.sum(mb * prep.block_gap(idx))) / prep.sigma2
            + float(np.trace(mb))
            - lm.logdet()
            - idx.size
        )
    return _collapsed(prep, reg, jit)


def sharedblock_collapsed(x, y, state: ModelState, partition: Partition) -> BoundBreakdown:
    """Collapsed bound with one scale matrix shared by all equal-size blocks."""
    prep = prepare(x, y, state)
    _check_partition(prep, partition)
    return _collapsed(prep, *_gap_regularizer(prep, partition, "shared"))


def sharedblock_optimal_scale(x, y, state: ModelState, partition: Partition) -> np.ndarray:
    """The shared optimal scale (I + mean_b D_bb / sigma2)^-1."""
    prep = prepare(x, y, state)
    _check_partition(prep, partition)
    lb = _shared_factor(prep, partition)
    return lb.solve(np.eye(lb.size))


def spherical_collapsed(x, y, state: ModelState) -> BoundBreakdown:
    """Collapsed bound with a single scalar scale; SharedBlock at block size 1."""
    prep = prepare(x, y, state)
    return _collapsed(prep, *_gap_regularizer(prep, None, "spherical"))


def spherical_optimal_scale(x, y, state: ModelState) -> float:
    """The single optimal scale 1 / (1 + mean_n d_nn / sigma2)."""
    prep = prepare(x, y, state)
    return float(1.0 / (1.0 + np.mean(prep.gap_diag) / prep.sigma2))


def general_c_oracle(x, y, state: ModelState, c: np.ndarray) -> BoundBreakdown:
    """Dense bound over an arbitrary PSD replacement C for the gap D.

    total = log N(y; 0, Q + sigma2 I)
            - tr[(D^-1 + I/sigma2) C] / 2 - log(|D| / |C|) / 2 + N / 2.

    D is factorized with the jitter ladder, so the oracle is only
    trustworthy when D is comfortably nonsingular.  Maximized over C it
    lands on C* = (D^-1 + I/sigma2)^-1, the single-block log-det bound.
    """
    prep = prepare(x, y, state)
    n = prep.n
    if n > DENSE_CAP:
        raise ValueError(f"general_c_oracle is dense; refusing N={n} > {DENSE_CAP}")
    c = np.asarray(c, dtype=float)
    if c.shape != (n, n):
        raise ValueError(f"C must be ({n}, {n}), got {c.shape}")
    d = prep.block_gap(np.arange(n))
    ld = chol(d)
    lc = chol(c)
    trace = float(np.sum(ld.solve(c) * np.eye(n))) + float(np.trace(c)) / prep.sigma2
    reg = -0.5 * trace - 0.5 * (ld.logdet() - lc.logdet()) + 0.5 * n
    return _collapsed(prep, reg, max(ld.jitter_used, lc.jitter_used))


def general_c_optimum(x, y, state: ModelState) -> np.ndarray:
    """The oracle's maximizer C* = (D^-1 + I/sigma2)^-1, computed densely."""
    prep = prepare(x, y, state)
    n = prep.n
    if n > DENSE_CAP:
        raise ValueError(f"general_c_optimum is dense; refusing N={n} > {DENSE_CAP}")
    d = prep.block_gap(np.arange(n))
    ld = chol(d)
    prec = ld.solve(np.eye(n)) + np.eye(n) / prep.sigma2
    cstar = chol(prec).solve(np.eye(n))
    return 0.5 * (cstar + cstar.T)


def optimal_qu(x, y, state: ModelState, noise: Optional[BlockNoise] = None) -> GaussianQU:
    """The q(u) maximizing the uncollapsed bound whose likelihood noise is R.

    q(u) is the exact posterior of u under y = A u + e, e ~ N(0, R),
    with A = Kfu Kuu^-1 and prior u ~ N(0, Kuu).  Default R = sigma2 I.
    """
    prep = prepare(x, y, state)
    if noise is None:
        noise = BlockNoise(sigma2=prep.sigma2)
    mean, cov_chol = prep.fit_gaussian(noise).posterior(prep.y)
    return GaussianQU(mean=mean, cov_chol=cov_chol)


def kl_qu(q: GaussianQU, state: ModelState) -> float:
    """KL[q(u) || N(0, Kuu)] for a Gaussian q."""
    luu = chol(kernel_matrix(state.inducing, state.inducing, state.kernel))
    if luu.size != q.dim:
        raise ValueError("q(u) dimension does not match the inducing set")
    return _kl_terms(luu, q)[0]


def _kl_terms(luu: CholeskyFactor, q: GaussianQU):
    """KL[q || N(0, Lu Lu^T)] with the whitened Lu^-1 L_q and Lu^-1 mean."""
    half = luu.half_solve(q.cov_chol.lower)
    a = luu.half_solve(q.mean)
    trace = float(np.sum(half * half))
    kl = 0.5 * (trace + float(a @ a) - q.dim + luu.logdet() - q.cov_chol.logdet())
    return kl, half, a


_PENALTIES = ("trace", "diag", "logdet", "shared", "spherical")
_SEPARABLE_PENALTIES = ("trace", "diag", "logdet")


def _check_partition(prep: PreparedBound, partition: Partition):
    if partition.n != prep.n:
        raise ValueError(
            f"partition covers {partition.n} points but data has {prep.n}"
        )


def _scale_stacks(prep: PreparedBound, partition: Partition):
    """Index stack, factors and jitters of I + D_bb / sigma2, a stack at a time."""
    for ix, gaps in zip(partition.groups, prep.block_gaps(partition.groups)):
        gaps /= prep.sigma2
        yield (ix, *chol_stack(gaps + np.eye(ix.shape[1])))


def _shared_factor(prep: PreparedBound, partition: Partition) -> CholeskyFactor:
    """Factor of I + mean_b D_bb / sigma2 over equal-size blocks."""
    if len(set(partition.block_sizes)) != 1:
        raise ValueError("SharedBlock requires equal block sizes")
    gaps = prep.block_gaps(partition.groups)
    avg = sum(g.sum(axis=0) for g in gaps) / partition.num_blocks
    return chol(np.eye(avg.shape[0]) + avg / prep.sigma2)


def _gap_regularizer(prep: PreparedBound, partition: Optional[Partition], penalty: str):
    """Minus the gap penalty of one of the _PENALTIES, and the jitter it needed."""
    s2 = prep.sigma2
    if penalty == "trace":
        return -0.5 * float(np.sum(prep.gap_diag)) / s2, 0.0
    if penalty == "diag":
        return -0.5 * float(np.sum(np.log1p(prep.gap_diag / s2))), 0.0
    if penalty == "spherical":
        return -0.5 * prep.n * float(np.log1p(float(np.mean(prep.gap_diag)) / s2)), 0.0
    if penalty == "shared":
        lb = _shared_factor(prep, partition)
        return -0.5 * partition.num_blocks * lb.logdet(), lb.jitter_used
    logdet, jit = 0.0, 0.0
    for _, lower, jitter in _scale_stacks(prep, partition):
        logdet += stack_logdet(lower)
        jit = max(jit, float(jitter.max()))
    return -0.5 * logdet, jit


def vi_uncollapsed(
    x,
    y,
    state: ModelState,
    partition: Partition,
    q: GaussianQU,
    penalty: str = "logdet",
) -> BoundBreakdown:
    """Uncollapsed evidence lower bound at an explicit Gaussian q(u).

    total = -KL[q || p] + sum_b E_q[log N(y_b; A_b u, sigma2 I)] - penalty.

    penalty selects the gap charge: "trace" (sum of d_nn / 2 sigma2,
    the plain collapsed bound's partner), "diag" (per-point
    log(1 + d_nn/sigma2)/2, the per-point bound's, valid under any
    grouping of the sum), "logdet" (per-block log det(I + D_bb/sigma2)/2,
    the block bound's partner), "shared" (one averaged log-det across
    equal-size blocks), or "spherical" (a single whole-dataset scale).
    """
    if penalty not in _PENALTIES:
        raise ValueError(f"penalty must be one of {_PENALTIES}, got {penalty!r}")
    prep = prepare(x, y, state)
    _check_partition(prep, partition)
    if q.dim != state.num_inducing:
        raise ValueError("q(u) dimension does not match the inducing set")

    resid = prep.y - prep.v.T @ prep.luu.half_solve(q.mean)
    h = prep.v.T @ prep.luu.half_solve(q.cov_chol.lower)
    kl = kl_qu(q, state)
    fit_sq = float(resid @ resid) + float(np.sum(h * h))
    fit = -0.5 * (prep.n * (_LOG_2PI + np.log(prep.sigma2)) + fit_sq / prep.sigma2)
    reg, jit = _gap_regularizer(prep, partition, penalty)
    total = -kl + fit + reg
    return BoundBreakdown(total, fit - kl, reg, max(prep.luu.jitter_used, jit))


@dataclass(frozen=True)
class BlockEstimate:
    """A single-block estimator's value and, when asked for, its gradient.

    The gradient is in the coordinates training moves: log lengthscales
    (D,), log signal variance, log noise variance, the inducing inputs
    (M, D), log m (zero for the variational penalties), and the q(u)
    mean and covariance factor, d_lower masked to the lower triangle.
    A value-only pass leaves the array fields None.
    """

    value: float
    d_log_lengthscales: Optional[np.ndarray] = None
    d_log_signal_variance: float = 0.0
    d_log_noise_variance: float = 0.0
    d_inducing: Optional[np.ndarray] = None
    d_log_m_scale: float = 0.0
    d_mean: Optional[np.ndarray] = None
    d_lower: Optional[np.ndarray] = None


_BLOCK_PENALTIES = _SEPARABLE_PENALTIES + ("pep",)


def _pep_gap_penalty(alpha: float, logdet_noise: float, n: int, sigma2: float) -> float:
    """-(1-a)/(2a) sum_b log det(I + a m D_bb / sigma2), from the R_b factors.

    R_b = sigma2 (I + a m D_bb / sigma2), so each block's log det is
    log det R_b - N_b log sigma2 (logdet_noise sums log det R_b over
    blocks covering n points); the jitter ladder is relative to the
    mean diagonal, so it scales by the same sigma2.
    """
    return -(1.0 - alpha) / (2.0 * alpha) * (logdet_noise - n * np.log(sigma2))


def _pep_whole_terms(n: int, alpha: float, m: float) -> float:
    """-N/(2a) log(1 + a(m-1)) + N/2 log m; zero at m = 1 and at a = 1."""
    return (
        -n / (2.0 * alpha) * float(np.log1p(alpha * (m - 1.0)))
        + 0.5 * n * float(np.log(m))
    )


def block_estimate(
    x,
    y,
    state: ModelState,
    partition: Partition,
    q: GaussianQU,
    block_index: int,
    penalty: str = "logdet",
    alpha: Optional[float] = None,
    m_scale: float = 1.0,
    gradient: bool = False,
) -> BlockEstimate:
    """Single-block estimator of an uncollapsed objective, from one block.

        value = -KL[q || p] + B * (E_b - penalty_b) + whole,

    B the number of blocks.  "trace", "diag" and "logdet" give the
    estimators of vi_uncollapsed: E_b = E_q[log N(y_b; A_b u, sigma2 I)]
    and whole = 0.  "pep" gives tpep_uncollapsed's, with noise
    R_b = alpha m D_bb + sigma2 I in E_b, penalty_b =
    (1-alpha)/(2 alpha) log det(I + alpha m D_bb / sigma2), read off the
    factor of R_b as log det R_b - N_b log sigma2, and whole =
    -N/(2 alpha) log(1 + alpha (m-1)) + N/2 log m.

    Only Kuu, K_ub and K_bb are built, so a call costs
    O(N_b M^2 + M^3 + N_b^3) whatever N is.  With gradient, adjoints run
    back through the same factors (reverse mode, Murray 2016): from the
    terms into R_b or I + D_bb/sigma2, into D_bb = K_bb - K_bu Kuu^-1 K_ub,
    through Kuu^-1 into the KL term, and through the kernel into its
    parameters and the inducing inputs.  A clamped entry on D's diagonal
    gets adjoint 0; jitter a factor needed is held constant.
    """
    if penalty not in _BLOCK_PENALTIES:
        raise ValueError(f"penalty must be one of {_BLOCK_PENALTIES}, got {penalty!r}")
    pep = penalty == "pep"
    if pep and (alpha is None or not 0.0 < alpha <= 1.0):
        raise ValueError(f"the power-EP estimator needs alpha in (0, 1], got {alpha}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = y.shape[0]
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"x of shape {x.shape} does not match {n} targets")
    if partition.n != n:
        raise ValueError(f"partition covers {partition.n} points but data has {n}")
    if q.dim != state.num_inducing:
        raise ValueError("q(u) dimension does not match the inducing set")
    idx = partition.blocks[block_index]
    nb = idx.size
    bw = float(partition.num_blocks)
    kern = state.kernel
    z = state.inducing
    xb = x[idx]
    s2 = state.noise.noise_variance

    kuu = kernel_matrix(z, z, kern)
    luu = chol(kuu)
    kub = kernel_matrix(z, xb, kern)
    vb = luu.half_solve(kub)
    raw = _raw_gap_diag(kernel_diag(xb, kern), vb)
    gap = np.maximum(raw, 0.0)
    full_gap = pep or penalty == "logdet"
    if full_gap:
        kbb = kernel_matrix(xb, xb, kern)
        dmat = _gap_block(kbb, vb, gap)

    lq = q.cov_chol.lower
    kl, half, w_mean = _kl_terms(luu, q)
    resid = y[idx] - vb.T @ w_mean
    h = vb.T @ half  # A_b L_q, A_b = K_bu Kuu^-1
    whole = 0.0
    if pep:
        a, m = alpha, m_scale
        c = (1.0 - a) / (2.0 * a)
        lr = chol(a * m * dmat + s2 * np.eye(nb))
        logdet_r = lr.logdet()
        white_r = lr.half_solve(resid)
        white_h = lr.half_solve(h)
        e_b = -0.5 * (
            nb * _LOG_2PI
            + logdet_r
            + float(white_r @ white_r)
            + float(np.sum(white_h * white_h))
        )
        pen = -_pep_gap_penalty(a, logdet_r, nb, s2)
        whole = _pep_whole_terms(n, a, m)
    else:
        fit_sq = float(resid @ resid) + float(np.sum(h * h))
        e_b = -0.5 * (nb * (_LOG_2PI + np.log(s2)) + fit_sq / s2)
        if penalty == "trace":
            pen = 0.5 * float(np.sum(gap)) / s2
        elif penalty == "diag":
            pen = 0.5 * float(np.sum(np.log1p(gap / s2)))
        else:
            lc = chol(np.eye(nb) + dmat / s2)
            pen = 0.5 * lc.logdet()
    value = -kl + bw * (e_b - pen) + whole
    if not gradient:
        return BlockEstimate(value=value)

    # KL term: adjoints of Kuu, the q(u) mean and its factor.
    at = luu.half_solve_t(vb)  # A_b^T = Kuu^-1 K_ub
    p_mean = luu.half_solve_t(w_mean)
    p_lq = luu.half_solve_t(half)
    g_uu = 0.5 * (p_lq @ p_lq.T + np.outer(p_mean, p_mean) - luu.solve(np.eye(q.dim)))
    d_mean = -p_mean
    d_lower = np.diag(1.0 / np.diag(lq)) - p_lq
    # Data term: adjoints of A_b (a_bar_t = A_b_bar^T), sigma2, m and D_bb
    # (d_bar, or its diagonal dd for the diagonal penalties).
    g_m = 0.0
    d_bar = None
    if pep:
        rho = lr.half_solve_t(white_r)  # R_b^-1 r
        g = lr.half_solve_t(white_h)  # R_b^-1 A_b L_q
        r_bar = bw * (0.5 * (np.outer(rho, rho) + g @ g.T) - (0.5 + c) * lr.solve(np.eye(nb)))
        d_bar = (a * m) * r_bar
        g_s2 = float(np.trace(r_bar)) + bw * c * nb / s2
        g_m = a * float(np.sum(r_bar * dmat)) + 0.5 * n * (
            1.0 / m - 1.0 / (1.0 + a * (m - 1.0))
        )
        a_bar_t = bw * (np.outer(q.mean, rho) - lq @ g.T)
        d_mean += bw * (at @ rho)
        d_lower -= bw * (at @ g)
    else:
        g_s2 = 0.5 * bw * (fit_sq / s2 - nb) / s2
        a_bar_t = (bw / s2) * (np.outer(q.mean, resid) - lq @ h.T)
        d_mean += (bw / s2) * (at @ resid)
        d_lower -= (bw / s2) * (at @ h)
        if penalty == "trace":
            dd = np.full(nb, -0.5 * bw / s2)
            g_s2 += 0.5 * bw * float(np.sum(gap)) / s2**2
        elif penalty == "diag":
            dd = -0.5 * bw / (s2 + gap)
            g_s2 += 0.5 * bw * float(np.sum(gap / (s2 * (s2 + gap))))
        else:
            cinv = lc.solve(np.eye(nb))
            d_bar = (-0.5 * bw / s2) * cinv
            g_s2 += 0.5 * bw * float(np.sum(cinv * dmat)) / s2**2
    if d_bar is not None:
        dd = np.diag(d_bar).copy()
    dd[raw <= 0.0] = 0.0

    # D_bb is K_bb - Q_bb off the diagonal and s2 - diag(Q_bb) on it, so
    # Q_bb = K_bu Kuu^-1 K_ub gets -D_bar (diagonal masked by the clamp);
    # Q_bb and A_b = K_bu Kuu^-1 then pass their adjoints to K_ub and Kuu.
    if d_bar is None:
        at_q = at * -dd
    else:
        q_bar = -d_bar
        np.fill_diagonal(q_bar, -dd)
        at_q = at @ q_bar
    y_bar = luu.solve(a_bar_t)
    g_ub = 2.0 * at_q + y_bar
    g_uu -= at_q @ at.T + at @ y_bar.T
    g_uu = 0.5 * (g_uu + g_uu.T)

    d_ell, d_ls2, d_z1, d_z2 = kernel_matrix_adjoint(z, z, kern, kuu, g_uu)
    e_ell, e_ls2, e_z, _ = kernel_matrix_adjoint(z, xb, kern, kub, g_ub)
    d_ell = d_ell + e_ell
    d_ls2 += e_ls2 + kern.signal_variance * float(np.sum(dd))
    if d_bar is not None:
        g_bb = d_bar.copy()
        np.fill_diagonal(g_bb, 0.0)
        f_ell, f_ls2, _, _ = kernel_matrix_adjoint(xb, xb, kern, kbb, g_bb)
        d_ell = d_ell + f_ell
        d_ls2 += f_ls2
    return BlockEstimate(
        value=value,
        d_log_lengthscales=d_ell,
        d_log_signal_variance=d_ls2,
        d_log_noise_variance=s2 * g_s2,
        d_inducing=d_z1 + d_z2 + e_z,
        d_log_m_scale=m_scale * g_m,
        d_mean=d_mean,
        d_lower=np.tril(d_lower),
    )


def vi_stochastic(
    x,
    y,
    state: ModelState,
    partition: Partition,
    q: GaussianQU,
    block_index: int,
    penalty: str = "logdet",
) -> float:
    """Single-block estimator of vi_uncollapsed: -KL + B * (E_b - penalty_b).

    Averaged over the uniform block index it reproduces the full bound;
    shared and spherical penalties are not block-separable, so only
    "trace", "diag" and "logdet" are accepted.  The value of
    block_estimate, which touches only the block's kernels.
    """
    if penalty not in _SEPARABLE_PENALTIES:
        raise ValueError("stochastic estimator needs a block-separable penalty")
    return block_estimate(x, y, state, partition, q, block_index, penalty).value


def uncollapsed_qu_gradient(
    x,
    y,
    state: ModelState,
    partition: Partition,
    q: GaussianQU,
    block_index: Optional[int] = None,
):
    """Gradient of the uncollapsed bound in (mean, cov factor) of q(u).

    With block_index the gradient is of the single-block estimator
    (KL part exact, data part upweighted by B), read off block_estimate;
    otherwise of the full bound.  The gap penalties do not touch q, so
    the penalty choice does not matter here.  Returns (d_mean, d_lower)
    with d_lower already masked to the lower triangle.
    """
    if block_index is not None:
        est = block_estimate(
            x, y, state, partition, q, block_index, penalty="trace", gradient=True
        )
        return est.d_mean, est.d_lower
    prep = prepare(x, y, state)
    _check_partition(prep, partition)
    s2 = prep.sigma2
    at = prep.projector_t()  # A^T, shape (M, N)
    resid = prep.y - at.T @ q.mean
    m = state.num_inducing
    d_mean = at @ resid / s2 - prep.luu.solve(q.mean)
    d_s = 0.5 * (q.cov_chol.solve(np.eye(m)) - prep.luu.solve(np.eye(m)))
    d_s = d_s - 0.5 * (at @ at.T) / s2
    d_s = 0.5 * (d_s + d_s.T)
    return d_mean, np.tril(2.0 * d_s @ q.cov_chol.lower)
