"""Power expectation propagation objectives for sparse GP regression.

The collapsed forms interpolate between the variational bounds (alpha
to 0) and FITC/PITC-style approximations (alpha = 1).  Per block the
likelihood noise picks up alpha times the scaled conditional gap
C_bb = m * D_bb, and the objective charges log-det penalties:

    total = log N(y; 0, Q + alpha * blkdiag(C_bb) + sigma2 I)
            - (1-alpha)/(2 alpha) * sum_b log det(I + alpha C_bb / sigma2)
            - N/(2 alpha) * log(1 + alpha (m - 1)) + N/2 * log m.

m = 1 recovers plain power EP; alpha -> 0 recovers the variational
log-det family; alpha = 1 leaves only the Gaussian fit term.

Besides the closed forms this module has the actual fixed-point
machinery: projected Gaussian site factors, a damped cavity /
moment-matching sweep, and the EP energy assembled from normalizer
and cavity terms.  At convergence the energy equals the collapsed
objective, which the tests enforce; the site closed form is checked
against an independent dense recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .bounds_vi import (
    BoundBreakdown,
    PreparedBound,
    _LOG_2PI,
    _check_partition,
    _pep_gap_penalty,
    _pep_whole_terms,
    block_estimate,
    kl_qu,
    prepare,
)
from .linalg import BlockFactors, BlockNoise, CholeskyFactor, chol
from .model import GaussianQU, ModelState, Partition


@dataclass(frozen=True)
class PepConfig:
    """Power-EP settings: the power alpha, the scalar gap scale m, the
    block partition, and the damped-iteration knobs (only pep_iterate
    reads the last three)."""

    alpha: float
    partition: Partition
    m_scale: float = 1.0
    damping: float = 0.5
    tol: float = 1e-8
    max_sweeps: int = 200

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.m_scale > 0.0:
            raise ValueError(f"m_scale must be positive, got {self.m_scale}")
        if not 1.0 + self.alpha * (self.m_scale - 1.0) > 0.0:
            raise ValueError(
                f"need 1 + alpha (m - 1) > 0; alpha={self.alpha}, m={self.m_scale}"
            )
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")

# Desk-scale caps: the dense oracle and the fixed-point check refuse
# above 200 points rather than silently going cubic; the EP iteration
# stops at 500.
ORACLE_CAP = 200
ITERATE_CAP = 500


@dataclass(frozen=True)
class SiteFactor:
    """One block's approximate likelihood term t_b(u) = N(A_b u; g, v)."""

    block: int
    g: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class PepResult:
    qu: GaussianQU
    sites: List[SiteFactor]
    energy: float
    converged: bool
    sweeps: int
    max_delta: float


@dataclass(frozen=True)
class FixedPointReport:
    alpha: float
    m_scale: float
    per_block: List[float]
    max_rel_deviation: float


class FixedPointMismatch(RuntimeError):
    """Closed-form PEP site disagrees with its dense recomputation."""

    def __init__(self, report: FixedPointReport, rtol: float):
        self.report = report
        super().__init__(
            f"site fixed point off by {report.max_rel_deviation:.3e} "
            f"relative (tolerance {rtol:.1e}) at alpha={report.alpha}"
        )


def _scaled_objective(prep: PreparedBound, cfg: PepConfig, m: float):
    """Fit term log N(y; 0, Q + a m blkdiag(D_bb) + sigma2 I), the block
    log-det penalty and the jitter, with each block gap built and each
    R_b factored once."""
    gauss = prep.fit_gaussian(tpep_noise(prep, cfg, m))
    reg = _pep_gap_penalty(cfg.alpha, gauss.logdet_noise, prep.n, prep.sigma2)
    return gauss.logpdf(prep.y), reg, gauss.jitter_used


def pep_collapsed(x, y, state: ModelState, cfg: PepConfig) -> BoundBreakdown:
    """Collapsed power-EP objective with the unscaled gap (m pinned at 1)."""
    if cfg.m_scale != 1.0:
        raise ValueError("pep_collapsed is the m = 1 objective; use tpep_collapsed")
    prep = prepare(x, y, state)
    _check_partition(prep, cfg.partition)
    fit, reg, jit = _scaled_objective(prep, cfg, 1.0)
    return BoundBreakdown(fit + reg, fit, reg, jit)


def tpep_collapsed(x, y, state: ModelState, cfg: PepConfig) -> BoundBreakdown:
    """Collapsed power-EP objective with the scalar-scaled gap C = m D.

    Relative to the m = 1 objective this adds two whole-dataset terms,
    -N/(2a) log(1 + a(m-1)) + N/2 log m; both vanish at m = 1 and at
    alpha = 1 exactly.
    """
    prep = prepare(x, y, state)
    _check_partition(prep, cfg.partition)
    fit, reg, jit = _scaled_objective(prep, cfg, cfg.m_scale)
    reg += _pep_whole_terms(prep.n, cfg.alpha, cfg.m_scale)
    return BoundBreakdown(fit + reg, fit, reg, jit)


def tpep_noise(prep: PreparedBound, cfg: PepConfig, m: float) -> BlockNoise:
    """The per-block likelihood noise R_b = a m D_bb + sigma2 I, stacked by block size."""
    groups = cfg.partition.groups
    blocks = [(cfg.alpha * m) * gaps for gaps in prep.block_gaps(groups)]
    return BlockNoise(sigma2=prep.sigma2, partition=groups, blocks=blocks)


def tpep_optimal_qu(x, y, state: ModelState, cfg: PepConfig) -> GaussianQU:
    """The q(u) at which the uncollapsed objective meets the collapsed one."""
    prep = prepare(x, y, state)
    _check_partition(prep, cfg.partition)
    mean, cov_chol = prep.fit_gaussian(tpep_noise(prep, cfg, cfg.m_scale)).posterior(
        prep.y
    )
    return GaussianQU(mean=mean, cov_chol=cov_chol)


def tpep_uncollapsed(
    x, y, state: ModelState, cfg: PepConfig, q: GaussianQU
) -> BoundBreakdown:
    """Uncollapsed scaled power-EP objective at an explicit Gaussian q(u).

    total = -KL[q || p]
            + sum_b E_q[log N(y_b; A_b u, a m D_bb + sigma2 I)]
            + the same three gap penalties as the collapsed form.
    """
    prep = prepare(x, y, state)
    _check_partition(prep, cfg.partition)
    if q.dim != state.num_inducing:
        raise ValueError("q(u) dimension does not match the inducing set")
    a_mean = prep.v.T @ prep.luu.half_solve(q.mean)
    h = prep.v.T @ prep.luu.half_solve(q.cov_chol.lower)

    kl = kl_qu(q, state)
    rfac = BlockFactors(tpep_noise(prep, cfg, cfg.m_scale), prep.n)
    white = rfac.half_solve(np.column_stack([prep.y - a_mean, h]))
    fit = -0.5 * (prep.n * _LOG_2PI + rfac.logdet + float(np.sum(white * white)))
    reg = _pep_gap_penalty(cfg.alpha, rfac.logdet, prep.n, prep.sigma2)
    reg += _pep_whole_terms(prep.n, cfg.alpha, cfg.m_scale)
    total = -kl + fit + reg
    return BoundBreakdown(total, fit - kl, reg, max(prep.luu.jitter_used, rfac.jitter_used))


def tpep_stochastic(
    x, y, state: ModelState, cfg: PepConfig, q: GaussianQU, block_index: int
) -> float:
    """Single-block estimator of tpep_uncollapsed, unbiased over blocks.

    The value of block_estimate with the block noise R_b = a m D_bb + sigma2 I.
    """
    return block_estimate(
        x, y, state, cfg.partition, q, block_index,
        penalty="pep", alpha=cfg.alpha, m_scale=cfg.m_scale,
    ).value


def tpep_qu_gradient(
    x,
    y,
    state: ModelState,
    cfg: PepConfig,
    q: GaussianQU,
    block_index: Optional[int] = None,
):
    """Gradient of tpep_uncollapsed (or its single-block estimator) in q(u).

    Same shape as the variational version but with per-block noise
    R_b = a m D_bb + sigma2 I; the single-block gradient is read off
    block_estimate.  Returns (d_mean, d_lower), lower masked.
    """
    if block_index is not None:
        est = block_estimate(
            x, y, state, cfg.partition, q, block_index,
            penalty="pep", alpha=cfg.alpha, m_scale=cfg.m_scale, gradient=True,
        )
        return est.d_mean, est.d_lower
    prep = prepare(x, y, state)
    _check_partition(prep, cfg.partition)
    at = prep.projector_t()
    a_mean = at.T @ q.mean
    mm = state.num_inducing
    d_mean = -prep.luu.solve(q.mean)
    d_s = 0.5 * (q.cov_chol.solve(np.eye(mm)) - prep.luu.solve(np.eye(mm)))
    rfac = BlockFactors(tpep_noise(prep, cfg, cfg.m_scale), prep.n)
    white = rfac.half_solve(np.column_stack([prep.y - a_mean, at.T]))
    half = white[:, 1:]  # blkdiag(L_b)^-1 A, so A_b^T R_b^-1 = half_b^T L_b^-1
    d_mean = d_mean + half.T @ white[:, 0]
    d_s = d_s - 0.5 * (half.T @ half)
    d_s = 0.5 * (d_s + d_s.T)
    return d_mean, np.tril(2.0 * d_s @ q.cov_chol.lower)


def general_pep_oracle(
    x,
    y,
    state: ModelState,
    alpha: float,
    partition: Partition,
    scales: List[np.ndarray],
) -> BoundBreakdown:
    """Dense power-EP objective for a block-diagonal PSD gap scaling.

    The scaled gap is C = D^(1/2) blkdiag(scales) D^(1/2) with the full
    conditional gap D, so every block of C feels every scale block.
    Per block the objective charges

        -(1-a)/(2a) log det(I + a C_bb / sigma2)
        - 1/(2a) log det(I + a (M_b - I)) + 1/2 log det M_b

    on top of log N(y; 0, Q + a blkdiag(C_bb) + sigma2 I).  scales = I
    reduces to pep_collapsed, scales = m I to tpep_collapsed, and the
    alpha -> 0 limit to the parametric block-variational bound.  D^(1/2)
    comes from an eigendecomposition with eigenvalues clamped at zero.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    prep = prepare(x, y, state)
    n = prep.n
    if partition.n != n:
        raise ValueError(f"partition covers {partition.n} points but data has {n}")
    if n > ORACLE_CAP:
        raise ValueError(f"general_pep_oracle is dense; refusing N={n} > {ORACLE_CAP}")
    if len(scales) != partition.num_blocks:
        raise ValueError("need one scale matrix per block")
    a = alpha
    d = prep.block_gap(np.arange(n))
    evals, evecs = np.linalg.eigh(d)
    droot = (evecs * np.sqrt(np.maximum(evals, 0.0))) @ evecs.T

    mfull = np.zeros((n, n))
    for idx, mb in zip(partition.blocks, scales):
        mb = np.asarray(mb, dtype=float)
        if mb.shape != (idx.size, idx.size):
            raise ValueError("scale matrix shape does not match its block")
        mfull[np.ix_(idx, idx)] = mb
    c = droot @ mfull @ droot
    c = 0.5 * (c + c.T)

    blocks = [a * c[np.ix_(idx, idx)] for idx in partition.blocks]
    noise = BlockNoise(sigma2=prep.sigma2, partition=partition.blocks, blocks=blocks)
    gauss = prep.fit_gaussian(noise)
    fit = gauss.logpdf(prep.y)
    jit = gauss.jitter_used

    reg = 0.0
    for idx, mb in zip(partition.blocks, scales):
        nb = idx.size
        lc = chol(np.eye(nb) + (a / prep.sigma2) * c[np.ix_(idx, idx)])
        lm = chol(np.asarray(mb, dtype=float))
        lshift = chol((1.0 - a) * np.eye(nb) + a * np.asarray(mb, dtype=float))
        jit = max(jit, lc.jitter_used, lm.jitter_used, lshift.jitter_used)
        reg -= (1.0 - a) / (2.0 * a) * lc.logdet()
        reg -= lshift.logdet() / (2.0 * a)
        reg += 0.5 * lm.logdet()
    return BoundBreakdown(fit + reg, fit, reg, jit)


def verify_site_fixed_point(
    x, y, state: ModelState, cfg: PepConfig, rtol: float = 1e-7
) -> FixedPointReport:
    """Check the claimed optimal sites against a dense recomputation.

    The closed form says the converged site for block b has precision
    (a C_bb + sigma2 I)^-1 and pseudo-observation y_b, with C = m D.
    The dense route rebuilds that precision by diagonalizing C_bb and
    inverting the shifted spectrum 1 / (a lam_i + sigma2), so it never
    runs the same Cholesky solve as the claimed form.  Inverting the
    spectrum avoids the cancellation a Woodbury pass on C_bb^-1 would
    suffer when C_bb is nearly singular.  Raises FixedPointMismatch
    beyond rtol.
    """
    prep = prepare(x, y, state)
    _check_partition(prep, cfg.partition)
    if prep.n > ORACLE_CAP:
        raise ValueError(
            f"verify_site_fixed_point is dense; refusing N={prep.n} > {ORACLE_CAP}"
        )
    a = cfg.alpha
    m = cfg.m_scale
    s2 = prep.sigma2
    per_block = []
    for idx in cfg.partition.blocks:
        nb = idx.size
        cb = m * prep.block_gap(idx)
        claimed_p = chol(a * cb + s2 * np.eye(nb)).solve(np.eye(nb))
        claimed_r = claimed_p @ prep.y[idx]

        evals, evecs = np.linalg.eigh(cb)
        evals = np.maximum(evals, 0.0)
        dense_p = (evecs * (1.0 / (a * evals + s2))) @ evecs.T
        dense_p = 0.5 * (dense_p + dense_p.T)
        dense_r = dense_p @ prep.y[idx]

        scale_p = max(np.abs(claimed_p).max(), np.abs(dense_p).max())
        scale_r = max(np.abs(claimed_r).max(), np.abs(dense_r).max(), 1e-300)
        dev = max(
            float(np.abs(claimed_p - dense_p).max() / scale_p),
            float(np.abs(claimed_r - dense_r).max() / scale_r),
        )
        per_block.append(dev)
    report = FixedPointReport(
        alpha=a,
        m_scale=m,
        per_block=per_block,
        max_rel_deviation=max(per_block),
    )
    if report.max_rel_deviation > rtol:
        raise FixedPointMismatch(report, rtol)
    return report


class _SiteState:
    """Projected natural parameters (precision, shift) for every block."""

    def __init__(self, partition: Partition):
        self.prec = [np.zeros((b.size, b.size)) for b in partition.blocks]
        self.shift = [np.zeros(b.size) for b in partition.blocks]


def pep_iterate(x, y, state: ModelState, cfg: PepConfig) -> PepResult:
    """Damped power-EP message passing to the sites' fixed point.

    Sites live in projected form t_b(u) = N(A_b u; g_b, v_b), stored as
    naturals (P_b, r_b) and initialized flat.  A visit to block b would
    remove the alpha-powered site from q(u), moment-match the tilted
    distribution through the gradient shortcuts of its log normalizer
    (m_new = m_cav + S_cav A^T d1 with d1 = G^-1 (y_b - m_h), and
    S_new = S_cav - S_cav A^T G^-1 A S_cav, where G is the tilted
    marginal covariance Sig_b + A S_cav A^T), and read the implied site
    off the matched moments.  For a Gaussian likelihood the Woodbury
    identity collapses that read-off to naturals that do not involve
    the cavity at all,

        P_b <- (1/a) Sig_b^-1,   r_b <- P_b y_b,
        Sig_b = m D_bb + sigma2 / a I,

    so the loop below skips the dead cavity work and is a damped path
    straight to the closed-form fixed point; the cavities are still
    computed where they are actually consumed, in the energy.  Sweeps
    stop when the largest natural-parameter change drops below cfg.tol;
    hitting cfg.max_sweeps first leaves converged False on the result.

    The returned energy is assembled from the converged normalizers and
    cavities; at the fixed point it equals the collapsed objective.
    """
    prep = prepare(x, y, state)
    _check_partition(prep, cfg.partition)
    if prep.n > ITERATE_CAP:
        raise ValueError(
            f"pep_iterate is desk scale; refusing N={prep.n} > {ITERATE_CAP}"
        )
    a = cfg.alpha
    m = cfg.m_scale
    s2 = prep.sigma2
    blocks = cfg.partition.blocks
    mm = state.num_inducing

    at = prep.projector_t()  # A^T, (M, N)
    kuu_inv = prep.luu.solve(np.eye(mm))
    sig = [m * prep.block_gap(idx) + (s2 / a) * np.eye(idx.size) for idx in blocks]

    sites = _SiteState(cfg.partition)
    targets = []
    for idx, sig_b in zip(blocks, sig):
        p_star = chol(sig_b).solve(np.eye(idx.size)) / a
        p_star = 0.5 * (p_star + p_star.T)
        targets.append((p_star, p_star @ prep.y[idx]))

    def assemble():
        lam = kuu_inv.copy()
        eta = np.zeros(mm)
        for idx, p, r in zip(blocks, sites.prec, sites.shift):
            atb = at[:, idx]
            lam += atb @ p @ atb.T
            eta += atb @ r
        return 0.5 * (lam + lam.T), eta

    max_delta = np.inf
    sweeps = 0
    for sweep in range(cfg.max_sweeps):
        sweeps = sweep + 1
        max_delta = 0.0
        for b, idx in enumerate(blocks):
            p_new, r_new = targets[b]
            dp = cfg.damping * (p_new - sites.prec[b])
            dr = cfg.damping * (r_new - sites.shift[b])
            sites.prec[b] = sites.prec[b] + dp
            sites.shift[b] = sites.shift[b] + dr
            max_delta = max(max_delta, np.abs(dp).max(), np.abs(dr).max())
        if max_delta < cfg.tol:
            break
    converged = max_delta < cfg.tol

    lam, eta = assemble()
    llam = chol(lam)
    mean = llam.solve(eta)
    cov = llam.solve(np.eye(mm))
    qu = GaussianQU(mean=mean, cov_chol=chol(0.5 * (cov + cov.T)))

    # Energy: G(q) - G(p) + (1/a) sum_b [log Ztilde_b + G(cav_b) - G(q)]
    # plus the conditional-scaling correction per block.
    def log_partition(lchol: CholeskyFactor, eta_vec: np.ndarray) -> float:
        w = lchol.half_solve(eta_vec)
        return 0.5 * mm * _LOG_2PI - 0.5 * lchol.logdet() + 0.5 * float(w @ w)

    g_q = log_partition(llam, eta)
    g_p = 0.5 * mm * _LOG_2PI + 0.5 * prep.luu.logdet()
    energy = g_q - g_p
    for b, idx in enumerate(blocks):
        atb = at[:, idx]
        lam_cav = lam - a * (atb @ sites.prec[b] @ atb.T)
        eta_cav = eta - a * (atb @ sites.shift[b])
        lcav = chol(0.5 * (lam_cav + lam_cav.T))
        m_cav = lcav.solve(eta_cav)
        v_h = atb.T @ lcav.solve(atb)
        lg = chol(sig[b] + v_h)
        resid = lg.half_solve(prep.y[idx] - atb.T @ m_cav)
        nb = idx.size
        log_zt = (
            0.5 * nb * ((1.0 - a) * np.log(2.0 * np.pi * s2) - np.log(a))
            - 0.5 * (nb * _LOG_2PI + lg.logdet() + float(resid @ resid))
        )
        log_zq = 0.5 * nb * (a * np.log(m) - np.log1p(a * (m - 1.0)))
        energy += (log_zt + log_partition(lcav, eta_cav) - g_q + log_zq) / a

    site_list = []
    for b, idx in enumerate(blocks):
        lp = chol(sites.prec[b])
        v = lp.solve(np.eye(idx.size))
        site_list.append(SiteFactor(block=b, g=v @ sites.shift[b], v=0.5 * (v + v.T)))
    return PepResult(
        qu=qu,
        sites=site_list,
        energy=float(energy),
        converged=bool(converged),
        sweeps=sweeps,
        max_delta=float(max_delta),
    )
