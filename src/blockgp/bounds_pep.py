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

Besides the closed forms this module has the fixed-point machinery:
projected Gaussian site factors, set in closed form (with a Gaussian
likelihood block b's site is its own likelihood at the block noise),
and the EP energy assembled from normalizer and cavity terms.  At the
fixed point that cavity energy equals the collapsed objective, which
the tests enforce; the site closed form is checked against an
independent dense recomputation.  The closed forms are bounds_vi's
bodies at the penalty "pep" (vi_collapsed, vi_uncollapsed,
block_estimate and the pass behind every gradient), which build and
factor each block noise R_b once (PreparedBound.gap_factors) for the
fit term, the log-det penalty, the optimal q(u) and the gradient.  The
dense oracle, the fixed-point check and pep_iterate keep their own
one-block code, as references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .bounds_vi import (
    BoundBreakdown,
    _LOG_2PI,
    _qu_gradient,
    _qu_star,
    block_estimate,
    prepare,
    vi_collapsed,
    vi_uncollapsed,
)
from .linalg import CholeskyFactor, LowRankGaussian, chol
from .model import GaussianQU, ModelState, Partition, check_power


@dataclass(frozen=True)
class PepConfig:
    """Power-EP settings: the power alpha, the block partition and the
    scalar gap scale m."""

    alpha: float
    partition: Partition
    m_scale: float = 1.0

    def __post_init__(self):
        check_power(self.alpha, self.m_scale)

# Desk-scale caps: the dense oracle and the fixed-point check refuse
# above 200 points rather than silently going cubic; pep_iterate, which
# holds A^T densely and loops over blocks, refuses above 500.
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


def pep_collapsed(
    x, y, state: ModelState, cfg: PepConfig, gradient: bool = False
) -> BoundBreakdown:
    """Collapsed power-EP objective with the unscaled gap (m pinned at 1)."""
    if cfg.m_scale != 1.0:
        raise ValueError("pep_collapsed is the m = 1 objective; use tpep_collapsed")
    return tpep_collapsed(x, y, state, cfg, gradient)


def tpep_collapsed(
    x, y, state: ModelState, cfg: PepConfig, gradient: bool = False
) -> BoundBreakdown:
    """Collapsed power-EP objective with the scalar-scaled gap C = m D.

    Fit term log N(y; 0, Q + a m blkdiag(D_bb) + sigma2 I) plus the block
    log-det penalty and two whole-dataset terms, -N/(2a) log(1 + a(m-1))
    + N/2 log m, which vanish at m = 1 and at alpha = 1 exactly:
    vi_collapsed at the penalty "pep", which builds each block gap and
    factors each R_b once.
    """
    return vi_collapsed(x, y, state, "pep", cfg.partition, gradient, cfg.alpha, cfg.m_scale)


def tpep_optimal_qu(x, y, state: ModelState, cfg: PepConfig) -> GaussianQU:
    """The q(u) at which the uncollapsed objective meets the collapsed one."""
    return _qu_star(x, y, state, "pep", cfg.partition, cfg.alpha, cfg.m_scale)


def tpep_uncollapsed(
    x, y, state: ModelState, cfg: PepConfig, q: GaussianQU
) -> BoundBreakdown:
    """Uncollapsed scaled power-EP objective at an explicit Gaussian q(u).

    total = -KL[q || p]
            + sum_b E_q[log N(y_b; A_b u, a m D_bb + sigma2 I)]
            + the same three gap penalties as the collapsed form.
    """
    return vi_uncollapsed(x, y, state, cfg.partition, q, "pep", cfg.alpha, cfg.m_scale)


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
    block_estimate, the full one off the same pass over all blocks.
    Returns (d_mean, d_lower), lower masked.
    """
    return _qu_gradient(
        x, y, state, cfg.partition, q, block_index, "pep", cfg.alpha, cfg.m_scale
    )


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
    check_power(alpha)
    prep = prepare(x, y, state)
    n = prep.n
    partition.check_covers(prep.n)
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

    gauss = LowRankGaussian(prep.luu, prep.sigma2)
    for idx in partition.blocks:  # each block a chunk, its noise one stack
        lr = chol(prep.sigma2 * np.eye(idx.size) + a * c[np.ix_(idx, idx)])
        gauss.add(prep.v[:, idx], prep.y[idx], [(lr.lower[None], lr.jitter_used)])
    fit = gauss.logpdf()
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

    The closed form says the fixed-point site for block b has precision
    (a C_bb + sigma2 I)^-1 and pseudo-observation y_b, with C = m D.
    The dense route rebuilds that precision by diagonalizing C_bb and
    inverting the shifted spectrum 1 / (a lam_i + sigma2), so it never
    runs the same Cholesky solve as the claimed form.  Inverting the
    spectrum avoids the cancellation a Woodbury pass on C_bb^-1 would
    suffer when C_bb is nearly singular.  Raises FixedPointMismatch
    beyond rtol.
    """
    prep = prepare(x, y, state)
    cfg.partition.check_covers(prep.n)
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


def pep_iterate(x, y, state: ModelState, cfg: PepConfig) -> PepResult:
    """Power-EP sites in closed form, and the energy from their cavities.

    Sites live in projected form t_b(u) = N(A_b u; g_b, v_b), with
    naturals (P_b, r_b) = (v_b^-1, v_b^-1 g_b).  A visit to block b
    removes the alpha-powered site from q(u), moment-matches the tilted
    distribution and reads the implied site off the matched moments.
    For a Gaussian likelihood the Woodbury identity collapses that
    read-off to a site that does not involve the cavity at all: block
    b's own likelihood at the block noise (Bui, Yan & Turner 2017),

        g_b = y_b,   v_b = R_b = a m D_bb + sigma2 I,

    so each site is set once to that fixed point and q(u) is assembled
    from the naturals P_b = R_b^-1, r_b = P_b y_b.  The energy is
    assembled from the normalizers and cavities at those sites; that it
    equals the collapsed objective, and q(u) the collapsed optimum, is
    the fixed-point claim the tests and verify check.
    """
    prep = prepare(x, y, state)
    cfg.partition.check_covers(prep.n)
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
    noise = [(a * m) * prep.block_gap(idx) + s2 * np.eye(idx.size) for idx in blocks]
    lam = prep.luu.solve(np.eye(mm))
    eta = np.zeros(mm)
    prec, shift = [], []
    for idx, r_b in zip(blocks, noise):
        p = chol(r_b).solve(np.eye(idx.size))
        p = 0.5 * (p + p.T)
        r = p @ prep.y[idx]
        atb = at[:, idx]
        prec.append(p)
        shift.append(r)
        lam += atb @ p @ atb.T
        eta += atb @ r
    lam = 0.5 * (lam + lam.T)
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
        lam_cav = lam - a * (atb @ prec[b] @ atb.T)
        eta_cav = eta - a * (atb @ shift[b])
        lcav = chol(0.5 * (lam_cav + lam_cav.T))
        m_cav = lcav.solve(eta_cav)
        v_h = atb.T @ lcav.solve(atb)
        lg = chol(noise[b] / a + v_h)
        resid = lg.half_solve(prep.y[idx] - atb.T @ m_cav)
        nb = idx.size
        log_zt = (
            0.5 * nb * ((1.0 - a) * np.log(2.0 * np.pi * s2) - np.log(a))
            - 0.5 * (nb * _LOG_2PI + lg.logdet() + float(resid @ resid))
        )
        log_zq = 0.5 * nb * (a * np.log(m) - np.log1p(a * (m - 1.0)))
        energy += (log_zt + log_partition(lcav, eta_cav) - g_q + log_zq) / a

    sites = [
        SiteFactor(block=b, g=prep.y[idx].copy(), v=r_b)
        for b, (idx, r_b) in enumerate(zip(blocks, noise))
    ]
    return PepResult(qu=qu, sites=sites, energy=float(energy))
