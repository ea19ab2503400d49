"""Dense references for the library's claims, apart from the code they check.

bounds_vi and bounds_pep compute the bounds, their optima and the
power-EP energies a chunk at a time from M x M sums.  The routines here
form the N x N matrices that pass never builds, and share none of its
code: the fit term log N(y; 0, Q + R), R the noise, is one Cholesky of
the dense V^T V + R (dense_fit), not LowRankGaussian's Woodbury sums.
They read PreparedBound's V and gap blocks, chol and nothing private of
the library, and refuse N above bounds_vi.DENSE_CAP before they form an
N x N matrix.  general_c_oracle scores any PSD scaling C of the full gap
D, and general_c_optimum its maximizer; btsgpr_parametric and
general_pep_oracle score block scalings; verify_site_fixed_point and
pep_iterate check power EP's closed-form sites (Bui, Yan & Turner 2017).
verify runs them; the package re-exports their public names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import bounds_vi
from .bounds_pep import PepConfig
from .bounds_vi import BoundBreakdown, PreparedBound, prepare
from .linalg import CholeskyFactor, chol
from .model import GaussianQU, ModelState, Partition, check_power

_LOG_2PI = float(np.log(2.0 * np.pi))


def _dense(name: str, x, y, state: ModelState) -> PreparedBound:
    """prepare's state for the routine name, refused above DENSE_CAP points."""
    prep = prepare(x, y, state)
    if prep.n > bounds_vi.DENSE_CAP:
        raise ValueError(f"{name} is dense; refusing N={prep.n} > {bounds_vi.DENSE_CAP}")
    return prep


def dense_fit(prep: PreparedBound, noise: np.ndarray):
    """log N(y; 0, V^T V + R) at prep's points, for the (N, N) noise R, by
    one Cholesky of the dense covariance; and the largest jitter it or Kuu's
    factor needed."""
    cov = prep.v.T @ prep.v
    cov += noise
    lk = chol(cov)
    w = lk.half_solve(prep.y)
    fit = -0.5 * (prep.n * _LOG_2PI + lk.logdet() + float(w @ w))
    return fit, max(lk.jitter_used, prep.luu.jitter_used)


def general_c_oracle(x, y, state: ModelState, c: np.ndarray) -> BoundBreakdown:
    """Dense bound over an arbitrary PSD replacement C for the gap D.

    total = log N(y; 0, Q + sigma2 I)
            - tr[(D^-1 + I/sigma2) C] / 2 - log(|D| / |C|) / 2 + N / 2.

    D is factorized with the jitter ladder, so the oracle is only
    trustworthy when D is comfortably nonsingular.  Maximized over C it
    lands on C* = (D^-1 + I/sigma2)^-1, the single-block log-det bound.
    """
    prep = _dense("general_c_oracle", x, y, state)
    n = prep.n
    c = np.asarray(c, dtype=float)
    if c.shape != (n, n):
        raise ValueError(f"C must be ({n}, {n}), got {c.shape}")
    d = prep.block_gap(np.arange(n))
    ld = chol(d)
    lc = chol(c)
    trace = float(np.sum(ld.solve(c) * np.eye(n))) + float(np.trace(c)) / prep.sigma2
    reg = -0.5 * trace - 0.5 * (ld.logdet() - lc.logdet()) + 0.5 * n
    fit, jit = dense_fit(prep, prep.sigma2 * np.eye(n))
    return BoundBreakdown(fit + reg, fit, reg, max(jit, ld.jitter_used, lc.jitter_used))


def general_c_optimum(x, y, state: ModelState) -> np.ndarray:
    """The oracle's maximizer C* = (D^-1 + I/sigma2)^-1, computed densely."""
    prep = _dense("general_c_optimum", x, y, state)
    n = prep.n
    d = prep.block_gap(np.arange(n))
    ld = chol(d)
    prec = ld.solve(np.eye(n)) + np.eye(n) / prep.sigma2
    cstar = chol(prec).solve(np.eye(n))
    return 0.5 * (cstar + cstar.T)


def btsgpr_parametric(
    x, y, state: ModelState, partition: Partition, scales: List[np.ndarray]
) -> BoundBreakdown:
    """Block bound at explicit PSD scale matrices, before optimizing them out.

    Penalty per block: tr(M_b D_bb)/(2 sigma2) + (tr M_b - log det M_b - N_b)/2.
    Maximized over M_b it reproduces btsgpr_collapsed.
    """
    prep = _dense("btsgpr_parametric", x, y, state)
    partition.check_covers(prep.n)
    if len(scales) != partition.num_blocks:
        raise ValueError("need one scale matrix per block")
    reg = jit = 0.0
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
    fit, fit_jit = dense_fit(prep, prep.sigma2 * np.eye(prep.n))
    return BoundBreakdown(fit + reg, fit, reg, max(fit_jit, jit))


def general_pep_oracle(
    x, y, state: ModelState, alpha: float, partition: Partition, scales: List[np.ndarray]
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
    prep = _dense("general_pep_oracle", x, y, state)
    n = prep.n
    partition.check_covers(n)
    if len(scales) != partition.num_blocks:
        raise ValueError("need one scale matrix per block")
    a, s2 = alpha, prep.sigma2
    scales = [np.asarray(mb, dtype=float) for mb in scales]
    d = prep.block_gap(np.arange(n))
    evals, evecs = np.linalg.eigh(d)
    droot = (evecs * np.sqrt(np.maximum(evals, 0.0))) @ evecs.T

    mfull = np.zeros((n, n))
    for idx, mb in zip(partition.blocks, scales):
        if mb.shape != (idx.size, idx.size):
            raise ValueError("scale matrix shape does not match its block")
        mfull[np.ix_(idx, idx)] = mb
    c = droot @ mfull @ droot
    c = 0.5 * (c + c.T)

    noise = np.zeros((n, n))  # blkdiag(a C_bb + sigma2 I)
    reg = jit = 0.0
    for idx, mb in zip(partition.blocks, scales):
        nb = idx.size
        cb = c[np.ix_(idx, idx)]
        noise[np.ix_(idx, idx)] = s2 * np.eye(nb) + a * cb
        lc = chol(np.eye(nb) + (a / s2) * cb)
        lm = chol(mb)
        lshift = chol((1.0 - a) * np.eye(nb) + a * mb)
        jit = max(jit, lc.jitter_used, lm.jitter_used, lshift.jitter_used)
        reg -= (1.0 - a) / (2.0 * a) * lc.logdet()
        reg -= lshift.logdet() / (2.0 * a)
        reg += 0.5 * lm.logdet()
    fit, fit_jit = dense_fit(prep, noise)
    return BoundBreakdown(fit + reg, fit, reg, max(fit_jit, jit))


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
    prep = _dense("verify_site_fixed_point", x, y, state)
    cfg.partition.check_covers(prep.n)
    a, m, s2 = cfg.alpha, cfg.m_scale, prep.sigma2
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
    report = FixedPointReport(alpha=a, m_scale=m, per_block=per_block,
                              max_rel_deviation=max(per_block))
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
    the fixed-point claim the tests and verify check.  A^T = Kuu^-1 Kuf
    is held densely, (M, N).
    """
    prep = _dense("pep_iterate", x, y, state)
    cfg.partition.check_covers(prep.n)
    a, m, s2 = cfg.alpha, cfg.m_scale, prep.sigma2
    blocks = cfg.partition.blocks
    mm = state.num_inducing

    at = prep.luu.half_solve_t(prep.v)  # A^T, A = Kfu Kuu^-1 maps u to f's prior mean
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
