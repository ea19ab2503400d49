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

The forms here are bounds_vi's bodies at the penalty "pep"
(vi_collapsed, vi_uncollapsed, block_estimate and the pass behind every
gradient), which build and factor each block noise R_b once
(PreparedBound.gap_factors) for the fit term, the log-det penalty, the
optimal q(u) and the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bounds_vi import (
    BoundBreakdown,
    _qu_gradient,
    _qu_star,
    block_estimate,
    vi_collapsed,
    vi_uncollapsed,
)
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
