"""Correctness checks, each made apart from the program's own code paths.

Every dense reference here is built by the benchmark with its own
squared-exponential kernel and plain numpy/scipy factorisations, or
checks a property the method must have (an ordering, exact
unbiasedness, stationarity).  None compares against a stored copy of an
earlier output.  Each check returns (name, ok, detail).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from blockgp import bounds_pep, bounds_vi, prediction
from blockgp.verify import COLLAPSE_RTOL, ORDERING_SLACK, UNBIASED_RTOL

_LOG_2PI = float(np.log(2.0 * np.pi))
# Dense route against the program's factor route, for arrays (predictive
# moments, q(u)) whose entries can be small: max abs deviation over the
# largest reference entry.
MOMENT_RTOL = 1e-6
# The q(u)-gradient at the closed-form posterior, relative to the size of
# its two opposing terms.
STATIONARY_RTOL = 1e-6


def se_kernel(a, b, state):
    ell = np.exp(state.kernel.log_lengthscales)
    return np.exp(state.kernel.log_signal_variance) * np.exp(
        -0.5 * cdist(a / ell, b / ell, "sqeuclidean")
    )


def _logdet(a):
    c, low = cho_factor(a, lower=True)
    return 2.0 * float(np.sum(np.log(np.diag(c)))), (c, low)


def _gauss_logpdf(y, cov):
    ld, f = _logdet(cov)
    return -0.5 * (y.size * _LOG_2PI + ld + float(y @ cho_solve(f, y)))


def _dense_q(x, y, state):
    """Q = Kfu Kuu^-1 Kuf and the clamped-diagonal gap D = Kff - Q, densely."""
    z = state.inducing
    kuu = se_kernel(z, z, state)
    kuf = se_kernel(z, x, state)
    q = kuf.T @ cho_solve(cho_factor(kuu, lower=True), kuf)
    q = 0.5 * (q + q.T)
    gap = se_kernel(x, x, state) - q
    gap = 0.5 * (gap + gap.T)
    np.fill_diagonal(gap, np.maximum(np.diag(gap), 0.0))
    return q, gap


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _result(name, ok, detail):
    return (name, bool(ok), detail)


def dense_btsgpr(x, y, state, blocks, value):
    """BT-SGPR from its definition: log N(y; 0, Q + s2 I) - sum_b logdet(I + D_bb/s2)/2."""
    s2 = float(np.exp(state.noise.log_noise_variance))
    q, gap = _dense_q(x, y, state)
    total = _gauss_logpdf(y, q + s2 * np.eye(y.size))
    for idx in blocks:
        total -= 0.5 * _logdet(np.eye(idx.size) + gap[np.ix_(idx, idx)] / s2)[0]
    dev = _rel(value, total)
    return _result("dense-btsgpr-bound", dev <= COLLAPSE_RTOL,
                   f"rel dev {dev:.2e} (tol {COLLAPSE_RTOL:g})")


def dense_tpep(x, y, state, blocks, alpha, value):
    """T-PEP energy from the formula in bounds_pep's module docstring."""
    s2 = float(np.exp(state.noise.log_noise_variance))
    m = float(np.exp(state.log_m_scale))
    a = alpha
    n = y.size
    q, gap = _dense_q(x, y, state)
    cov = q + s2 * np.eye(n)
    pen = 0.0
    for idx in blocks:
        c_bb = m * gap[np.ix_(idx, idx)]
        cov[np.ix_(idx, idx)] += a * c_bb
        pen += _logdet(np.eye(idx.size) + a * c_bb / s2)[0]
    total = (_gauss_logpdf(y, cov) - (1.0 - a) / (2.0 * a) * pen
             - n / (2.0 * a) * np.log1p(a * (m - 1.0)) + 0.5 * n * np.log(m))
    dev = _rel(value, total)
    return _result("dense-tpep-energy", dev <= COLLAPSE_RTOL,
                   f"rel dev {dev:.2e} (tol {COLLAPSE_RTOL:g})")


def ordering_chain(x, y, state, btsgpr_value):
    """SGPR <= T-SGPR <= BT-SGPR <= exact, the exact value computed densely."""
    s2 = float(np.exp(state.noise.log_noise_variance))
    exact = _gauss_logpdf(y, se_kernel(x, x, state) + s2 * np.eye(y.size))
    chain = [bounds_vi.sgpr_collapsed(x, y, state).total,
             bounds_vi.tsgpr_collapsed(x, y, state).total,
             btsgpr_value, exact]
    slack = ORDERING_SLACK * max(abs(v) for v in chain)
    ok = all(lo <= hi + slack for lo, hi in zip(chain, chain[1:]))
    return _result("ordering-chain", ok,
                   "SGPR %.6f <= T-SGPR %.6f <= BT-SGPR %.6f <= exact %.6f" % tuple(chain))


def improved(initial, final):
    return _result("trained-above-initial", final > initial,
                   f"initial {initial:.6f}, trained {final:.6f}")


def unbiased_blocks(x, y, state, part, q):
    """The average of the single-block estimator over all blocks is the full bound."""
    full = bounds_vi.vi_uncollapsed(x, y, state, part, q, penalty="logdet").total
    mean = sum(bounds_vi.vi_stochastic(x, y, state, part, q, b, penalty="logdet")
               for b in range(part.num_blocks)) / part.num_blocks
    dev = _rel(mean, full)
    return _result("stochastic-unbiased", dev <= UNBIASED_RTOL,
                   f"rel dev {dev:.2e} (tol {UNBIASED_RTOL:g})"), full


def uncollapsed_below_collapsed(x, y, state, part, uncollapsed):
    collapsed = bounds_vi.btsgpr_collapsed(x, y, state, part).total
    ok = uncollapsed <= collapsed + ORDERING_SLACK * abs(collapsed)
    return _result("uncollapsed-below-collapsed", ok,
                   f"uncollapsed {uncollapsed:.6f} <= BT-SGPR {collapsed:.6f}")


def _max_rel(a, ref):
    return float(np.max(np.abs(a - ref)) / max(np.max(np.abs(ref)), 1e-300))


def predictive_moments(xs, state, q):
    """predict's mean and variance against a dense recomputation from (state, q(u))."""
    s2 = float(np.exp(state.noise.log_noise_variance))
    z = state.inducing
    kuu = cho_factor(se_kernel(z, z, state), lower=True)
    kus = se_kernel(z, xs, state)
    a = cho_solve(kuu, kus)  # Kuu^-1 ku*, one column per point
    mean = a.T @ q.mean
    cov = q.cov_chol.lower @ q.cov_chol.lower.T
    var = (np.exp(state.kernel.log_signal_variance) - np.sum(kus * a, axis=0)
           + np.sum(a * (cov @ a), axis=0) + s2)
    pred = prediction.predict(xs, state, q)
    dev = max(_max_rel(pred.mean, mean), _max_rel(pred.variance, var))
    return _result("predict-dense", dev <= MOMENT_RTOL,
                   f"{xs.shape[0]} points, max rel dev {dev:.2e} (tol {MOMENT_RTOL:g})")


def _noise_cov(x, y, state, blocks, alpha):
    """R = s2 I for the variational workloads, s2 I + a m blkdiag(D_bb) for T-PEP."""
    s2 = float(np.exp(state.noise.log_noise_variance))
    r = s2 * np.eye(y.size)
    if alpha is not None:
        m = float(np.exp(state.log_m_scale))
        _, gap = _dense_q(x, y, state)
        for idx in blocks:
            r[np.ix_(idx, idx)] += alpha * m * gap[np.ix_(idx, idx)]
    return r


def posterior_precision_form(x, y, state, q, blocks=None, alpha=None):
    """q(u) against the precision form S = (Kuu^-1 + Kuu^-1 Kuf R^-1 Kfu Kuu^-1)^-1.

    Evaluated as S = Kuu (Kuu + Kuf R^-1 Kfu)^-1 Kuu and
    mean = Kuu (Kuu + Kuf R^-1 Kfu)^-1 Kuf R^-1 y, the same matrices with
    the inverses of Kuu multiplied through.
    """
    z = state.inducing
    kuu = se_kernel(z, z, state)
    kuf = se_kernel(z, x, state)
    if alpha is None:
        s2 = float(np.exp(state.noise.log_noise_variance))
        rinv_kfu, rinv_y = kuf.T / s2, y / s2
    else:
        r = cho_factor(_noise_cov(x, y, state, blocks, alpha), lower=True)
        rinv_kfu, rinv_y = cho_solve(r, kuf.T), cho_solve(r, y)
    sigma = cho_factor(kuu + kuf @ rinv_kfu, lower=True)
    cov = kuu @ cho_solve(sigma, kuu)
    mean = kuu @ cho_solve(sigma, kuf @ rinv_y)
    dev = max(_max_rel(q.mean, mean), _max_rel(q.cov, cov))
    return _result("posterior-precision-form", dev <= MOMENT_RTOL,
                   f"max rel dev {dev:.2e} (tol {MOMENT_RTOL:g})")


def posterior_stationary(x, y, state, q, part, pep_cfg=None):
    """The closed-form q(u) is a stationary point of the uncollapsed objective.

    Size of the program's q(u)-gradient against the size of the prior
    term Kuu^-1 mean that it must cancel.
    """
    if pep_cfg is None:
        d_mean, d_lower = bounds_vi.uncollapsed_qu_gradient(x, y, state, part, q)
    else:
        d_mean, d_lower = bounds_pep.tpep_qu_gradient(x, y, state, pep_cfg, q)
    kuu = cho_factor(se_kernel(state.inducing, state.inducing, state), lower=True)
    scale = max(float(np.max(np.abs(cho_solve(kuu, q.mean)))),
                float(np.max(np.abs(np.linalg.inv(q.cov_chol.lower)))))
    dev = max(float(np.max(np.abs(d_mean))), float(np.max(np.abs(d_lower)))) / scale
    return _result("posterior-stationary", dev <= STATIONARY_RTOL,
                   f"max |grad| / scale {dev:.2e} (tol {STATIONARY_RTOL:g})")

