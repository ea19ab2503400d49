"""Collapsed and uncollapsed variational objectives for sparse GP regression.

All bounds here share one structure: a Gaussian fit term that uses the
low-rank surrogate Q = Kfu Kuu^-1 Kuf in place of Kff, minus a penalty
that charges for the conditional gap D = Kff - Q.  The family differs
only in how much of D the penalty keeps, named in model.METHODS:

    SGPR         "trace"      sum_n d_nn / (2 sigma2): scale fixed at 1
    Spherical    "spherical"  one shared scalar scale on D's diagonal
    T-SGPR       "diag"       one scale per point: sum_n log(1 + d_nn / sigma2) / 2
    SharedBlock  "shared"     one scale matrix shared across equal-size blocks
    BT-SGPR      "logdet"     one scale matrix per block (log det penalty)
    (T-)PEP      "pep"        block noise alpha m D_bb in the fit (bounds_pep)

Each penalty is written once, with its adjoints, in _gap_penalty (power
EP's log dets and whole-data terms: _pep_penalty), and each bound once
for all six, the penalty the only switch: vi_collapsed, vi_uncollapsed,
block_estimate and, for every gradient, the pass _estimate around the
same body.  Each collapsed form equals the corresponding uncollapsed
evidence lower bound at the optimal Gaussian q(u), which the tests
check.  That identity also gives every collapsed bound its gradient: by
the envelope theorem it is the uncollapsed bound's gradient with q(u)
held at the optimum, which one reverse-mode pass over the blocks
computes (the pass block_estimate runs on one block, at weight B).  The
collapsed value keeps its own fit term, the Woodbury
LowRankGaussian.logpdf, on purpose: taken as the pass at the optimum
instead, it moved power EP at alpha = 1e-6 off the trace bound by 4.5e-3
(verify's window is 1e-4) and gentle instances by up to 8.7e-8
relative.

Every value, optimum and gradient reads the data a chunk at a time
(_chunks), a range of at most CHUNK_ENTRIES // M points.  The bounds that
read blocks are sums over blocks, so they take the points in the
partition's block order (Partition.order, put once in _prepared): each
run of equal-size blocks is a range, which _chunks, the one place the
layout is decided, cuts into stacks of at most STACK_ENTRIES matrix
entries within a chunk, read and written through views.
Titsias's (2009) statistics are sums over chunks, as in
Gal, van der Wilk and Rasmussen (2014), so a chunk's K_uc and V_c = Lu^-1
K_uc are built, added into M x M and M-sized sums and freed.  The first
pass (_fit) adds each chunk into LowRankGaussian's sums, which give the
collapsed fit and the optimal q(u), with the penalty's sums for a value;
a gradient's pass (_estimate) rebuilds each chunk, runs the per-block
body on it and adds its adjoints into M x M and M-sized sums.  The KL
term and Kuu's adjoint come once, around the pass.  So an evaluation
holds O(M^2 + CHUNK_ENTRIES) beyond its inputs (and the block-ordered
copy of them, N (D + 1) floats) whatever N is, with no M x N array;
power EP's and SharedBlock's gradients also keep each stack's K_bb (and
power EP's D_bb and factors) from the first pass, O(N n_b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import (
    QUIET,
    kernel_diag,
    kernel_matrix,
    kernel_matrix_adjoint,
    kernel_stack,
)
from .linalg import (
    CholeskyFactor,
    LowRankGaussian,
    chol,
    chol_stack,
    stack_inverse,
    stack_logdet,
)
from .model import METHODS, GaussianQU, ModelState, Partition, check_power

# exact_lml and every dense reference in oracles refuse more points than
# this, before they form an N x N matrix.
DENSE_CAP = 2000

# The gap penalties of the METHODS rows, once each in table order: all of
# them ("pep", power EP's, takes alpha), those that read a partition's
# blocks, and the block-separable ones the single-block estimators take.
_PENALTIES, _STACKED_PENALTIES, _BLOCK_PENALTIES = (
    tuple(dict.fromkeys(r.penalty for r in METHODS.values() if r.penalty and keep(r)))
    for keep in (lambda r: True, lambda r: r.partition != "rejected", lambda r: r.stochastic)
)
# The others couple every block: their gradients read the whole data's sums.
_COUPLED_PENALTIES = tuple(p for p in _PENALTIES if p not in _BLOCK_PENALTIES)

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class BoundBreakdown:
    """Objective value split into its fit and penalty parts.

    total = fit_term + regularizer.  fit_term is the Gaussian marginal
    (or expected log-likelihood plus -KL for uncollapsed forms) and
    regularizer collects the gap penalties, so tightening claims can be
    checked term by term.  jitter_used is the largest diagonal jitter
    any factorization in the evaluation needed.  gradient, when it was
    asked for, is the gradient of total in the trained coordinates.
    """

    total: float
    fit_term: float
    regularizer: float
    jitter_used: float = 0.0
    gradient: Optional["BlockEstimate"] = field(default=None, compare=False, repr=False)


class PreparedBound:
    """The data and Kuu with its factor Lu at one state, which every
    objective shares; the rest is built a chunk of points at a time.

    points(idx) is the same state over the points idx alone, sharing Kuu
    and Lu: one chunk of the pass.  Its cross terms, built on first use,
    are Kuf and the whitened V = Lu^-1 Kuf, and the clamped diagonal of the
    conditional gap D = Kff - V^T V (clamped marks the entries the clamp
    raised or that came out exactly 0).  Over all N points Kuf and V are
    dense (M, N) arrays, which no bound builds.  Dense D blocks are built
    on demand, a whole stack of equal-size blocks at a time: gap_stacks
    and gap_factors take stack shapes (B_s, n_s), the stacks one after
    another over these points, each a range of them, and block_gap(idx)
    one block of any indices; the bounds never build the full N x N gap.
    gap_factors is the one place a gap stack is factored: the log-det
    penalty of BT-SGPR and the block noise of power EP are both a scaling
    of D_bb plus a multiple of I, and every value, optimum and gradient of
    theirs reads that one factor.
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
        self.kuu = kernel_matrix(state.inducing, state.inducing, state.kernel)
        self.luu = chol(self.kuu)

    def points(self, idx) -> "PreparedBound":
        """This state over the points idx (an index array, or a slice for
        views) alone, sharing Kuu and its factor."""
        chunk = object.__new__(PreparedBound)
        chunk.x, chunk.y, chunk.state = self.x[idx], self.y[idx], self.state
        chunk.kuu, chunk.luu = self.kuu, self.luu
        return chunk

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def sigma2(self) -> float:
        return self.state.noise.noise_variance

    @cached_property
    def kuf(self) -> np.ndarray:
        return kernel_matrix(self.state.inducing, self.x, self.state.kernel)

    @cached_property
    def v(self) -> np.ndarray:
        return self.luu.half_solve(self.kuf)

    @cached_property
    def _raw_gap(self) -> np.ndarray:
        """diag(Kff - V^T V) before clamping; rounding can make entries negative."""
        return kernel_diag(self.x, self.state.kernel) - np.sum(self.v * self.v, axis=0)

    @cached_property
    def gap_diag(self) -> np.ndarray:
        return np.maximum(self._raw_gap, 0.0)

    @cached_property
    def clamped(self) -> np.ndarray:
        return self._raw_gap <= 0.0

    @property
    def diag_clamp(self) -> float:
        """The largest amount the clamp raised an entry of D's diagonal by."""
        raw = self._raw_gap
        return float(max(0.0, -raw.min())) if raw.size else 0.0

    def gap_stacks(self, shapes: Sequence[Tuple[int, int]]) -> Iterator[tuple]:
        """(rows, K_bb, D_bb) for each stack shape (B_s, n_s), the stacks one
        after another over the points: rows, the slice of points that
        holds the stack's B_s blocks of n_s, and the (B_s, n_s, n_s) kernel
        blocks and gap blocks with the clamped diagonal, from one kernel
        broadcast and one V_b^T V_b product on views, built as consumed."""
        start = 0
        for b, s in shapes:
            rows = slice(start, start + b * s)
            start = rows.stop
            kbb = kernel_stack(self.x[rows].reshape(b, s, -1), self.state.kernel)
            vb = np.moveaxis(self.v[:, rows].reshape(-1, b, s), 0, -2)
            yield rows, kbb, _gap_block(kbb, vb, self.gap_diag[rows].reshape(b, s))

    def gap_factors(
        self, shapes: Sequence[Tuple[int, int]], alpha: Optional[float] = None, m: float = 1.0
    ) -> Iterator[tuple]:
        """(rows, K_bb, D_bb, lower, jitter): gap_stacks' stacks with chol_stack's
        factors and jitters of power EP's block noise R_b = alpha m D_bb +
        sigma2 I, or with no alpha of BT-SGPR's I + D_bb / sigma2 (R_b /
        sigma2 at alpha m = 1; D_bb is divided by sigma2, as the one-block
        references divide it, so the ladder picks the same jitter), built
        and factored as consumed."""
        s2 = self.sigma2
        for rows, kbb, gaps in self.gap_stacks(shapes):
            # the matrix factored is a temporary, freed before the yield: one
            # more stack held across it made glibc trim and re-fault about
            # 7.5 MB of heap a BT-SGPR gradient on btsgpr-lbfgs
            lower, jitter = chol_stack(
                _add_to_diagonal(gaps / s2, 1.0) if alpha is None
                else _add_to_diagonal((alpha * m) * gaps, s2)
            )
            yield rows, kbb, gaps, lower, jitter

    def block_gap(self, idx: np.ndarray) -> np.ndarray:
        """Dense conditional-gap block D[idx, idx] with the clamped diagonal,
        for any indices idx."""
        idx = np.asarray(idx)
        kbb = kernel_stack(self.x[idx][None], self.state.kernel)
        return _gap_block(kbb, self.v[:, idx][None], self.gap_diag[idx][None])[0]


def _add_to_diagonal(a: np.ndarray, c: float) -> np.ndarray:
    """a + c I for a (B, n, n) stack, in a's own memory."""
    diag = np.arange(a.shape[-1])
    a[:, diag, diag] += c
    return a


def _gap_block(kbb: np.ndarray, vb: np.ndarray, gap_diag: np.ndarray) -> np.ndarray:
    """Symmetrized K_bb - V_b^T V_b with the clamped diagonal put back.

    Stacks too: kbb (..., n, n), vb (..., M, n), gap_diag (..., n).
    """
    d = kbb - np.swapaxes(vb, -1, -2) @ vb
    d += np.swapaxes(d, -1, -2)  # ufuncs buffer an overlapping operand
    d *= 0.5
    diag = np.arange(d.shape[-1])
    d[..., diag, diag] = gap_diag
    return d


# Most entries of a chunk's (M, c) arrays (K_uc, V_c and those of its
# adjoints), so a chunk holds at most CHUNK_ENTRIES // M points and a bound
# O(M^2 + CHUNK_ENTRIES) beyond its inputs whatever N is; a block larger
# than that is a chunk alone.  A budget of points instead, 1024 at any M,
# made btsgpr-minibatch's predictions (M = 8, N = 6000) 17 % slower, one
# chunk's Python work a few small BLAS calls.
CHUNK_ENTRIES = 2**15

# Most matrix entries (B_s n_s^2) in one stack of equal-size blocks, so each
# (B_s, n_s, n_s) temporary of the batched block work stays near 0.5 MB;
# a block that fills a stack alone costs far more than the call around it.
STACK_ENTRIES = 2**16


def _chunks(prep: "PreparedBound", runs: Optional[Sequence[Tuple[int, int]]] = None) -> list:
    """The pass's chunks over prep's points, (span, stacks) pairs: span the
    slice of at most CHUNK_ENTRIES // M points a chunk holds, which
    prep.points opens as views.  With runs, the (count, size) run of each
    block size over points in block order, a chunk's stacks are the
    (B_s, n_s) shapes of its blocks, one after another: every run is cut
    into stacks of at most STACK_ENTRIES matrix entries and at most a
    chunk's width, and a block wider than either is a stack alone (wider
    than a chunk, a chunk alone).  This is the one place the stacks are
    decided.  With none, the chunks are ranges of points, their stacks
    None."""
    n, width = prep.n, max(1, CHUNK_ENTRIES // prep.state.num_inducing)
    if runs is None:
        return [(slice(a, min(a + width, n)), None) for a in range(0, n, width)]
    chunks, stacks, start, size = [], [], 0, 0
    for b, s in runs:
        per = max(1, STACK_ENTRIES // (s * s))
        while b:
            take = min(b, per, (width - size) // s)
            if take <= 0 and stacks:  # the chunk is full
                chunks.append((slice(start, start + size), stacks))
                stacks, start, size = [], start + size, 0
                continue
            take = max(1, take)
            stacks.append((take, s))
            size += take * s
            b -= take
    return chunks + [(slice(start, start + size), stacks)] if stacks else chunks


def prepare(x: np.ndarray, y: np.ndarray, state: ModelState) -> PreparedBound:
    return PreparedBound(x, y, state)


def exact_lml(
    x: np.ndarray, y: np.ndarray, state: ModelState, gradient: bool = False
) -> BoundBreakdown:
    """Dense log marginal likelihood log N(y; 0, Kff + sigma2 I).

    With gradient, the dense form: with K = Kff + sigma2 I and
    a = K^-1 y, d total = tr[(a a^T - K^-1) dK] / 2 (no inducing inputs).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = y.shape[0]
    if n > DENSE_CAP:
        raise ValueError(f"exact_lml is dense; refusing N={n} > {DENSE_CAP}")
    kff = kernel_matrix(x, x, state.kernel)
    s2 = state.noise.noise_variance
    lk = chol(kff + s2 * np.eye(n))
    w = lk.half_solve(y)
    total = -0.5 * (n * _LOG_2PI + lk.logdet() + float(w @ w))
    grad = None
    if gradient:
        a = lk.half_solve_t(w)
        k_bar = 0.5 * (np.outer(a, a) - lk.solve(np.eye(n)))
        d_ell, d_ls2, _ = kernel_matrix_adjoint(x, x, state.kernel, kff, k_bar)
        grad = BlockEstimate(
            value=total,
            d_log_lengthscales=d_ell,
            d_log_signal_variance=d_ls2,
            d_log_noise_variance=s2 * float(np.trace(k_bar)),
            d_inducing=np.zeros_like(state.inducing),
        )
    return BoundBreakdown(total, total, 0.0, lk.jitter_used, grad)


def vi_collapsed(
    x, y, state: ModelState, penalty: str, partition: Optional[Partition] = None,
    gradient: bool = False, alpha: Optional[float] = None, m: float = 1.0,
) -> BoundBreakdown:
    """A collapsed bound: the Gaussian fit log N(y; 0, Q + R) plus the
    regularizer of penalty, one of the _PENALTIES.  R is sigma2 I, or for
    power EP's "pep", which takes alpha and the gap scale m, the block
    noise blkdiag(alpha m D_bb + sigma2 I), whose factors its penalty
    reads too.  "shared", "logdet" and "pep" read the partition's blocks,
    the others need none.  The first pass (_fit) gives the fit and q*; the
    regularizer is _gap_penalty's, from that pass for a value, and with
    gradient, with the gradient, from the pass _estimate at q* (the
    envelope theorem), over all blocks at weight 1 and from this one
    prepare.  The coupled penalties' gradients read the first pass's
    totals.
    """
    _check_penalty(penalty, alpha, m)
    prep, chunks = _prepared(x, y, state, penalty, partition)
    coupled = penalty in _COUPLED_PENALTIES
    # a gradient's pass reads the penalty's totals (the coupled penalties),
    # the first chunk and each stack this first pass built; a value holds
    # no chunk or stack past its turn
    gauss, sums, kept = _fit(
        prep, chunks, alpha, m, penalty if coupled or not gradient else None, keep=gradient
    )
    fit = gauss.logpdf()
    if coupled or not gradient:
        pen, whole = sums.finish(prep.sigma2, gradient=gradient)
    if gradient:
        grad, reg, jit = _estimate(
            prep, _optimum(gauss), chunks, penalty, 1.0, alpha, m, gradient=True,
            totals=sums if coupled else None, kept=kept,
        )
    else:
        grad, reg, jit = None, whole - pen, sums.jit
    return BoundBreakdown(fit + reg, fit, reg, max(gauss.jitter_used, jit), grad)


def _fit(prep: PreparedBound, chunks, alpha=None, m: float = 1.0, penalty=None, keep=False):
    """The first pass: the collapsed fit's Gaussian N(0, Q + R), R = sigma2
    I or with alpha power EP's blkdiag(alpha m D_bb + sigma2 I) on
    gap_factors' factors, its sums added a chunk at a time; given a
    penalty, that penalty's sums (_gap_penalty) from the same chunks; and
    with keep, for a gradient's pass, (the first chunk's prep.points, or
    None, the list of stacks built, or None) a chunk, else None.  The
    first chunk, held while the others pass, is the one that pass opens
    first, so the cross terms of a bound of one chunk are built once."""
    gauss = LowRankGaussian(prep.luu, prep.sigma2)
    sums = _PenaltySums(penalty, alpha, m)
    kept = [] if keep else None
    for span, shapes in chunks:
        chunk = prep.points(span)
        if alpha is None:
            gauss.add(chunk.v, chunk.y)
            stacks = _penalty_stacks(chunk, shapes, penalty)
        else:  # R_b's factors are the fit's noise and the penalty's
            stacks = chunk.gap_factors(shapes, alpha, m)
        if stacks is not None and (keep or alpha is not None):
            stacks = list(stacks)
        if alpha is not None:
            gauss.add(chunk.v, chunk.y, [(low, jit) for *_, low, jit in stacks])
        if penalty is not None:
            _gap_penalty(chunk, stacks, sums)
        if keep:
            kept.append((None if kept else chunk, stacks))
    return gauss, sums, kept


def _optimum(gauss: LowRankGaussian) -> GaussianQU:
    """The q(u) at which an uncollapsed bound meets the collapsed one with
    fit gauss = N(0, Q + R): p(u) N(y; A u, R) renormalized."""
    mean, cov_chol = gauss.posterior()
    return GaussianQU(mean=mean, cov_chol=cov_chol)


def sgpr_collapsed(x, y, state: ModelState, gradient: bool = False) -> BoundBreakdown:
    """Collapsed bound with the plain trace penalty sum_n d_nn / (2 sigma2)."""
    return vi_collapsed(x, y, state, "trace", None, gradient)


def tsgpr_collapsed(x, y, state: ModelState, gradient: bool = False) -> BoundBreakdown:
    """Collapsed bound with a per-point scale, penalty sum_n log(1 + d_nn/sigma2)/2."""
    return vi_collapsed(x, y, state, "diag", None, gradient)


def tsgpr_optimal_scales(x, y, state: ModelState) -> np.ndarray:
    """Per-point optimal scales sigma2 / (sigma2 + d_nn), in (0, 1]."""
    prep = prepare(x, y, state)
    return prep.sigma2 / (prep.sigma2 + prep.gap_diag)


def btsgpr_collapsed(
    x, y, state: ModelState, partition: Partition, gradient: bool = False
) -> BoundBreakdown:
    """Collapsed bound with one scale matrix per block, log-det penalty."""
    return vi_collapsed(x, y, state, "logdet", partition, gradient)


def btsgpr_optimal_scales(x, y, state: ModelState, partition: Partition) -> List[np.ndarray]:
    """Per-block optimal scale matrices (I + D_bb / sigma2)^-1."""
    prep, chunks = _prepared(x, y, state, "logdet", partition)
    inverses = [inv for span, shapes in chunks
                for *_, lower, _ in prep.points(span).gap_factors(shapes)
                for inv in stack_inverse(lower)]
    # the stacks hold the blocks in block order: each block's first point keys its scale
    sizes = np.sort(partition.block_sizes)
    scales = dict(zip(partition.order[np.cumsum(sizes) - sizes].tolist(), inverses))
    return [scales[idx[0]] for idx in partition.blocks]


def sharedblock_collapsed(
    x, y, state: ModelState, partition: Partition, gradient: bool = False
) -> BoundBreakdown:
    """Collapsed bound with one scale matrix shared by all equal-size blocks.

    The scale (I + mean_b D_bb / sigma2)^-1 averages the D_bb entry by
    entry, pairing the i-th points of all blocks, in each block's sorted
    index order; so unlike the other bounds that read blocks, this one
    depends on the order of the points within each block, and reordering
    the data with the partition mapped along changes it."""
    return vi_collapsed(x, y, state, "shared", partition, gradient)


def sharedblock_optimal_scale(x, y, state: ModelState, partition: Partition) -> np.ndarray:
    """The shared optimal scale (I + mean_b D_bb / sigma2)^-1."""
    prep, chunks = _prepared(x, y, state, "shared", partition)
    sums = _fit(prep, chunks, penalty="shared")[1]
    sums.finish(prep.sigma2, gradient=True)
    return sums.cinv


def spherical_collapsed(x, y, state: ModelState, gradient: bool = False) -> BoundBreakdown:
    """Collapsed bound with a single scalar scale; SharedBlock at block size 1."""
    return vi_collapsed(x, y, state, "spherical", None, gradient)


def spherical_optimal_scale(x, y, state: ModelState) -> float:
    """The single optimal scale 1 / (1 + mean_n d_nn / sigma2)."""
    prep = prepare(x, y, state)
    return float(1.0 / (1.0 + np.mean(prep.gap_diag) / prep.sigma2))


def optimal_qu(x, y, state: ModelState) -> GaussianQU:
    """The q(u) maximizing the variational uncollapsed bounds.

    q(u) is the exact posterior of u under y = A u + e, e ~ N(0, sigma2 I),
    with A = Kfu Kuu^-1 and prior u ~ N(0, Kuu).
    """
    return _qu_star(x, y, state)


def _qu_star(x, y, state: ModelState, penalty: Optional[str] = None,
             partition: Optional[Partition] = None, alpha=None, m: float = 1.0) -> GaussianQU:
    """The q(u) at which the uncollapsed bound at penalty meets the
    collapsed one: for "pep" (alpha, m), the posterior under the block
    noise of partition's blocks; for the variational penalties, whose fit
    noise is sigma2 I, their one optimum, which reads no blocks, over the
    points in the caller's order."""
    if penalty != "pep":
        penalty = partition = None
    prep, chunks = _prepared(x, y, state, penalty, partition)
    return _optimum(_fit(prep, chunks, alpha, m)[0])


def kl_qu(q: GaussianQU, state: ModelState) -> float:
    """KL[q(u) || N(0, Kuu)] for a Gaussian q."""
    luu = chol(kernel_matrix(state.inducing, state.inducing, state.kernel))
    return _kl_terms(luu, q)[0]


def _kl_terms(luu: CholeskyFactor, q: GaussianQU):
    """KL[q || N(0, Lu Lu^T)] with the whitened Lu^-1 L_q and Lu^-1 mean."""
    if luu.size != q.dim:
        raise ValueError("q(u) dimension does not match the inducing set")
    half = luu.half_solve(q.cov_chol.lower)
    a = luu.half_solve(q.mean)
    with np.errstate(**QUIET):  # a diverged q(u) overflows here to a non-finite KL
        trace = float(np.sum(half * half))
        kl = 0.5 * (trace + float(a @ a) - q.dim + luu.logdet() - q.cov_chol.logdet())
    return kl, half, a


def _check_penalty(penalty: str, alpha: Optional[float], m: float = 1.0):
    """Raise unless penalty is one of the _PENALTIES, with alpha given,
    and a gap scale m other than 1, for "pep" alone, at an (alpha, m)
    that check_power accepts."""
    pep = penalty == "pep"
    if penalty not in _PENALTIES or (alpha is None) == pep or m != 1.0 and not pep:
        raise ValueError(
            f"penalty must be one of {_PENALTIES}, with alpha and a gap scale m other "
            f"than 1 for 'pep' alone; got {penalty!r}, alpha {alpha} and m {m}"
        )
    if pep:
        check_power(alpha, m)


def _prepared(x, y, state: ModelState, penalty: Optional[str] = None,
              partition: Optional[Partition] = None):
    """prepare's state and the pass's chunks for penalty.  For the
    penalties that read blocks the state is over the points in the
    partition's block order (Partition.order), the one gather of the data
    in a pass, and _chunks cuts the runs of equal-size blocks into stacks;
    the rest read no partition (one given is still checked against the
    data) and keep the caller's order, in ranges of points."""
    if partition is None and penalty in _STACKED_PENALTIES:
        raise ValueError(f"penalty {penalty!r} reads a partition's blocks; none was given")
    prep = prepare(x, y, state)
    if partition is not None:
        partition.check_covers(prep.n)
    if partition is None or penalty not in _STACKED_PENALTIES:
        return prep, _chunks(prep)
    prep = prep.points(partition.order)
    sizes, counts = np.unique(partition.block_sizes, return_counts=True)
    return prep, _chunks(prep, list(zip(counts.tolist(), sizes.tolist())))


def _penalty_stacks(chunk: PreparedBound, shapes, penalty: Optional[str], alpha=None, m=1.0):
    """The gap stacks of a chunk's stack shapes that _gap_penalty reads
    for a penalty, built as consumed: gap_stacks' for "shared",
    gap_factors' for "logdet" and, at the alpha and m the pass is given
    too, "pep", and none for the diagonal penalties."""
    if penalty == "pep":
        return chunk.gap_factors(shapes, alpha, m)
    if penalty == "shared":
        return chunk.gap_stacks(shapes)
    return chunk.gap_factors(shapes) if penalty == "logdet" else None


class _PenaltySums:
    """One gap penalty's sums over the chunks read so far, which
    _gap_penalty adds each chunk's share to, with a gradient pass's
    adjoints on sigma2 and m; finish turns them into the penalty.

    total is the sum of d_nn ("trace", "spherical"), of log(1 + d_nn /
    sigma2) ("diag"), of D_bb ("shared"), of log det(I + D_bb / sigma2) / 2
    ("logdet") or of log det R_b ("pep"), over points points and blocks
    blocks.  finish sets the totals a coupled penalty's gradient pass
    reads: mean, the mean of d_nn ("spherical"), and cinv, (I + mean_b
    D_bb / sigma2)^-1 ("shared"), and keeps its result as finished.
    """

    def __init__(self, penalty: Optional[str], alpha=None, m: float = 1.0):
        self.penalty, self.alpha, self.m = penalty, alpha, m
        self.total, self.points, self.blocks = 0.0, 0, 0
        self.jit = self.g_s2 = self.g_m = 0.0
        self.mean = self.cinv = self.finished = None

    def finish(self, s2: float, weight: float = 1.0, gradient: bool = False, n_total=None):
        """The penalty over the points read and the whole-data terms of the
        regularizer whole - weight * penalty (power EP's over n_total
        points, default those read; else 0); with gradient, the adjoints
        that only the totals give join g_s2 and g_m."""
        penalty, t, n, w = self.penalty, self.total, self.points, float(weight)
        whole = 0.0
        if penalty == "trace":
            pen = 0.5 * t / s2
            if gradient:
                self.g_s2 += 0.5 * w * t / s2**2
        elif penalty == "diag":
            pen = 0.5 * t
        elif penalty == "spherical":
            self.mean = t / n
            pen = 0.5 * n * float(np.log1p(self.mean / s2))
            if gradient:
                self.g_s2 += 0.5 * w * n * self.mean / (s2 * (s2 + self.mean))
        elif penalty == "shared":
            avg = t / self.blocks
            lb = chol(np.eye(avg.shape[0]) + avg / s2)
            pen = 0.5 * self.blocks * lb.logdet()
            self.jit = max(self.jit, lb.jitter_used)
            if gradient:
                self.cinv = lb.solve(np.eye(lb.size))
                self.g_s2 += 0.5 * w * self.blocks * float(np.sum(self.cinv * avg)) / s2**2
        elif penalty == "logdet":
            pen = t
        else:  # "pep": log det(I + a m D_bb / sigma2) read off R_b's factors
            alpha, m = self.alpha, self.m
            n_total = n if n_total is None else n_total
            if gradient:  # of the whole-data terms
                self.g_m += 0.5 * n_total * (1.0 / m - 1.0 / _pep_shift(alpha, m)[0])
            pen, whole = _pep_penalty(t, n, s2, alpha, m, n_total)
        self.finished = pen, whole
        return pen, whole


def _gap_penalty(chunk: PreparedBound, stacks, sums: _PenaltySums, weight: float = 1.0,
                 pull=None, noise_fit=None):
    """The one body of each gap penalty, which every bound, estimator and
    gradient reads, a chunk at a time: adds the chunk's share of sums'
    penalty and the largest jitter its factors needed to sums, reading
    _penalty_stacks' stacks of it once as they come.  Given pull, the
    gradient at that weight: each stack's D_bb adjoint goes to pull(rows,
    K_bb, d_bar), the adjoints on sigma2 and m join sums, and the
    adjoint on the chunk's D diagonal is returned (None where pull took
    it).  "spherical" and "shared" couple every block, so their gradient
    reads sums finished by an earlier pass, which it adds nothing to.
    For "pep" the factors are the fit's block noise R_b too:
    noise_fit(rows, lower, logdet), which a pass gives, does the fit's
    share of a stack and returns R_b^-1 and, given pull, the fit's
    adjoint on R_b, which the penalty's joins before the one pull; a
    collapsed value, whose fit read the factors already, gives none.
    """
    s2, gap, w = chunk.sigma2, chunk.gap_diag, float(weight)
    penalty, gradient = sums.penalty, pull is not None
    if gradient and penalty == "spherical":
        return -0.5 * w / (s2 + sums.mean)
    if gradient and penalty == "shared":
        cinv = (-0.5 * w / s2) * sums.cinv
        for rows, kbb, _ in stacks:
            pull(rows, kbb, np.repeat(cinv[None], kbb.shape[0], axis=0))
        return None
    sums.points += chunk.n
    dd = None
    if penalty in ("trace", "spherical"):
        sums.total += float(np.sum(gap))
        if gradient:
            dd = -0.5 * w / s2
    elif penalty == "diag":
        sums.total += float(np.sum(np.log1p(gap / s2)))
        if gradient:
            dd = -0.5 * w / (s2 + gap)
            sums.g_s2 += 0.5 * w * float(np.sum(gap / s2 / (s2 + gap)))
    elif penalty == "shared":
        for _, _, gaps in stacks:
            if sums.blocks and gaps.shape[1] != sums.total.shape[0]:
                raise ValueError("SharedBlock requires equal block sizes")
            sums.total = sums.total + gaps.sum(axis=0)
            sums.blocks += gaps.shape[0]
    elif penalty == "logdet":
        for rows, kbb, gaps, lower, jitter in stacks:
            sums.total += 0.5 * stack_logdet(lower)
            sums.jit = max(sums.jit, float(jitter.max()))
            if gradient:
                cinv = stack_inverse(lower)
                sums.g_s2 += 0.5 * w * float(np.sum(cinv * gaps)) / s2**2
                cinv *= -0.5 * w / s2
                pull(rows, kbb, cinv)
    else:  # "pep"
        alpha, m, c = sums.alpha, sums.m, _pep_log_det_weight(sums.alpha)
        for rows, kbb, gaps, lower, jitter in stacks:
            logdet_s = stack_logdet(lower)
            sums.total += logdet_s
            sums.jit = max(sums.jit, float(jitter.max()))
            if noise_fit is not None:
                rinv, r_bar = noise_fit(rows, lower, logdet_s)
            if gradient:
                r_bar -= (w * c) * rinv
                points = rows.stop - rows.start
                sums.g_s2 += float(np.trace(r_bar, axis1=1, axis2=2).sum()) + w * c * points / s2
                sums.g_m += alpha * float(np.sum(r_bar * gaps))
                pull(rows, kbb, (alpha * m) * r_bar)
    return dd


def _pep_log_det_weight(alpha: float) -> float:
    """(1 - alpha) / (2 alpha), the weight of power EP's log-det penalty."""
    return (1.0 - alpha) / (2.0 * alpha)


def _pep_penalty(logdet_noise, n: int, s2: float, alpha: float, m: float, n_total: int):
    """Power EP's penalty (1-a)/(2a) sum_b log det(I + a m D_bb / sigma2),
    from logdet_noise = sum_b log det R_b over n points, and its
    whole-data terms -N/(2a) log(1 + a(m-1)) + N/2 log m over n_total
    points, which vanish at m = 1 and at a = 1."""
    whole = -n_total / (2.0 * alpha) * _pep_shift(alpha, m)[1] + 0.5 * n_total * float(np.log(m))
    return _pep_log_det_weight(alpha) * (logdet_noise - n * np.log(s2)), whole


def _pep_shift(alpha: float, m: float):
    """1 + a(m-1) and its log, positive for every a in (0, 1] and m > 0.
    Where a(m-1) > -1/2 the log is log1p's; below, where m - 1 may have
    rounded m away, both come from (1 - a) + a m, whose terms are exact or
    nearly so there: at a = 1 it is m itself, and the whole-data terms
    and their m-adjoint cancel exactly."""
    t = alpha * (m - 1.0)
    if t > -0.5:
        return 1.0 + t, float(np.log1p(t))
    shift = (1.0 - alpha) + alpha * m
    return shift, float(np.log(shift))


def vi_uncollapsed(
    x,
    y,
    state: ModelState,
    partition: Partition,
    q: GaussianQU,
    penalty: str = "logdet",
    alpha: Optional[float] = None,
    m: float = 1.0,
) -> BoundBreakdown:
    """Uncollapsed evidence lower bound at an explicit Gaussian q(u).

    total = -KL[q || p] + sum_b E_q[log N(y_b; A_b u, R_b)] - penalty + whole.

    penalty is the gap charge of the collapsed bound (vi_collapsed) this
    one meets at the optimal q(u), one of the _PENALTIES ("diag" is
    valid under any grouping of the sum), written in _gap_penalty.  R_b
    is sigma2 I, or for "pep" (alpha, m) power EP's alpha m D_bb +
    sigma2 I, whose whole-data terms are then the only nonzero whole.
    """
    _check_penalty(penalty, alpha, m)
    prep, chunks = _prepared(x, y, state, penalty, partition)
    est, reg, jit = _estimate(prep, q, chunks, penalty, 1.0, alpha, m)
    return BoundBreakdown(est.value, est.value - reg, reg, max(prep.luu.jitter_used, jit))


@dataclass(frozen=True)
class BlockEstimate:
    """An estimator's value and, when asked for, its gradient.

    Returned by block_estimate for one block, and by the collapsed
    bounds (as BoundBreakdown.gradient) for the whole bound.  The
    gradient is in the coordinates training moves: log lengthscales
    (D,), log signal variance, log noise variance, the inducing inputs
    (M, D), log m (zero for the variational penalties), and the q(u)
    mean and covariance factor, d_lower masked to the lower triangle
    (None for Exact, which has no q(u)).  A value-only pass leaves the
    array fields None.
    """

    value: float
    d_log_lengthscales: Optional[np.ndarray] = None
    d_log_signal_variance: float = 0.0
    d_log_noise_variance: float = 0.0
    d_inducing: Optional[np.ndarray] = None
    d_log_m_scale: float = 0.0
    d_mean: Optional[np.ndarray] = None
    d_lower: Optional[np.ndarray] = None


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
    R_b = alpha m D_bb + sigma2 I in E_b, and penalty_b and whole of
    _pep_penalty.  Each penalty_b is _gap_penalty's.  alpha and m_scale
    are "pep"'s alone: with another penalty either raises.

    Only Kuu, K_ub and K_bb are built (a PreparedBound on the block's
    points alone, one (1, N_b) stack), so a call costs O(N_b M^2 + M^3 +
    N_b^3) whatever N is.  It is the one-block, weight-B case of the pass (_estimate) that
    also gives the collapsed bounds their gradients.  With gradient,
    adjoints run back through the same factors (reverse mode, Murray
    2016): from the terms into R_b or I + D_bb/sigma2, into
    D_bb = K_bb - K_bu Kuu^-1 K_ub, through Kuu^-1 into the KL term, and
    through the kernel into its parameters and the inducing inputs.  A
    clamped entry on D's diagonal gets adjoint 0.  Each factor's jitter
    is frozen, so the gradient is that of the value with every jitter
    held at what chol chose; since chol scales the jitter with the
    matrix's mean diagonal, where a factor needed jitter the gradient
    can be far off the value's slope.
    """
    _check_penalty(penalty, alpha, m_scale)
    if penalty not in _BLOCK_PENALTIES:
        raise ValueError(f"penalty must be one of {_BLOCK_PENALTIES}, got {penalty!r}")
    if not 0 <= block_index < partition.num_blocks:
        raise ValueError(
            f"block_index must lie in [0, {partition.num_blocks}), got {block_index}"
        )
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = y.shape[0]
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"x of shape {x.shape} does not match {n} targets")
    partition.check_covers(n)
    idx = partition.blocks[block_index]
    prep = PreparedBound(x[idx], y[idx], state)
    runs = [(1, idx.size)] if penalty in _STACKED_PENALTIES else None
    return _estimate(
        prep, q, _chunks(prep, runs), penalty, float(partition.num_blocks),
        alpha=alpha, m=m_scale, n_total=n, gradient=gradient,
    )[0]


def _estimate(
    prep: PreparedBound,
    q: GaussianQU,
    chunks: list,
    penalty: str,
    weight: float,
    alpha: Optional[float] = None,
    m: float = 1.0,
    n_total: Optional[int] = None,
    gradient: bool = False,
    totals: Optional[_PenaltySums] = None,
    kept: Optional[list] = None,
) -> Tuple[BlockEstimate, float, float]:
    """-KL[q || p] + weight * sum_b (E_b - penalty_b) + whole, over prep's points.

    The pass: one chunk of _chunks at a time (prep.points, views of a
    range of points), with the chunk's stack shapes for the penalties
    that read blocks, whose points _prepared put in block order; the
    diagonal penalties ("trace", "diag", "spherical") need none.  E_b is
    block_estimate's fit term; the penalty and whole (power EP's
    whole-data terms over n_total points, default prep's) are
    _gap_penalty's, which reads a chunk's stacks as they come and hands
    each stack's gap adjoint to pull here.  kept is _fit's: the first
    chunk and the stacks an earlier pass built, which this one reads in
    place of building them again (and frees as it goes); a coupled
    penalty's gradient reads totals, the finished sums of an earlier
    pass.  The pass factors no stack itself, and reads and writes each
    stack's points through reshaped views of the chunk's arrays.  Each
    chunk's adjoints reach its K_bb by one stacked
    kernel_matrix_adjoint a stack and its K_uc by one
    kernel_matrix_adjoint, and add into M x M and M-sized sums; Kuu's
    adjoint comes once, after the pass.  Returns the estimate, its
    regularizer whole - weight * sum_b penalty_b and the largest jitter a
    gap factor needed.
    """
    s2, n, w = prep.sigma2, prep.n, float(weight)
    kern, z = prep.state.kernel, prep.state.inducing
    pep = penalty == "pep"
    kl, half, w_mean = _kl_terms(prep.luu, q)
    sums = _PenaltySums(penalty, alpha, m) if totals is None else totals
    e = -0.5 * n * _LOG_2PI if pep else 0.0
    fit_sq = 0.0
    if gradient:
        with np.errstate(over="raise", invalid="raise"):
            p_mean = prep.luu.half_solve_t(w_mean)  # Kuu^-1 q.mean
            p_lq = prep.luu.half_solve_t(half)  # Kuu^-1 L_q
        # Sums of the chunks' adjoints: A^T Q_bar A with Q_bar the adjoint
        # of Q = Kfu Kuu^-1 Kuf, which D = Kff - Q passes on, A^T rho and
        # A^T g, D's diagonal's, and the kernel parameters' and inducing
        # inputs' through K_uc and K_bb.
        aqa, at_rho, at_g = np.zeros((q.dim, q.dim)), np.zeros(q.dim), np.zeros((q.dim, q.dim))
        sum_dd, e_ell, e_ls2, e_z = 0.0, np.zeros(kern.input_dim), 0.0, np.zeros(z.shape)

    for k, (span, shapes) in enumerate(chunks):
        chunk, stacks = (None, None) if kept is None else kept[k]
        if kept is not None:
            kept[k] = None  # freed with its chunk
        if chunk is None:
            chunk = prep.points(span)
        v = chunk.v
        resid = chunk.y - v.T @ w_mean
        h = v.T @ half  # A L_q, A = Kfu Kuu^-1
        # rho = R^-1 r and g = R^-1 A L_q with the noise R, blkdiag(R_b) or
        # sigma2 I; g overwrites h, a block at a time.
        g = h
        noise_fit = pull = None
        if pep:
            rho = np.empty(chunk.n)

            def noise_fit(rows, lower, logdet):
                """E_b on a stack of block noise R_b: rho, g and E there, and
                R_b^-1 with, in a gradient pass, E's adjoint on R_b."""
                nonlocal e
                b, s = lower.shape[:2]
                rinv = stack_inverse(lower)
                resid_s, h_s = resid[rows].reshape(b, s), h[rows].reshape(b, s, -1)
                rho_s = (rinv @ resid_s[..., None])[..., 0]
                g_s = rinv @ h_s
                e -= 0.5 * (logdet + float(np.sum(resid_s * rho_s)) + float(np.sum(h_s * g_s)))
                rho[rows], g[rows] = rho_s.ravel(), g_s.reshape(b * s, -1)
                if not gradient:
                    return rinv, None
                outer = rho_s[:, :, None] * rho_s[:, None, :] + g_s @ np.swapaxes(g_s, 1, 2)
                return rinv, (0.5 * w) * (outer - rinv)
        else:
            fit_sq += float(resid @ resid) + float(np.vdot(h, h))
            rho = resid / s2
            g /= s2
        if gradient:
            at = chunk.luu.half_solve_t(v)  # A^T on the chunk
            at_q = np.zeros(at.shape)  # A^T Q_bar
            dd = np.zeros(chunk.n)  # D's diagonal's adjoint

            def pull(rows, kbb, d_bar):
                """Pass a stack's gap adjoints d_bar on to dd, A^T Q_bar and
                K_bb, writing dd and A^T Q_bar through views of the stack."""
                nonlocal e_ell, e_ls2
                b, s = kbb.shape[:2]
                diag = np.arange(s)
                dd_s = dd[rows].reshape(b, s)
                dd_s[...] = d_bar[:, diag, diag] * ~chunk.clamped[rows].reshape(b, s)
                q_bar = -d_bar
                q_bar[:, diag, diag] = -dd_s
                # the stack's columns of A^T Q_bar, as Q_bar^T A_s = (A_s^T Q_bar)^T
                # on (B_s, n_s, M) views of A and of (A^T Q_bar)^T
                a_s = at.T[rows].reshape(b, s, -1)
                at_q.T[rows].reshape(b, s, -1)[...] = np.swapaxes(q_bar, 1, 2) @ a_s
                d_bar[:, diag, diag] = 0.0  # K_bb's diagonal is not in D
                xs = chunk.x[rows].reshape(b, s, -1)
                k_ell, k_s2, _ = kernel_matrix_adjoint(xs, xs, kern, kbb, d_bar)
                e_ell, e_ls2 = e_ell + k_ell, e_ls2 + k_s2

        if stacks is None:
            stacks = _penalty_stacks(chunk, shapes, penalty, alpha, m)
        d_diag = _gap_penalty(chunk, stacks, sums, w, pull, noise_fit)
        if not gradient:
            continue
        # A finite value can still have adjoints past the float range (Kuu^-1
        # L_q at a huge q(u) factor, say); that is a FloatingPointError here,
        # not a warning and an infinite gradient.
        with np.errstate(over="raise", invalid="raise"):
            if d_diag is not None:  # a diagonal penalty, which pulled no stack
                dd[:] = d_diag
                dd[chunk.clamped] = 0.0
                np.multiply(at, -dd, out=at_q)
            sum_dd += float(np.sum(dd))
            aqa += at_q @ at.T
            at_rho += at @ rho
            at_g += at @ g
            del at
            # K_uc's adjoint, 2 A^T Q_bar + Kuu^-1 A_bar^T with A_bar^T = w
            # (q.mean rho^T - L_q g^T), built in A^T Q_bar's array
            g_uc = at_q
            g_uc *= 2.0
            g_uc += (w * p_mean)[:, None] * rho
            g_uc -= (w * p_lq) @ g.T
            k_ell, k_s2, k_z = kernel_matrix_adjoint(z, chunk.x, kern, chunk.kuf, g_uc)
            e_ell, e_ls2, e_z = e_ell + k_ell, e_ls2 + k_s2, e_z + k_z

    pen, whole = sums.finish(s2, w, gradient, n_total) if totals is None else totals.finished
    if not pep:
        e = -0.5 * (n * (_LOG_2PI + np.log(s2)) + fit_sq / s2)
    value = -kl + w * (e - pen) + whole
    reg = whole - w * pen
    if not gradient:
        return BlockEstimate(value=value), reg, sums.jit
    if not np.isfinite(value):  # its adjoints are past the float range too
        raise FloatingPointError(f"objective is {value}, so it has no gradient")

    with np.errstate(over="raise", invalid="raise"):
        g_s2 = sums.g_s2 if pep else sums.g_s2 + 0.5 * w * (fit_sq / s2 - n) / s2
        # KL term: adjoints of Kuu, the q(u) mean and its factor; the data
        # term adds those of A^T, w (q.mean rho^T - L_q g^T), and of the
        # q(u) mean and factor.  Q and A = Kfu Kuu^-1 pass theirs on to Kuu.
        luu, lq = prep.luu, q.cov_chol.lower
        g_uu = 0.5 * (p_lq @ p_lq.T + np.outer(p_mean, p_mean) - luu.solve(np.eye(q.dim)))
        g_uu -= aqa + w * (np.outer(at_rho, p_mean) - at_g @ p_lq.T)
        g_uu = 0.5 * (g_uu + g_uu.T)
        d_mean = w * at_rho - p_mean
        d_lower = np.diag(1.0 / np.diag(lq)) - p_lq - w * at_g
        d_ell, d_ls2, d_z1 = kernel_matrix_adjoint(z, z, kern, prep.kuu, g_uu)
        d_z2 = kernel_matrix_adjoint(z, z, kern, prep.kuu.T, g_uu.T)[2]  # z as x2
        # K's diagonal, the signal variance, is D's diagonal's other part
        d_ls2 += e_ls2 + kern.signal_variance * sum_dd
        est = BlockEstimate(
            value=value,
            d_log_lengthscales=d_ell + e_ell,
            d_log_signal_variance=d_ls2,
            d_log_noise_variance=s2 * g_s2,
            d_inducing=d_z1 + d_z2 + e_z,
            d_log_m_scale=m * sums.g_m,
            d_mean=d_mean,
            d_lower=np.tril(d_lower),
        )
    return est, reg, sums.jit


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
    "trace", "diag" and "logdet" are accepted (power EP's, which needs
    alpha, is tpep_stochastic).  The value of block_estimate, which
    checks the penalty and touches only the block's kernels.
    """
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
    otherwise of the full bound, read off the same pass over all points.
    The gap penalties do not touch q, so the penalty choice does not
    matter here.  Returns (d_mean, d_lower) with d_lower already masked
    to the lower triangle.
    """
    return _qu_gradient(x, y, state, partition, q, block_index)


def _qu_gradient(x, y, state, partition, q, block_index, penalty="trace", alpha=None, m=1.0):
    """(d_mean, d_lower) of the uncollapsed bound at penalty, or with
    block_index of its single-block estimator: block_estimate's, else
    the pass's over all blocks."""
    if block_index is not None:
        est = block_estimate(x, y, state, partition, q, block_index, penalty, alpha, m, True)
    else:
        prep, chunks = _prepared(x, y, state, penalty, partition)
        est = _estimate(prep, q, chunks, penalty, 1.0, alpha, m, gradient=True)[0]
    return est.d_mean, est.d_lower
