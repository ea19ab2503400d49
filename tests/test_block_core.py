"""The size-grouped block core against the one-block path.

Every per-block quantity of the full-data objectives (gap blocks, their
factors, the low-rank-plus-block-noise Gaussian, the uncollapsed T-PEP
energy and its q(u) gradient) is computed a stack of equal-size blocks
at a time.  The references below redo the same quantities one block at
a time, from PreparedBound.block_gap and chol, the way the objectives
were first written; the gap builder itself is checked against
kernel_matrix.  Partitions are unequal, with a one-point block and size
groups that hold a single block.  The stacks are the ones the pass cuts
(bounds_vi._chunks), whose budgets are checked here too.
"""

import numpy as np
import pytest

from blockgp.bounds_pep import (
    PepConfig,
    pep_collapsed,
    tpep_collapsed,
    tpep_optimal_qu,
    tpep_qu_gradient,
    tpep_uncollapsed,
)
from blockgp import bounds_vi
from blockgp.bounds_vi import (
    CHUNK_ENTRIES,
    STACK_ENTRIES,
    PreparedBound,
    btsgpr_collapsed,
    btsgpr_optimal_scales,
    kl_qu,
    prepare,
    sharedblock_collapsed,
    sharedblock_optimal_scale,
    vi_uncollapsed,
)
from blockgp.kernels import KernelParams, NoiseParam, kernel_matrix, kernel_stack
from blockgp.linalg import (
    JITTER_GROWTH,
    LowRankGaussian,
    NotPositiveDefiniteError,
    chol,
    chol_stack,
)
from blockgp.model import BoundSpec, ModelState, Partition, make_partition
from blockgp.training import EvaluationFailed, TrainConfig, evaluate_bound, fit_collapsed
from blockgp.verify import random_instance, random_qu

RTOL = 1e-12
_LOG_2PI = float(np.log(2.0 * np.pi))


@pytest.fixture(params=[STACK_ENTRIES, 20], ids=["stacks", "cut-stacks"])
def cut(request, monkeypatch):
    """Run with the default stack size and with stacks cut to a few blocks."""
    monkeypatch.setattr(bounds_vi, "STACK_ENTRIES", request.param)


def _close(ours, ref, rtol=RTOL):
    """Largest deviation within rtol of the reference's largest entry."""
    ours, ref = np.asarray(ours, dtype=float), np.asarray(ref, dtype=float)
    assert ours.shape == ref.shape
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    assert float(np.max(np.abs(ours - ref))) <= rtol * scale


def _unequal_partition(rng, n: int) -> Partition:
    """Blocks of 2 and 3 points, one block of 1 and one of 4, shuffled."""
    rem = n - 5
    sizes = [1, 4] + [3] * (rem // 3) + {0: [], 1: [], 2: [2]}[rem % 3]
    if rem % 3 == 1:
        sizes[-1:] = [2, 2]
    sizes = rng.permutation(sizes)
    pieces = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
    part = Partition([np.sort(p) for p in pieces])
    counts = {s: sum(1 for b in part.blocks if b.size == s) for s in (1, 4)}
    assert counts == {1: 1, 4: 1}
    return part


def _instances(seed, count=4):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x, y, state = random_instance(rng)
        yield rng, x, y, state, _unequal_partition(rng, y.shape[0])


def _per_block_fit(prep: PreparedBound, blocks, rs):
    """log N(y; 0, Q + blkdiag(R_b)), sum_b log det R_b, the jitter and
    the u-posterior mean and covariance, one block at a time."""
    m = prep.v.shape[0]
    bmat, c = np.eye(m), np.zeros(m)
    quad, logdet_noise, jit = 0.0, 0.0, prep.luu.jitter_used
    for idx, r in zip(blocks, rs):
        lr = chol(r)
        jit = max(jit, lr.jitter_used)
        u = lr.half_solve(prep.v[:, idx].T).T
        t = lr.half_solve(prep.y[idx])
        bmat += u @ u.T
        c += u @ t
        quad += float(t @ t)
        logdet_noise += lr.logdet()
    lb = chol(bmat)
    w = lb.half_solve(c)
    fit = -0.5 * (prep.n * _LOG_2PI + logdet_noise + lb.logdet() + quad - float(w @ w))
    f = lb.half_solve(prep.luu.lower.T)
    return fit, logdet_noise, max(jit, lb.jitter_used), f.T @ w, f.T @ f


def _layout(x, y, state, part):
    """The pass's chunks over the points in the partition's block order,
    as the bounds that read blocks cut them."""
    return bounds_vi._prepared(x, y, state, "logdet", part)[1]


def _index_stacks(part, shapes):
    """The (B_s, n_s) point indices of stacks that follow one another
    through the block order."""
    ends = np.cumsum([b * s for b, s in shapes])
    return [part.order[e - b * s : e].reshape(b, s) for e, (b, s) in zip(ends, shapes)]


def _in_block_order(x, y, state, part):
    """prepare over the points in the partition's block order, its stack
    shapes, one chunk after another, and the stacks' point indices."""
    shapes = [shape for _, stacks in _layout(x, y, state, part) for shape in stacks]
    prep = prepare(x[part.order], y[part.order], state)
    return prep, shapes, _index_stacks(part, shapes)


def _noise_blocks(prep, part, alpha, m):
    return [alpha * m * prep.block_gap(idx) + prep.sigma2 * np.eye(idx.size)
            for idx in part.blocks]


def test_stacked_gaps_match_kernel_matrix_blocks():
    for _, x, y, state, part in _instances(40):
        prep, shapes, index = _in_block_order(x, y, state, part)
        for ix, (rows, _, gaps) in zip(index, prep.gap_stacks(shapes)):
            at = np.arange(rows.start, rows.stop).reshape(ix.shape)  # the blocks' places
            for idx, pos, gap in zip(ix, at, gaps):
                kbb = kernel_matrix(x[idx], x[idx], state.kernel)
                vb = prep.v[:, pos]
                ref = kbb - vb.T @ vb
                ref = 0.5 * (ref + ref.T)
                np.fill_diagonal(ref, prep.gap_diag[pos])
                _close(gap, ref)
                assert np.array_equal(gap, prep.block_gap(pos))


def _instance_at(n, m, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (n, 2))
    z = x[rng.choice(n, m, replace=False)]
    return x, np.sin(x[:, 0]), ModelState(KernelParams(np.zeros(2), 0.0), NoiseParam(-2.0), z)


def test_chunks_cut_each_run_of_blocks_within_both_budgets():
    rng = np.random.default_rng(41)
    # blocks of 3 and 4 points, as many of each as the tpep-fine-blocks workload
    sizes = rng.permutation([3] * 144 + [4] * 142)
    fine = Partition([np.sort(p) for p in np.split(rng.permutation(1000), np.cumsum(sizes)[:-1])])
    cases = [(_unequal_partition(rng, 23), 4), (_unequal_partition(rng, 1000), 64),
             (make_partition(2000, 50), 32), (make_partition(6000, 30), 8),
             (make_partition(6000, 150), 8), (make_partition(1500, 5), 128), (fine, 8)]
    layouts = []
    for part, m in cases:
        x, y, state = _instance_at(part.n, m)
        chunks = _layout(x, y, state, part)
        width = CHUNK_ENTRIES // m
        shapes = [shape for _, stacks in chunks for shape in stacks]
        assert all(b == 1 or b * s * s <= STACK_ENTRIES and b * s <= width for b, s in shapes)
        for span, stacks in chunks:
            assert span.stop - span.start == sum(b * s for b, s in stacks)
            assert span.stop - span.start <= width or stacks == [(1, stacks[0][1])]
        assert [span.start for span, _ in chunks] == [0] + [span.stop for span, _ in chunks[:-1]]
        # the stacks cover the block order once, in order, each of whole equal-size blocks
        stacked = [idx for ix in _index_stacks(part, shapes) for idx in ix]
        assert chunks[-1][0].stop == part.n and len(stacked) == part.num_blocks
        assert all(np.array_equal(a, b) for a, b in zip(stacked, sorted(part.blocks, key=len)))
        layouts.append([stacks for _, stacks in chunks])
    # the workloads: 50 blocks of 40 at M = 32 are two chunks of one stack
    # each; blocks of 200 fill a stack each; blocks of 3 and 4 fit one chunk
    assert layouts[2] == [[(25, 40)], [(25, 40)]]
    assert layouts[3] == [[(1, 200)] * 20, [(1, 200)] * 10]
    assert layouts[6] == [[(144, 3), (142, 4)]]
    # blocks of 40 at M = 8 are cut to 40 a stack; blocks of 300 wider than
    # a chunk of 256 points are a chunk each
    assert layouts[4] == [[(40, 40), (40, 40), (22, 40)], [(40, 40), (8, 40)]]
    assert layouts[5] == [[(1, 300)]] * 5


def test_btsgpr_matches_the_one_block_path(cut):
    for _, x, y, state, part in _instances(42):
        prep = prepare(x, y, state)
        s2 = prep.sigma2
        factors = [chol(np.eye(idx.size) + prep.block_gap(idx) / s2) for idx in part.blocks]
        ours = btsgpr_collapsed(x, y, state, part)
        _close(ours.regularizer, -0.5 * sum(f.logdet() for f in factors))
        fit, *_ = _per_block_fit(prep, [np.arange(prep.n)], [s2 * np.eye(prep.n)])
        _close(ours.total, fit - 0.5 * sum(f.logdet() for f in factors))
        for scale, f in zip(btsgpr_optimal_scales(x, y, state, part), factors):
            _close(scale, f.solve(np.eye(f.size)))


def test_vi_uncollapsed_matches_the_one_block_path(cut):
    for rng, x, y, state, part in _instances(43):
        q = random_qu(rng, state.num_inducing)
        prep = prepare(x, y, state)
        s2 = prep.sigma2
        a_mean = prep.v.T @ prep.luu.half_solve(q.mean)
        h = prep.v.T @ prep.luu.half_solve(q.cov_chol.lower)
        fit, pen = 0.0, 0.0
        for idx in part.blocks:
            resid = prep.y[idx] - a_mean[idx]
            fit -= 0.5 * (idx.size * (_LOG_2PI + np.log(s2))
                          + (float(resid @ resid) + float(np.sum(h[idx] ** 2))) / s2)
            pen += 0.5 * chol(np.eye(idx.size) + prep.block_gap(idx) / s2).logdet()
        ours = vi_uncollapsed(x, y, state, part, q, penalty="logdet")
        _close(ours.regularizer, -pen)
        _close(ours.total, fit - kl_qu(q, state) - pen)


def test_shared_average_matches_the_one_block_path(cut):
    rng = np.random.default_rng(44)
    for _ in range(4):
        x, y, state = random_instance(rng)
        n = y.shape[0] // 2 * 2
        x, y = x[:n], y[:n]
        num = int(rng.choice([b for b in range(2, n) if n % b == 0]))
        part = make_partition(n, num, seed=int(rng.integers(2**31)))
        prep = prepare(x, y, state)
        avg = sum(prep.block_gap(idx) for idx in part.blocks) / num
        lb = chol(np.eye(avg.shape[0]) + avg / prep.sigma2)
        reg = -0.5 * num * lb.logdet()
        _close(sharedblock_collapsed(x, y, state, part).regularizer, reg)
        _close(sharedblock_optimal_scale(x, y, state, part), lb.solve(np.eye(lb.size)))
        q = random_qu(rng, state.num_inducing)
        shared = vi_uncollapsed(x, y, state, part, q, penalty="shared")
        _close(shared.regularizer, reg)


@pytest.mark.parametrize("alpha,m", [(0.5, 1.0), (0.3, 1.4), (1.0, 0.8)])
def test_block_noise_gaussian_matches_the_one_block_path(alpha, m, cut):
    for _, x, y, state, part in _instances(45):
        state = state.with_(log_m_scale=float(np.log(m)))
        cfg = PepConfig(alpha=alpha, partition=part, m_scale=m)
        prep = prepare(x, y, state)
        rs = _noise_blocks(prep, part, alpha, m)
        fit, logdet_noise, jit, mean, cov = _per_block_fit(prep, part.blocks, rs)
        ordered, shapes, index = _in_block_order(x, y, state, part)
        stacks = list(ordered.gap_factors(shapes, alpha, m))
        for ix, (_, _, gaps, lower, _) in zip(index, stacks):
            for idx, gap, low in zip(ix, gaps, lower):
                _close(gap, prep.block_gap(idx))
                _close(low, chol(alpha * m * gap + prep.sigma2 * np.eye(idx.size)).lower)
        gauss = LowRankGaussian(prep.luu, prep.sigma2)
        gauss.add(ordered.v, ordered.y, [(lower, jitter) for *_, lower, jitter in stacks])
        _close(gauss.logpdf(), fit)
        _close(gauss.logdet_noise, logdet_noise)
        assert gauss.jitter_used == jit
        reg = -(1.0 - alpha) / (2.0 * alpha) * (logdet_noise - prep.n * np.log(prep.sigma2))
        whole = -prep.n / (2 * alpha) * np.log1p(alpha * (m - 1)) + 0.5 * prep.n * np.log(m)
        energy = (pep_collapsed if m == 1.0 else tpep_collapsed)(x, y, state, cfg)
        _close(energy.fit_term, fit)
        _close(energy.total, fit + reg + whole)
        qu = tpep_optimal_qu(x, y, state, cfg)
        _close(qu.mean, mean)
        _close(qu.cov_chol.lower, chol(cov).lower)


@pytest.mark.parametrize("alpha,m", [(0.5, 1.0), (0.3, 1.4)])
def test_tpep_uncollapsed_and_qu_gradient_match_the_one_block_path(alpha, m, cut):
    for rng, x, y, state, part in _instances(46):
        state = state.with_(log_m_scale=float(np.log(m)))
        cfg = PepConfig(alpha=alpha, partition=part, m_scale=m)
        q = random_qu(rng, state.num_inducing)
        prep = prepare(x, y, state)
        at = prep.luu.half_solve_t(prep.v)  # A^T = Kuu^-1 Kuf
        a_mean = at.T @ q.mean
        h = prep.v.T @ prep.luu.half_solve(q.cov_chol.lower)
        mm = state.num_inducing
        fit, logdet_noise = 0.0, 0.0
        d_mean = -prep.luu.solve(q.mean)
        d_s = 0.5 * (q.cov_chol.solve(np.eye(mm)) - prep.luu.solve(np.eye(mm)))
        for idx, r in zip(part.blocks, _noise_blocks(prep, part, alpha, m)):
            lr = chol(r)
            resid = lr.half_solve(prep.y[idx] - a_mean[idx])
            white_h = lr.half_solve(h[idx])
            logdet_noise += lr.logdet()
            fit -= 0.5 * (idx.size * _LOG_2PI + lr.logdet() + float(resid @ resid)
                          + float(np.sum(white_h * white_h)))
            d_mean = d_mean + at[:, idx] @ lr.solve(prep.y[idx] - a_mean[idx])
            half = lr.half_solve(at[:, idx].T)
            d_s = d_s - 0.5 * (half.T @ half)
        d_s = 0.5 * (d_s + d_s.T)
        reg = -(1.0 - alpha) / (2.0 * alpha) * (logdet_noise - prep.n * np.log(prep.sigma2))
        reg += -prep.n / (2 * alpha) * np.log1p(alpha * (m - 1)) + 0.5 * prep.n * np.log(m)
        ours = tpep_uncollapsed(x, y, state, cfg, q)
        _close(ours.regularizer, reg)
        _close(ours.total, fit - kl_qu(q, state) + reg)
        g_mean, g_lower = tpep_qu_gradient(x, y, state, cfg, q)
        _close(g_mean, d_mean)
        _close(g_lower, np.tril(2.0 * d_s @ q.cov_chol.lower))


def _duplicate_instance():
    """Tiny noise and one block of three points, two of them the same."""
    rng = np.random.default_rng(47)
    x, y, state = random_instance(rng)
    n = y.shape[0]
    part = _unequal_partition(rng, n)
    dup = next(b for b in part.blocks if b.size == 3)
    x = x.copy()
    x[dup[1]] = x[dup[0]]
    state = state.with_(noise=NoiseParam(log_noise_variance=-40.0))
    return x, y, state, part, dup


def test_duplicate_inputs_get_the_per_block_jitter(cut):
    x, y, state, part, dup = _duplicate_instance()
    prep = prepare(x, y, state)
    ordered, shapes, index = _in_block_order(x, y, state, part)
    s2 = prep.sigma2
    seen = 0
    # BT-SGPR's I + D_bb / sigma2 and T-PEP's a m D_bb + sigma2 I
    for alpha, m in ((None, 1.0), (0.5, 1.3)):
        stacks = ordered.gap_factors(shapes, alpha, m)
        for ix, (_, _, gaps, lower, jitter) in zip(index, stacks):
            eye = np.eye(ix.shape[1])
            stack = gaps / s2 + eye if alpha is None else (alpha * m) * gaps + s2 * eye
            ref = [chol(a) for a in stack]
            assert list(jitter) == [f.jitter_used for f in ref]
            assert np.array_equal(lower, np.stack([f.lower for f in ref]))
            for idx, jit in zip(ix, jitter):
                if np.array_equal(idx, dup):
                    assert jit > 0.0
                    seen += 1
    assert seen == 2
    # the bound reports the largest jitter the one-block ladder gives
    cfg = PepConfig(alpha=0.5, partition=part, m_scale=1.3)
    state = state.with_(log_m_scale=float(np.log(1.3)))
    _, _, jit, _, _ = _per_block_fit(prep, part.blocks, _noise_blocks(prep, part, 0.5, 1.3))
    assert tpep_collapsed(x, y, state, cfg).jitter_used == jit > 0.0
    factors = [chol(np.eye(b.size) + prep.block_gap(b) / s2) for b in part.blocks]
    ours = btsgpr_collapsed(x, y, state, part).jitter_used
    iid = LowRankGaussian(prep.luu, s2)
    iid.add(prep.v, prep.y)
    assert ours == max(iid.jitter_used, max(f.jitter_used for f in factors)) > 0.0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 12: the adjoints freeze each factor's jitter, which chol "
    "scales with the matrix's mean diagonal"
))
def test_tpep_gradient_on_the_duplicate_follows_the_value_on_one_rung():
    # T-PEP at alpha 0.5, m = 1 factors the duplicate's block noise with
    # jitter about 8e6 sigma2; the analytic lengthscale gradient reads 888
    # against a slope of -1.36e9
    x, y, state, part, _ = _duplicate_instance()
    state = state.with_(log_m_scale=0.0)
    spec = BoundSpec(method="T-PEP", alpha=0.5, num_blocks=part.num_blocks)
    analytic = evaluate_bound(x, y, state, spec, part, gradient=True)
    steps = np.linspace(-1e-3, 1e-3, 9)
    values, jitters = [], []
    for h in steps:
        ell = state.kernel.log_lengthscales.copy()
        ell[0] += h
        kernel = KernelParams(ell, state.kernel.log_signal_variance)
        out = evaluate_bound(x, y, state.with_(kernel=kernel), spec, part)
        values.append(out.total)
        jitters.append(out.jitter_used)
    # every point on one rung of the ladder, so the value is smooth there
    assert 0.0 < max(jitters) < np.sqrt(JITTER_GROWTH) * min(jitters)
    # a cubic fit moves the least-squares slope by 0.3 %
    slope = np.polyfit(steps, values, 1)[0]
    np.testing.assert_allclose(analytic.gradient.d_log_lengthscales[0], slope, rtol=1e-2)


def test_a_stack_past_the_ladder_raises_by_name():
    # one indefinite matrix in an otherwise positive-definite stack: the
    # stack falls back to chol and the ladder's cap raises
    stack = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3)])
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite at jitter"):
        chol_stack(stack)
    v = np.random.default_rng(48).standard_normal((2, 6))
    noise = 0.5 * np.eye(3) + np.stack([np.zeros((3, 3)), np.diag([1.0, 1.0, -5.0])])
    with pytest.raises(NotPositiveDefiniteError):
        LowRankGaussian(chol(np.eye(2)), 0.5).add(v, np.zeros(6), [chol_stack(noise)])


def test_a_stack_past_the_ladder_fails_the_fit(monkeypatch):
    # gap stacks with huge off-diagonal entries give indefinite R_b whose
    # mean diagonal stays positive, so each stack runs up the whole ladder
    rng = np.random.default_rng(49)
    x, y, state = random_instance(rng)
    state = state.with_(log_m_scale=0.0)
    part = _unequal_partition(rng, y.shape[0])
    real = PreparedBound.gap_stacks

    def indefinite(self, shapes):
        for rows, kbb, g in real(self, shapes):
            yield rows, kbb, g + 1e3 * (1.0 - np.eye(g.shape[-1]))

    monkeypatch.setattr(PreparedBound, "gap_stacks", indefinite)
    cfg = PepConfig(alpha=0.5, partition=part)
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite at jitter"):
        tpep_collapsed(x, y, state, cfg)
    spec = BoundSpec(method="T-PEP", alpha=0.5, num_blocks=part.num_blocks)
    for optimizer in ("lbfgs", "adam"):
        train = TrainConfig(objective=spec, optimizer=optimizer, epochs=2)
        with pytest.raises(EvaluationFailed):
            fit_collapsed(x, y, state, train, part)


@pytest.mark.parametrize("log_ell,log_s2", [(-1e3, 0.0), (0.0, 1e3)])
def test_stacked_kernel_overflow_raises(log_ell, log_s2):
    # exp under- or overflows quietly; the non-finite check names it
    params = KernelParams(log_lengthscales=np.full(2, log_ell), log_signal_variance=log_s2)
    xs = np.random.default_rng(50).uniform(-1.0, 1.0, (4, 3, 2))
    with pytest.raises(FloatingPointError, match="non-finite"):
        kernel_stack(xs, params)
    x, y, state = random_instance(np.random.default_rng(51))
    prep = prepare(x, y, state)
    far = ModelState(kernel=KernelParams(np.full(x.shape[1], log_ell), log_s2),
                     noise=state.noise, inducing=state.inducing)
    prep.state = far
    with pytest.raises(FloatingPointError):
        chunks = _layout(x, y, state, make_partition(y.shape[0], 4))
        list(prep.gap_stacks([shape for _, stacks in chunks for shape in stacks]))
