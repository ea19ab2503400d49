"""The size-grouped block core against the one-block path.

Every per-block quantity of the full-data objectives (gap blocks, their
factors, the low-rank-plus-block-noise Gaussian, the uncollapsed T-PEP
energy and its q(u) gradient) is computed a stack of equal-size blocks
at a time.  The references below redo the same quantities one block at
a time, from PreparedBound.block_gap and chol, the way the objectives
were first written; the gap builder itself is checked against
kernel_matrix.  Partitions are unequal, with a one-point block and size
groups that hold a single block.
"""

import numpy as np
import pytest

from blockgp.bounds_pep import (
    PepConfig,
    pep_collapsed,
    tpep_collapsed,
    tpep_noise,
    tpep_optimal_qu,
    tpep_qu_gradient,
    tpep_uncollapsed,
)
from blockgp.bounds_vi import (
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
    BlockNoise,
    LowRankGaussian,
    NotPositiveDefiniteError,
    chol,
    chol_stack,
)
from blockgp import model
from blockgp.model import STACK_ENTRIES, BoundSpec, ModelState, Partition, make_partition
from blockgp.training import EvaluationFailed, TrainConfig, fit_collapsed
from blockgp.verify import random_instance, random_qu

RTOL = 1e-12
_LOG_2PI = float(np.log(2.0 * np.pi))


@pytest.fixture(params=[STACK_ENTRIES, 20], ids=["stacks", "cut-stacks"])
def cut(request, monkeypatch):
    """Run with the default stack size and with stacks cut to a few blocks."""
    monkeypatch.setattr(model, "STACK_ENTRIES", request.param)


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


def _noise_blocks(prep, part, alpha, m):
    return [alpha * m * prep.block_gap(idx) + prep.sigma2 * np.eye(idx.size)
            for idx in part.blocks]


def test_stacked_gaps_match_kernel_matrix_blocks():
    for _, x, y, state, part in _instances(40):
        prep = prepare(x, y, state)
        for ix, gaps in zip(part.groups, prep.block_gaps(part.groups)):
            for idx, gap in zip(ix, gaps):
                kbb = kernel_matrix(x[idx], x[idx], state.kernel)
                vb = prep.v[:, idx]
                ref = kbb - vb.T @ vb
                ref = 0.5 * (ref + ref.T)
                np.fill_diagonal(ref, prep.gap_diag[idx])
                _close(gap, ref)
                assert np.array_equal(gap, prep.block_gap(idx))


def test_partition_groups_stack_blocks_by_size():
    rng = np.random.default_rng(41)
    for part in (_unequal_partition(rng, 23), make_partition(6000, 30)):
        sizes = [ix.shape[1] for ix in part.groups]
        assert sizes == sorted(sizes)
        assert set(sizes) == set(part.block_sizes)
        assert all(ix.shape[0] == 1 or ix.size * ix.shape[1] <= STACK_ENTRIES
                   for ix in part.groups)
        stacked = [idx for ix in part.groups for idx in ix]
        in_order = sorted(part.blocks, key=len)
        assert len(stacked) == part.num_blocks
        assert all(np.array_equal(a, b) for a, b in zip(stacked, in_order))
    # blocks of 200 fill a stack each; 50 blocks of 40 make stacks of 40 and
    # 10; blocks of 3 and 4 are not cut
    assert [ix.shape[0] for ix in make_partition(6000, 30).groups] == [1] * 30
    assert [ix.shape[0] for ix in make_partition(2000, 50).groups] == [40, 10]
    assert len(_unequal_partition(rng, 1000).groups) == 4


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
        noise = tpep_noise(prep, cfg, m)
        for ix, stack in zip(noise.partition, noise.blocks):
            for idx, block in zip(ix, stack):
                _close(block, alpha * m * prep.block_gap(idx))
        gauss = prep.fit_gaussian(noise)
        _close(gauss.logpdf(prep.y), fit)
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
        at = prep.projector_t()
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
    s2 = prep.sigma2
    seen = 0
    for scale, shift in ((1.0 / s2, 1.0), (0.5 * 1.3, s2)):
        for ix, gaps in zip(part.groups, prep.block_gaps(part.groups)):
            stack = scale * gaps + shift * np.eye(ix.shape[1])
            lower, jitter = chol_stack(stack)
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
    iid = prep.fit_gaussian(BlockNoise(sigma2=s2)).jitter_used
    assert ours == max(iid, max(f.jitter_used for f in factors)) > 0.0


def test_a_stack_past_the_ladder_raises_by_name():
    # one indefinite matrix in an otherwise positive-definite stack: the
    # stack falls back to chol and the ladder's cap raises
    stack = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3)])
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite at jitter"):
        chol_stack(stack)
    v = np.random.default_rng(48).standard_normal((2, 6))
    noise = BlockNoise(sigma2=0.5, partition=[np.arange(3), np.arange(3, 6)],
                       blocks=[None, np.diag([1.0, 1.0, -5.0])])
    with pytest.raises(NotPositiveDefiniteError):
        LowRankGaussian(chol(np.eye(2)), v, noise)


def test_a_stack_past_the_ladder_fails_the_fit(monkeypatch):
    # gap stacks with huge off-diagonal entries give indefinite R_b whose
    # mean diagonal stays positive, so each stack runs up the whole ladder
    rng = np.random.default_rng(49)
    x, y, state = random_instance(rng)
    state = state.with_(log_m_scale=0.0)
    part = _unequal_partition(rng, y.shape[0])
    real = PreparedBound.block_gaps

    def indefinite(self, groups):
        return [g + 1e3 * (1.0 - np.eye(g.shape[-1])) for g in real(self, groups)]

    monkeypatch.setattr(PreparedBound, "block_gaps", indefinite)
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
        list(prep.block_gaps(make_partition(y.shape[0], 4).groups))
