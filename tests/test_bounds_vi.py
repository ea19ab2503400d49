"""Collapsed and uncollapsed variational bounds against dense oracles.

Every closed form is recomputed in _oracles.py through full N x N
covariances and scipy densities; the package itself never builds those
matrices, so the comparisons are independent recomputations.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import (
    dense_btsgpr,
    dense_exact,
    dense_general_c,
    dense_optimal_qu,
    dense_parts,
    dense_sgpr,
    dense_sharedblock,
    dense_spherical,
    dense_tsgpr,
)
from blockgp import bounds_vi
from blockgp.bounds_vi import (
    btsgpr_collapsed,
    btsgpr_optimal_scales,
    exact_lml,
    kl_qu,
    optimal_qu,
    prepare,
    sgpr_collapsed,
    sharedblock_collapsed,
    sharedblock_optimal_scale,
    spherical_collapsed,
    spherical_optimal_scale,
    tsgpr_collapsed,
    tsgpr_optimal_scales,
    vi_collapsed,
    vi_stochastic,
    vi_uncollapsed,
)
from blockgp.kernels import KernelParams, NoiseParam
from blockgp.linalg import BATCHED_INVERSE_MAX
from blockgp.model import ModelState, Partition, make_partition, singleton_partition
from blockgp.oracles import btsgpr_parametric, general_c_optimum, general_c_oracle
from blockgp.verify import (
    equal_blocks,
    random_blocks,
    random_instance,
    random_qu,
    small_instance,
    spread_instance,
)


def test_exact_lml_matches_dense():
    rng = np.random.default_rng(0)
    for _ in range(6):
        x, y, state = small_instance(rng)
        assert_allclose(exact_lml(x, y, state).total, dense_exact(x, y, state), rtol=1e-9)


def test_collapsed_bounds_match_dense_oracles():
    rng = np.random.default_rng(1)
    for _ in range(8):
        x, y, state = small_instance(rng)
        part = random_blocks(rng, y.shape[0])
        eq = equal_blocks(rng, y.shape[0])
        assert_allclose(sgpr_collapsed(x, y, state).total, dense_sgpr(x, y, state), rtol=1e-9)
        assert_allclose(tsgpr_collapsed(x, y, state).total, dense_tsgpr(x, y, state), rtol=1e-9)
        assert_allclose(
            btsgpr_collapsed(x, y, state, part).total,
            dense_btsgpr(x, y, state, part),
            rtol=1e-9,
        )
        assert_allclose(
            sharedblock_collapsed(x, y, state, eq).total,
            dense_sharedblock(x, y, state, eq),
            rtol=1e-9,
        )
        assert_allclose(
            spherical_collapsed(x, y, state).total,
            dense_spherical(x, y, state),
            rtol=1e-9,
        )


def test_ordering_chain():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y, state = random_instance(rng)
        part = random_blocks(rng, y.shape[0])
        chain = [
            sgpr_collapsed(x, y, state).total,
            spherical_collapsed(x, y, state).total,
            tsgpr_collapsed(x, y, state).total,
            btsgpr_collapsed(x, y, state, part).total,
            exact_lml(x, y, state).total,
        ]
        for lo, hi in zip(chain, chain[1:]):
            assert hi - lo >= -1e-9, chain
        eq = equal_blocks(rng, y.shape[0])
        shared = sharedblock_collapsed(x, y, state, eq).total
        bt_eq = btsgpr_collapsed(x, y, state, eq).total
        assert bt_eq - shared >= -1e-9


def test_block_merging_tightens_the_bound():
    rng = np.random.default_rng(3)
    for _ in range(8):
        x, y, state = small_instance(rng)
        fine = make_partition(y.shape[0], 6, seed=int(rng.integers(1 << 31)))
        coarse = fine
        prev = btsgpr_collapsed(x, y, state, fine).total
        while coarse.num_blocks > 1:
            from blockgp.model import merge_pairs

            coarse = merge_pairs(coarse)
            cur = btsgpr_collapsed(x, y, state, coarse).total
            assert cur - prev >= -1e-9
            prev = cur


def test_singleton_blocks_recover_diagonal_bound():
    rng = np.random.default_rng(4)
    for _ in range(6):
        x, y, state = small_instance(rng)
        part = singleton_partition(y.shape[0])
        assert_allclose(
            btsgpr_collapsed(x, y, state, part).total,
            tsgpr_collapsed(x, y, state).total,
            rtol=1e-9,
        )


def test_optimal_scales_closed_forms():
    rng = np.random.default_rng(5)
    x, y, state = small_instance(rng)
    _, _, gap = dense_parts(x, state)
    s2 = state.noise.noise_variance

    scales = tsgpr_optimal_scales(x, y, state)
    assert_allclose(scales, s2 / (s2 + np.diag(gap)), rtol=1e-7)
    assert np.all(scales > 0.0) and np.all(scales <= 1.0)

    assert_allclose(
        spherical_optimal_scale(x, y, state),
        1.0 / (1.0 + np.mean(np.diag(gap)) / s2),
        rtol=1e-7,
    )

    part = random_blocks(rng, y.shape[0])
    for ix, mb in zip(part.blocks, btsgpr_optimal_scales(x, y, state, part)):
        dense = np.linalg.inv(np.eye(ix.size) + gap[np.ix_(ix, ix)] / s2)
        assert_allclose(mb, dense, rtol=1e-6, atol=1e-10)
        evals = np.linalg.eigvalsh(mb)
        assert evals.min() > 0.0 and evals.max() <= 1.0 + 1e-12


def test_optimal_block_scales_on_both_inverse_paths():
    # blocks of up to BATCHED_INVERSE_MAX points are inverted batched, larger
    # ones one at a time; both match a plain inverse of I + D_bb / sigma2
    rng = np.random.default_rng(12)
    sizes = [1, 10, 10, BATCHED_INVERSE_MAX, BATCHED_INVERSE_MAX + 1, 45]
    n, d = sum(sizes), 2
    x = rng.uniform(-2.0, 2.0, (n, d))
    state = ModelState(
        kernel=KernelParams(log_lengthscales=np.zeros(d), log_signal_variance=0.0),
        noise=NoiseParam(log_noise_variance=np.log(0.5)),
        inducing=rng.uniform(-2.0, 2.0, (6, d)),
    )
    y = rng.standard_normal(n)
    cuts = np.cumsum([0] + sizes)
    perm = rng.permutation(n)
    part = Partition([np.sort(perm[a:b]) for a, b in zip(cuts[:-1], cuts[1:])])
    prep = prepare(x, y, state)
    for ix, mb in zip(part.blocks, btsgpr_optimal_scales(x, y, state, part)):
        ref = np.linalg.inv(np.eye(ix.size) + prep.block_gap(ix) / prep.sigma2)
        assert np.max(np.abs(mb - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("alpha,m", [(None, 1.0), (0.5, 1.3)])
def test_gap_factors_hand_chol_stack_matrices_symmetric_to_the_bit(monkeypatch, alpha, m):
    # chol_stack reads only the lower triangle and does not symmetrize, so
    # BT-SGPR's I + D_bb / sigma2 and power EP's alpha m D_bb + sigma2 I must
    # come to it symmetric, on both sides of BATCHED_INVERSE_MAX
    rng = np.random.default_rng(21)
    shapes = [(3, 10), (1, BATCHED_INVERSE_MAX + 1), (2, 100)]
    n, d = sum(b * s for b, s in shapes), 2
    x = rng.uniform(-2.0, 2.0, (n, d))
    state = ModelState(
        kernel=KernelParams(log_lengthscales=np.zeros(d), log_signal_variance=0.0),
        noise=NoiseParam(log_noise_variance=np.log(0.05)),
        inducing=rng.uniform(-2.0, 2.0, (6, d)),
    )
    seen = []
    real_chol_stack = bounds_vi.chol_stack

    def checking_chol_stack(a):
        assert np.array_equal(a, np.swapaxes(a, 1, 2))
        seen.append(a.shape)
        return real_chol_stack(a)

    monkeypatch.setattr(bounds_vi, "chol_stack", checking_chol_stack)
    stacks = list(prepare(x, rng.standard_normal(n), state).gap_factors(shapes, alpha, m))
    assert seen == [(b, s, s) for b, s in shapes] and len(stacks) == len(shapes)


def test_parametric_block_bound_peaks_at_optimal_scales():
    rng = np.random.default_rng(6)
    for _ in range(6):
        x, y, state = small_instance(rng)
        part = random_blocks(rng, y.shape[0])
        best = btsgpr_optimal_scales(x, y, state, part)
        at_best = btsgpr_parametric(x, y, state, part, best).total
        assert_allclose(at_best, btsgpr_collapsed(x, y, state, part).total, rtol=1e-9)
        # any perturbed positive-definite scale does strictly worse
        for _ in range(4):
            bumped = []
            for mb in best:
                w = rng.standard_normal(mb.shape) * 0.1
                bumped.append(mb + w @ w.T / mb.shape[0] + 0.05 * np.eye(mb.shape[0]))
            val = btsgpr_parametric(x, y, state, part, bumped).total
            assert val <= at_best + 1e-9


def test_shared_scale_matches_average_inverse():
    rng = np.random.default_rng(7)
    x, y, state = small_instance(rng)
    eq = equal_blocks(rng, y.shape[0])
    _, _, gap = dense_parts(x, state)
    s2 = state.noise.noise_variance
    nb = eq.blocks[0].size
    avg = sum(gap[np.ix_(ix, ix)] for ix in eq.blocks) / eq.num_blocks
    assert_allclose(
        sharedblock_optimal_scale(x, y, state, eq),
        np.linalg.inv(np.eye(nb) + avg / s2),
        rtol=1e-6,
        atol=1e-10,
    )


def test_sharedblock_requires_equal_sizes():
    rng = np.random.default_rng(8)
    x, y, state = small_instance(rng)
    n = y.shape[0]
    blocks = [np.arange(0, 3), np.arange(3, n)]
    from blockgp.model import Partition

    with pytest.raises(ValueError):
        sharedblock_collapsed(x, y, state, Partition(blocks))


def test_vi_collapsed_rejects_unknown_penalties_and_missing_blocks():
    x, y, state = small_instance(np.random.default_rng(8))
    with pytest.raises(ValueError, match="penalty must be one of"):
        vi_collapsed(x, y, state, "pep")
    for penalty in ("shared", "logdet"):
        with pytest.raises(ValueError, match="reads a partition's blocks"):
            vi_collapsed(x, y, state, penalty)


def test_optimal_qu_matches_bayes_linear_oracle():
    rng = np.random.default_rng(9)
    for _ in range(6):
        x, y, state = small_instance(rng)
        q = optimal_qu(x, y, state)
        mean, cov = dense_optimal_qu(x, y, state)
        assert_allclose(q.mean, mean, rtol=1e-6, atol=1e-9)
        assert_allclose(q.cov, cov, rtol=1e-6, atol=1e-9)


def test_collapse_identities_at_optimal_qu():
    rng = np.random.default_rng(10)
    for _ in range(8):
        x, y, state = small_instance(rng)
        part = random_blocks(rng, y.shape[0])
        eq = equal_blocks(rng, y.shape[0])
        q = optimal_qu(x, y, state)
        pairs = [
            ("trace", part, sgpr_collapsed(x, y, state).total),
            ("diag", part, tsgpr_collapsed(x, y, state).total),
            ("logdet", part, btsgpr_collapsed(x, y, state, part).total),
            ("shared", eq, sharedblock_collapsed(x, y, state, eq).total),
            ("spherical", part, spherical_collapsed(x, y, state).total),
        ]
        for penalty, p, collapsed in pairs:
            un = vi_uncollapsed(x, y, state, p, q, penalty=penalty).total
            assert_allclose(un, collapsed, rtol=1e-8, err_msg=penalty)


def test_uncollapsed_below_collapsed_for_random_qu():
    rng = np.random.default_rng(11)
    for _ in range(8):
        x, y, state = small_instance(rng)
        part = random_blocks(rng, y.shape[0])
        q = random_qu(rng, state.num_inducing)
        un = vi_uncollapsed(x, y, state, part, q, penalty="logdet").total
        assert un <= btsgpr_collapsed(x, y, state, part).total + 1e-9


def test_diag_penalty_is_partition_invariant():
    rng = np.random.default_rng(12)
    x, y, state = small_instance(rng)
    q = random_qu(rng, state.num_inducing)
    singles = singleton_partition(y.shape[0])
    batched = random_blocks(rng, y.shape[0])
    assert_allclose(
        vi_uncollapsed(x, y, state, batched, q, penalty="diag").total,
        vi_uncollapsed(x, y, state, singles, q, penalty="diag").total,
        rtol=1e-12,
    )


def test_stochastic_average_equals_full_bound():
    rng = np.random.default_rng(13)
    for _ in range(6):
        x, y, state = small_instance(rng)
        part = random_blocks(rng, y.shape[0])
        q = random_qu(rng, state.num_inducing)
        for penalty in ("trace", "diag", "logdet"):
            full = vi_uncollapsed(x, y, state, part, q, penalty=penalty).total
            ests = [
                vi_stochastic(x, y, state, part, q, b, penalty=penalty)
                for b in range(part.num_blocks)
            ]
            assert_allclose(np.mean(ests), full, rtol=1e-10, err_msg=penalty)


def test_stochastic_rejects_non_separable_penalties():
    rng = np.random.default_rng(14)
    x, y, state = small_instance(rng)
    part = random_blocks(rng, y.shape[0])
    q = random_qu(rng, state.num_inducing)
    for penalty in ("shared", "spherical"):
        with pytest.raises(ValueError):
            vi_stochastic(x, y, state, part, q, 0, penalty=penalty)


def test_general_scale_oracle_reductions():
    rng = np.random.default_rng(15)
    for _ in range(5):
        x, y, state = spread_instance(rng)
        n = y.shape[0]
        _, _, gap = dense_parts(x, state)
        # plugging the gap itself in recovers the trace-penalty bound
        assert_allclose(
            general_c_oracle(x, y, state, gap).total,
            sgpr_collapsed(x, y, state).total,
            rtol=1e-7,
        )
        # the stationary scale recovers the one-block logdet bound
        c_star = general_c_optimum(x, y, state)
        one = make_partition(n, 1)
        assert_allclose(
            general_c_oracle(x, y, state, c_star).total,
            btsgpr_collapsed(x, y, state, one).total,
            rtol=1e-7,
        )


def test_general_scale_oracle_matches_dense_and_is_dominated():
    rng = np.random.default_rng(16)
    for _ in range(4):
        x, y, state = spread_instance(rng)
        n = y.shape[0]
        best = btsgpr_collapsed(x, y, state, make_partition(n, 1)).total
        for _ in range(10):
            w = rng.standard_normal((n, n))
            c = w @ w.T / n + 1e-3 * np.eye(n)
            val = general_c_oracle(x, y, state, c).total
            assert_allclose(val, dense_general_c(x, y, state, c), rtol=1e-7)
            assert val <= best + 1e-7 * max(1.0, abs(best))


def test_all_bounds_exact_when_inducing_cover_inputs():
    rng = np.random.default_rng(17)
    for _ in range(5):
        x, y, state = small_instance(rng)
        state = state.with_(inducing=x.copy())
        part = random_blocks(rng, y.shape[0])
        eq = equal_blocks(rng, y.shape[0])
        full = exact_lml(x, y, state).total
        for val in (
            sgpr_collapsed(x, y, state).total,
            tsgpr_collapsed(x, y, state).total,
            btsgpr_collapsed(x, y, state, part).total,
            sharedblock_collapsed(x, y, state, eq).total,
            spherical_collapsed(x, y, state).total,
        ):
            assert_allclose(val, full, rtol=1e-7)


def test_kl_qu_nonnegative_and_zero_at_prior():
    rng = np.random.default_rng(18)
    x, y, state = small_instance(rng)
    from blockgp.kernels import kernel_matrix
    from blockgp.linalg import chol
    from blockgp.model import GaussianQU

    kuu = kernel_matrix(state.inducing, state.inducing, state.kernel)
    prior = GaussianQU(mean=np.zeros(state.num_inducing), cov_chol=chol(kuu))
    assert abs(kl_qu(prior, state)) < 1e-9
    for _ in range(5):
        q = random_qu(rng, state.num_inducing)
        assert kl_qu(q, state) >= -1e-12


def test_breakdown_totals_are_consistent():
    rng = np.random.default_rng(19)
    x, y, state = small_instance(rng)
    part = random_blocks(rng, y.shape[0])
    br = btsgpr_collapsed(x, y, state, part)
    assert_allclose(br.total, br.fit_term + br.regularizer, rtol=1e-12)
    assert br.regularizer <= 1e-12  # penalties only ever subtract


def test_an_uncollapsed_evaluation_builds_and_factors_kuu_once(monkeypatch):
    # prepare builds Kuu and Kuf and factors Kuu; the KL term reads that
    # factor instead of building and factoring Kuu again
    from blockgp import bounds_pep, bounds_vi, kernels, linalg
    from blockgp.bounds_pep import PepConfig, tpep_uncollapsed

    real_kernel, real_chol = kernels.kernel_matrix, linalg.chol
    counts = {"kernel_matrix": 0, "chol": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for mod in (kernels, linalg, bounds_vi, bounds_pep):
        if getattr(mod, "kernel_matrix", None) is real_kernel:
            monkeypatch.setattr(mod, "kernel_matrix", counting("kernel_matrix", real_kernel))
        if getattr(mod, "chol", None) is real_chol:
            monkeypatch.setattr(mod, "chol", counting("chol", real_chol))
    rng = np.random.default_rng(60)
    x, y, state = random_instance(rng)
    part = random_blocks(rng, y.shape[0])
    q = random_qu(rng, state.num_inducing)
    evaluations = [
        lambda: vi_uncollapsed(x, y, state, part, q, penalty="trace"),
        lambda: vi_uncollapsed(x, y, state, part, q, penalty="logdet"),
        lambda: tpep_uncollapsed(x, y, state, PepConfig(alpha=0.5, partition=part), q),
    ]
    for evaluate in evaluations:
        counts.update(kernel_matrix=0, chol=0)
        evaluate()
        assert counts == {"kernel_matrix": 2, "chol": 1}


def test_a_collapsed_value_builds_no_kl_term(monkeypatch):
    # a value-only collapsed bound is its fit term plus the penalty body's
    # value, not the uncollapsed bound run at the optimal q(u)
    from blockgp import bounds_vi
    from blockgp.bounds_pep import PepConfig, tpep_collapsed

    def no_kl(*args):
        raise AssertionError("a value-only collapsed evaluation built the KL term")

    monkeypatch.setattr(bounds_vi, "_kl_terms", no_kl)
    rng = np.random.default_rng(61)
    x, y, state = random_instance(rng)
    part = random_blocks(rng, y.shape[0])
    for penalty in ("trace", "diag", "spherical", "logdet"):
        assert np.isfinite(vi_collapsed(x, y, state, penalty, part).total)
    assert np.isfinite(vi_collapsed(x, y, state, "shared", singleton_partition(y.shape[0])).total)
    cfg = PepConfig(alpha=0.5, partition=part, m_scale=1.3)
    assert np.isfinite(tpep_collapsed(x, y, state, cfg).total)
    with pytest.raises(AssertionError, match="KL term"):  # the gradient pass does build it
        vi_collapsed(x, y, state, "logdet", part, gradient=True)
