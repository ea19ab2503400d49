"""Power-EP energies, their limits, and the closed-form sites.

Dense oracles live in _oracles.py; the limit tests exercise the
documented connections to the variational bounds at small alpha, to
the heteroscedastic marginal at alpha = 1, and to the unscaled energy
at unit gap scale.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import dense_exact, dense_pep, dense_tpep
from blockgp.bounds_pep import (
    PepConfig,
    pep_collapsed,
    tpep_collapsed,
    tpep_optimal_qu,
    tpep_stochastic,
    tpep_uncollapsed,
)
from blockgp.bounds_vi import (
    btsgpr_collapsed,
    btsgpr_optimal_scales,
    exact_lml,
    prepare,
    sgpr_collapsed,
    spherical_collapsed,
    spherical_optimal_scale,
)
from blockgp import bounds_vi
from blockgp.model import BoundSpec, make_partition, singleton_partition
from blockgp.oracles import (
    FixedPointMismatch,
    general_pep_oracle,
    pep_iterate,
    verify_site_fixed_point,
)
from blockgp.training import (
    ParameterPack,
    TrainConfig,
    evaluate_bound,
    finite_difference_gradient,
    fit_collapsed,
    fit_stochastic,
    stochastic_estimate,
)
from blockgp.verify import (
    GRAD_ATOL,
    GRAD_RTOL,
    gentle_instance,
    random_blocks,
    random_instance,
    random_qu,
    small_instance,
)


def _cfg(alpha, part, m=1.0) -> PepConfig:
    return PepConfig(alpha=alpha, partition=part, m_scale=m)


def test_pep_matches_dense_energy():
    rng = np.random.default_rng(0)
    for alpha in (0.25, 0.5, 1.0):
        x, y, state = small_instance(rng)
        part = random_blocks(rng, y.shape[0])
        ours = pep_collapsed(x, y, state, _cfg(alpha, part)).total
        assert_allclose(ours, dense_pep(x, y, state, alpha, part), rtol=1e-9)


def test_tpep_matches_dense_energy():
    rng = np.random.default_rng(1)
    for alpha, m in ((0.25, 0.5), (0.5, 1.5), (1.0, 1.2)):
        x, y, state = small_instance(rng)
        part = random_blocks(rng, y.shape[0])
        ours = tpep_collapsed(x, y, state, _cfg(alpha, part, m)).total
        assert_allclose(ours, dense_tpep(x, y, state, alpha, m, part), rtol=1e-9)


def test_alpha_one_singleton_is_heteroscedastic_marginal():
    # with every block a single point and alpha = 1 the energy is the
    # marginal likelihood whose noise is inflated by the per-point gap
    rng = np.random.default_rng(2)
    from _oracles import dense_parts, mvn_logpdf

    for _ in range(5):
        x, y, state = small_instance(rng)
        part = singleton_partition(y.shape[0])
        ours = pep_collapsed(x, y, state, _cfg(1.0, part)).total
        _, q, gap = dense_parts(x, state)
        cov = q + np.diag(np.diag(gap)) + state.noise.noise_variance * np.eye(y.shape[0])
        assert_allclose(ours, mvn_logpdf(y, cov), rtol=1e-8)


def test_alpha_one_penalties_vanish():
    rng = np.random.default_rng(3)
    x, y, state = small_instance(rng)
    part = random_blocks(rng, y.shape[0])
    br = pep_collapsed(x, y, state, _cfg(1.0, part))
    assert br.regularizer == 0.0


def test_unit_scale_recovers_plain_energy():
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, y, state = small_instance(rng)
        part = random_blocks(rng, y.shape[0])
        alpha = float(rng.uniform(0.1, 1.0))
        assert_allclose(
            tpep_collapsed(x, y, state, _cfg(alpha, part, 1.0)).total,
            pep_collapsed(x, y, state, _cfg(alpha, part)).total,
            rtol=1e-10,
        )


def test_pep_collapsed_requires_unit_scale():
    rng = np.random.default_rng(5)
    x, y, state = small_instance(rng)
    part = random_blocks(rng, y.shape[0])
    with pytest.raises(ValueError):
        pep_collapsed(x, y, state, _cfg(0.5, part, m=1.3))


def test_small_alpha_limits():
    rng = np.random.default_rng(6)
    for _ in range(5):
        x, y, state = gentle_instance(rng)
        n = y.shape[0]
        singles = singleton_partition(n)
        part = random_blocks(rng, n)

        pep_lim = pep_collapsed(x, y, state, _cfg(1e-6, singles)).total
        assert abs(pep_lim - sgpr_collapsed(x, y, state).total) < 1e-4

        m_star = spherical_optimal_scale(x, y, state)
        tpep_lim = tpep_collapsed(x, y, state, _cfg(1e-6, singles, m_star)).total
        assert abs(tpep_lim - spherical_collapsed(x, y, state).total) < 1e-4

        scales = btsgpr_optimal_scales(x, y, state, part)
        oracle_lim = general_pep_oracle(x, y, state, 1e-6, part, scales).total
        assert abs(oracle_lim - btsgpr_collapsed(x, y, state, part).total) < 1e-4


def test_general_oracle_reduces_to_named_energies():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y, state = small_instance(rng)
        part = random_blocks(rng, y.shape[0])
        alpha = float(rng.uniform(0.2, 1.0))
        eyes = [np.eye(ix.size) for ix in part.blocks]
        assert_allclose(
            general_pep_oracle(x, y, state, alpha, part, eyes).total,
            pep_collapsed(x, y, state, _cfg(alpha, part)).total,
            rtol=1e-9,
        )
        m = float(rng.uniform(0.5, 1.6))
        scaled = [m * np.eye(ix.size) for ix in part.blocks]
        assert_allclose(
            general_pep_oracle(x, y, state, alpha, part, scaled).total,
            tpep_collapsed(x, y, state, _cfg(alpha, part, m)).total,
            rtol=1e-9,
        )


def test_scale_stationarity_near_zero_alpha():
    # d/dm of the scaled energy vanishes at the spherical optimum as
    # alpha -> 0; probe it with a central difference
    rng = np.random.default_rng(8)
    x, y, state = gentle_instance(rng)
    singles = singleton_partition(y.shape[0])
    m_star = spherical_optimal_scale(x, y, state)
    h = 1e-4

    def f(m):
        return tpep_collapsed(x, y, state, _cfg(1e-6, singles, m)).total

    slope = (f(m_star + h) - f(m_star - h)) / (2.0 * h)
    assert abs(slope) < 1e-3 * max(1.0, abs(f(m_star)))


def test_collapse_identity_at_optimal_qu():
    rng = np.random.default_rng(9)
    for alpha, m in ((0.25, 0.5), (0.5, 1.0), (1.0, 1.5)):
        x, y, state = small_instance(rng)
        part = random_blocks(rng, y.shape[0])
        cfg = _cfg(alpha, part, m)
        q_star = tpep_optimal_qu(x, y, state, cfg)
        assert_allclose(
            tpep_uncollapsed(x, y, state, cfg, q_star).total,
            tpep_collapsed(x, y, state, cfg).total,
            rtol=1e-8,
        )
        q_rand = random_qu(rng, state.num_inducing)
        assert (
            tpep_uncollapsed(x, y, state, cfg, q_rand).total
            <= tpep_collapsed(x, y, state, cfg).total + 1e-9
        )


def test_stochastic_average_equals_full_energy():
    rng = np.random.default_rng(10)
    for _ in range(5):
        x, y, state = small_instance(rng)
        part = random_blocks(rng, y.shape[0])
        cfg = _cfg(0.5, part, 1.2)
        q = random_qu(rng, state.num_inducing)
        full = tpep_uncollapsed(x, y, state, cfg, q).total
        ests = [
            tpep_stochastic(x, y, state, cfg, q, b) for b in range(part.num_blocks)
        ]
        assert_allclose(np.mean(ests), full, rtol=1e-10)


def test_site_fixed_point_survives_dense_recomputation():
    rng = np.random.default_rng(11)
    for alpha, m in ((0.25, 1.5), (0.5, 0.5), (1.0, 1.0)):
        x, y, state = random_instance(rng)
        part = random_blocks(rng, y.shape[0])
        report = verify_site_fixed_point(x, y, state, _cfg(alpha, part, m), rtol=1e-7)
        assert report.max_rel_deviation <= 1e-7


def test_site_fixed_point_check_is_not_vacuous():
    rng = np.random.default_rng(12)
    x, y, state = random_instance(rng)
    part = random_blocks(rng, y.shape[0])
    with pytest.raises(FixedPointMismatch) as err:
        verify_site_fixed_point(x, y, state, _cfg(0.5, part), rtol=1e-18)
    assert err.value.report.max_rel_deviation > 1e-18


def test_message_passing_converges_to_collapsed_solution():
    rng = np.random.default_rng(13)
    for alpha, m in ((0.25, 0.5), (0.5, 1.5), (1.0, 1.0)):
        x, y, state = small_instance(rng)
        part = random_blocks(rng, y.shape[0])
        cfg = _cfg(alpha, part, m)
        res = pep_iterate(x, y, state, cfg)
        prep = prepare(x, y, state)
        assert [site.block for site in res.sites] == list(range(part.num_blocks))
        for site, idx in zip(res.sites, part.blocks):
            noise = alpha * m * prep.block_gap(idx) + prep.sigma2 * np.eye(idx.size)
            assert_allclose(site.g, y[idx], rtol=1e-12, atol=0)
            assert_allclose(site.v, noise, rtol=1e-12, atol=0)
        q_star = tpep_optimal_qu(x, y, state, cfg)
        assert_allclose(res.qu.mean, q_star.mean, rtol=1e-6, atol=1e-8)
        assert_allclose(res.qu.cov, q_star.cov, rtol=1e-6, atol=1e-8)
        assert_allclose(res.energy, tpep_collapsed(x, y, state, cfg).total, rtol=1e-6)


def test_energies_exact_when_inducing_cover_inputs():
    rng = np.random.default_rng(14)
    for alpha in (0.3, 1.0):
        x, y, state = small_instance(rng)
        state = state.with_(inducing=x.copy())
        part = random_blocks(rng, y.shape[0])
        ours = pep_collapsed(x, y, state, _cfg(alpha, part)).total
        assert_allclose(ours, exact_lml(x, y, state).total, rtol=1e-7)
        assert_allclose(ours, dense_exact(x, y, state), rtol=1e-7)


def test_config_validation():
    part = singleton_partition(4)
    with pytest.raises(ValueError):
        PepConfig(alpha=0.0, partition=part)
    with pytest.raises(ValueError):
        PepConfig(alpha=1.2, partition=part)
    with pytest.raises(ValueError):
        PepConfig(alpha=0.5, partition=part, m_scale=-1.0)
    # one (alpha, m) rule: alpha in (0, 1], m finite and positive, so
    # 1 + alpha (m - 1) > 0 holds even where m - 1 rounds to -1
    PepConfig(alpha=1.0, partition=part, m_scale=4.2e-18)
    for alpha, m in ((float("nan"), 1.0), (0.5, 0.0), (0.5, float("inf")), (0.5, float("nan"))):
        with pytest.raises(ValueError):
            PepConfig(alpha=alpha, partition=part, m_scale=m)
    rng = np.random.default_rng(15)
    x, y, state = small_instance(rng)
    n = y.shape[0]
    part = singleton_partition(n)
    q = random_qu(rng, state.num_inducing)
    for m in (0.0, -0.5, float("inf")):
        for call in (
            lambda: bounds_vi.vi_collapsed(x, y, state, "pep", part, alpha=0.5, m=m),
            lambda: bounds_vi.vi_uncollapsed(x, y, state, part, q, "pep", 0.5, m),
            lambda: bounds_vi.block_estimate(x, y, state, part, q, 0, "pep", 0.5, m),
        ):
            with pytest.raises(ValueError, match="gap scale m must be finite and positive"):
                call()
    for alpha in (0.0, 1.5):
        with pytest.raises(ValueError, match="alpha must lie"):
            general_pep_oracle(x, y, state, alpha, part, [np.eye(1)] * n)
        with pytest.raises(ValueError, match="alpha must lie"):
            bounds_vi.vi_collapsed(x, y, state, "pep", part, alpha=alpha)


def test_alpha_one_at_a_vanishing_gap_scale_is_finite_with_no_regularizer():
    # at alpha = 1 the whole-data terms -N/(2a) log(1 + a(m-1)) + N/2 log m
    # cancel exactly; with m = e^-40, m - 1 rounds to -1, and they must not
    # turn into log 0: the value, its log m gradient, the one-block
    # estimate and both trainers stay finite
    x, y, state = small_instance(np.random.default_rng(0))
    state = state.with_(log_m_scale=-40.0)
    part = make_partition(y.shape[0], 4, seed=1)
    spec = BoundSpec("T-PEP", alpha=1.0, num_blocks=4)
    out = evaluate_bound(x, y, state, spec, part, gradient=True)
    assert np.isfinite(out.total) and abs(out.regularizer) <= 1e-12 * abs(out.fit_term)
    assert out.total == evaluate_bound(x, y, state, spec, part).total
    pack = ParameterPack.for_state(state)
    fd = finite_difference_gradient(
        lambda t: evaluate_bound(x, y, pack.unpack_state(t), spec, part).total,
        pack.pack(state),
    )
    assert np.allclose(pack.pack_estimate_gradient(None, out.gradient), fd,
                       rtol=GRAD_RTOL, atol=GRAD_ATOL)
    q = random_qu(np.random.default_rng(1), state.num_inducing)
    est = stochastic_estimate(x, y, state, part, q, 0, spec, gradient=True)
    assert np.isfinite(est.value) and np.isfinite(est.d_log_m_scale)
    cfg = TrainConfig(objective=spec, optimizer="adam", epochs=2, learning_rate=1e-3)
    assert np.isfinite(fit_collapsed(x, y, state, cfg, part)[1].objective).all()
    assert np.isfinite(fit_stochastic(x, y, state, part, cfg)[2].objective).all()


@pytest.mark.parametrize("alpha, m", [(1.0, 0.3), (0.9, 0.05), (1.0, 1e-9)])
def test_the_whole_data_terms_below_a_half_shift_match_differences(alpha, m):
    # where alpha (m - 1) <= -1/2 the whole-data terms are taken through
    # (1 - alpha) + alpha m: the value matches the high-precision formula and
    # the log m gradient central differences
    from decimal import Decimal, getcontext

    x, y, state = small_instance(np.random.default_rng(3))
    state = state.with_(log_m_scale=float(np.log(m)))
    part = make_partition(y.shape[0], 3, seed=2)
    n = y.shape[0]
    getcontext().prec = 40
    a, mm = Decimal(alpha), Decimal(state.m_scale)
    exact = n * (mm.ln() / 2 - (1 + a * (mm - 1)).ln() / (2 * a))
    whole = bounds_vi._pep_penalty(0.0, 0, 1.0, alpha, state.m_scale, n)[1]
    assert abs(whole - float(exact)) <= 1e-14 * max(1.0, abs(float(exact)))
    spec = BoundSpec("T-PEP", alpha=alpha, num_blocks=3)
    grad = evaluate_bound(x, y, state, spec, part, gradient=True).gradient.d_log_m_scale
    log_m, h = state.log_m_scale, 1e-5 * max(1.0, abs(state.log_m_scale))
    hi, lo = (evaluate_bound(x, y, state.with_(log_m_scale=log_m + s), spec, part).total
              for s in (h, -h))
    assert np.allclose(grad, (hi - lo) / (2 * h), rtol=GRAD_RTOL, atol=GRAD_ATOL)


def test_partition_size_mismatch_is_rejected():
    rng = np.random.default_rng(15)
    x, y, state = small_instance(rng)
    wrong = singleton_partition(y.shape[0] + 1)
    with pytest.raises(ValueError):
        pep_collapsed(x, y, state, _cfg(0.5, wrong))


def test_collapsed_energies_build_and_factor_each_block_once(monkeypatch):
    # the blocks are built and factored a size group at a time, and the
    # log-det penalty is read off the factors of R_b: one evaluation, with
    # or without its gradient, passes each block once through the stacked
    # gap builder and once through the stacked factorization, one call per
    # stack the pass cuts (SharedBlock factors only the average of its blocks); on
    # the happy path chol runs only for Kuu, the capacitance, the shared
    # average and, with a gradient, the q(u) factor at the optimum
    from blockgp import bounds_pep, bounds_vi, linalg
    from blockgp.bounds_vi import sharedblock_collapsed
    from blockgp.model import Partition

    calls = {"gap_rows": 0, "gap_calls": 0, "factor_rows": 0, "factor_calls": 0,
             "chol": 0}
    real_stack = bounds_vi.kernel_stack
    real_chol_stack = linalg.chol_stack
    real_chol = linalg.chol

    def counting_stack(xs, params):
        calls["gap_rows"] += xs.shape[0]
        calls["gap_calls"] += 1
        return real_stack(xs, params)

    def counting_chol_stack(a):
        calls["factor_rows"] += a.shape[0]
        calls["factor_calls"] += 1
        return real_chol_stack(a)

    def counting_chol(*args, **kwargs):
        calls["chol"] += 1
        return real_chol(*args, **kwargs)

    monkeypatch.setattr(bounds_vi, "kernel_stack", counting_stack)
    for mod in (linalg, bounds_vi, bounds_pep):
        if hasattr(mod, "chol_stack"):
            monkeypatch.setattr(mod, "chol_stack", counting_chol_stack)
        if hasattr(mod, "chol"):
            monkeypatch.setattr(mod, "chol", counting_chol)
    rng = np.random.default_rng(30)
    x, y, state = small_instance(rng)
    n = y.shape[0]
    # sizes 1, 2 and 3, with a size group that holds a single block
    cuts = [1, 3, 5, 8, 11] + list(range(14, n, 3))
    part = Partition([np.sort(b) for b in np.split(rng.permutation(n), cuts)])
    # SharedBlock needs equal sizes: pairs, on an even number of points
    n2 = n // 2 * 2
    pairs = Partition([np.sort(b) for b in np.split(rng.permutation(n2), n2 // 2)])
    stacks = [sum(len(shapes) for _, shapes in bounds_vi._prepared(
        x[:blocks.n], y[:blocks.n], state, "logdet", blocks)[1]) for blocks in (part, pairs)]
    assert stacks[0] >= 3
    energies = (
        ("PEP", lambda g: pep_collapsed(x, y, state, _cfg(0.5, part), g), part, stacks[0]),
        ("T-PEP", lambda g: tpep_collapsed(x, y, state, _cfg(0.5, part, 1.3), g), part,
         stacks[0]),
        ("BT-SGPR", lambda g: btsgpr_collapsed(x, y, state, part, g), part, stacks[0]),
        ("SharedBlock",
         lambda g: sharedblock_collapsed(x[:n2], y[:n2], state, pairs, g), pairs, stacks[1]),
    )
    for name, fn, blocks, num_stacks in energies:
        shared = name == "SharedBlock"
        for gradient in (False, True):
            for key in calls:
                calls[key] = 0
            fn(gradient)
            assert calls == {
                "gap_rows": blocks.num_blocks, "gap_calls": num_stacks,
                "factor_rows": 0 if shared else blocks.num_blocks,
                "factor_calls": 0 if shared else num_stacks,
                "chol": 2 + shared + gradient,
            }, (name, gradient)
