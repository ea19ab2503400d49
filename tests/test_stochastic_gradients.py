"""Analytic gradients of the single-block estimators and what they cost.

block_estimate returns the estimator's value and its gradient in every
trained coordinate; here both are held against central differences of
the same value (vi_stochastic / tpep_stochastic are thin callers of it),
block by block, on the inputs where the adjoints are easiest to get
wrong: unequal blocks with a one-point block, a clamped gap diagonal,
and the power-EP noise away from m = 1.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockgp import bounds_pep, bounds_vi, kernels, training
from blockgp.bounds_pep import PepConfig, tpep_stochastic, tpep_uncollapsed
from blockgp.bounds_vi import prepare, vi_stochastic, vi_uncollapsed
from blockgp.kernels import KernelParams, NoiseParam
from blockgp.model import BoundSpec, ModelState, Partition, make_partition
from blockgp.training import (
    STOCHASTIC_METHODS,
    ParameterPack,
    TrainConfig,
    finite_difference_gradient,
    fit_stochastic,
    stochastic_estimate,
)
from blockgp.verify import random_qu, small_instance

GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-6


def _spec(method, num_blocks, alpha=0.5):
    if method in ("PEP", "T-PEP"):
        return BoundSpec(method=method, alpha=alpha, num_blocks=num_blocks)
    if method == "BT-SGPR":
        return BoundSpec(method=method, num_blocks=num_blocks)
    return BoundSpec(method=method)


def _with_scale(state, method, m=1.4):
    return state.with_(log_m_scale=np.log(m)) if method == "T-PEP" else state


def _value_only(x, y, state, part, q, b, spec):
    if spec.is_pep:
        cfg = PepConfig(alpha=spec.alpha, partition=part, m_scale=state.m_scale)
        return tpep_stochastic(x, y, state, cfg, q, b)
    penalty = {"SGPR": "trace", "T-SGPR": "diag", "BT-SGPR": "logdet"}[spec.method]
    return vi_stochastic(x, y, state, part, q, b, penalty=penalty)


def _assert_gradients_match(x, y, state, part, q, spec):
    """Every block: analytic gradient against differences, in all coordinates."""
    pack = ParameterPack.for_state(state, with_q=True)
    theta = pack.pack(state, q)
    for b in range(part.num_blocks):
        def value(t, b=b):
            return stochastic_estimate(
                x, y, pack.unpack_state(t), part, pack.unpack_q(t), b, spec
            ).value

        est = stochastic_estimate(x, y, state, part, q, b, spec, gradient=True)
        assert est.value == _value_only(x, y, state, part, q, b, spec)
        fd = finite_difference_gradient(value, theta)
        assert_allclose(
            pack.pack_estimate_gradient(q, est), fd, rtol=GRAD_RTOL, atol=GRAD_ATOL,
            err_msg=f"{spec.method} block {b}",
        )


def _unequal_partition(rng, n):
    """Blocks of 1, 5 and n - 6 points, drawn at random."""
    perm = rng.permutation(n)
    return Partition([np.sort(perm[:1]), np.sort(perm[1:6]), np.sort(perm[6:])])


@pytest.mark.parametrize("method", STOCHASTIC_METHODS)
def test_gradients_on_unequal_blocks_with_a_singleton(method):
    rng = np.random.default_rng(20)
    for _ in range(2):
        x, y, state = small_instance(rng)
        part = _unequal_partition(rng, y.shape[0])
        q = random_qu(rng, state.num_inducing)
        spec = _spec(method, part.num_blocks)
        _assert_gradients_match(x, y, _with_scale(state, method), part, q, spec)


def _clamped_state(x, state):
    """The state with one inducing point moved onto a training input, the
    first such move whose gap diagonal comes out negative before the clamp
    (rounding decides the sign of a gap that is zero in exact arithmetic)."""
    for j in range(state.num_inducing):
        for i in range(x.shape[0]):
            z = state.inducing.copy()
            z[j] = x[i]
            st = state.with_(inducing=z)
            if prepare(x, np.zeros(x.shape[0]), st).diag_clamp > 0.0:
                return st
    raise AssertionError("no placement gives a clamped gap diagonal")


@pytest.mark.parametrize("method", STOCHASTIC_METHODS)
def test_gradients_with_a_clamped_gap_diagonal(method):
    rng = np.random.default_rng(21)
    x, y, state = small_instance(rng)
    state = _clamped_state(x, state)
    part = _unequal_partition(rng, y.shape[0])
    q = random_qu(rng, state.num_inducing)
    spec = _spec(method, part.num_blocks)
    _assert_gradients_match(x, y, _with_scale(state, method), part, q, spec)


@pytest.mark.parametrize("alpha", [0.35, 0.5, 1.0])
@pytest.mark.parametrize("m", [0.7, 1.6])
def test_tpep_gradients_away_from_unit_scale(alpha, m):
    rng = np.random.default_rng(22)
    x, y, state = small_instance(rng)
    part = make_partition(y.shape[0], 4, seed=3)
    q = random_qu(rng, state.num_inducing)
    spec = _spec("T-PEP", part.num_blocks, alpha=alpha)
    _assert_gradients_match(x, y, _with_scale(state, "T-PEP", m), part, q, spec)


def test_block_estimate_rejects_bad_penalties_and_alpha():
    rng = np.random.default_rng(23)
    x, y, state = small_instance(rng)
    part = make_partition(y.shape[0], 2)
    q = random_qu(rng, state.num_inducing)
    with pytest.raises(ValueError):
        bounds_vi.block_estimate(x, y, state, part, q, 0, penalty="shared")
    with pytest.raises(ValueError):
        bounds_vi.block_estimate(x, y, state, part, q, 0, penalty="pep")
    with pytest.raises(ValueError):
        bounds_vi.block_estimate(x, y[:-1], state, part, q, 0)


def _final_objective(x, y, state, q, part, spec):
    if spec.is_pep:
        cfg = PepConfig(alpha=spec.alpha, partition=part, m_scale=state.m_scale)
        return tpep_uncollapsed(x, y, state, cfg, q).total
    penalty = {"SGPR": "trace", "T-SGPR": "diag", "BT-SGPR": "logdet"}[spec.method]
    return vi_uncollapsed(x, y, state, part, q, penalty=penalty).total


@pytest.mark.parametrize("method", STOCHASTIC_METHODS)
def test_analytic_and_difference_training_reach_the_same_objective(method):
    rng = np.random.default_rng(24)
    x, y, state = small_instance(rng)
    state = _with_scale(state, method, m=1.2)
    part = make_partition(y.shape[0], 3, seed=4)
    spec = _spec(method, part.num_blocks)
    ends = {}
    for mode in ("analytic", "fd"):
        cfg = TrainConfig(objective=spec, optimizer="adam", epochs=4, seed=2,
                          learning_rate=0.02, gradient_mode=mode)
        st, q, trace = fit_stochastic(x, y, state, part, cfg)
        ends[mode] = (trace.objective[-1], _final_objective(x, y, st, q, part, spec))
    assert_allclose(ends["analytic"], ends["fd"], rtol=1e-6)


@pytest.mark.parametrize("method", ["BT-SGPR", "T-PEP"])
def test_analytic_step_builds_the_same_kernel_entries_at_any_n(monkeypatch, method):
    real = kernels.kernel_matrix
    entries = [0]

    def counting(x1, x2, params):
        k = real(x1, x2, params)
        entries[0] += k.size
        return k

    for mod in (kernels, bounds_vi, bounds_pep, training):
        if getattr(mod, "kernel_matrix", None) is real:
            monkeypatch.setattr(mod, "kernel_matrix", counting)
    rng = np.random.default_rng(25)
    per_step = []
    for n in (500, 5000):
        x = rng.uniform(-2.0, 2.0, (n, 2))
        y = np.sin(x).sum(axis=1) + 0.1 * rng.standard_normal(n)
        state = ModelState(
            kernel=KernelParams(log_lengthscales=np.zeros(2), log_signal_variance=0.0),
            noise=NoiseParam(log_noise_variance=np.log(0.1)),
            inducing=rng.uniform(-2.0, 2.0, (6, 2)),
        )
        state = _with_scale(state, method)
        part = make_partition(n, n // 50, seed=0)
        q = random_qu(rng, state.num_inducing)
        cfg = TrainConfig(objective=_spec(method, part.num_blocks), optimizer="adam",
                          epochs=1, gradient_mode="analytic")
        entries[0] = 0
        _, _, trace = fit_stochastic(x, y, state, part, cfg, q=q)
        per_step.append(entries[0] / len(trace))
    assert per_step[0] == per_step[1]
