"""Analytic gradients of the collapsed bounds that fit_collapsed trains.

evaluate_bound(..., gradient=True) returns each collapsed bound with its
gradient in every trained coordinate: the uncollapsed bound's gradient
at the optimal q(u) (the envelope theorem), from one reverse-mode pass
over all blocks, or the dense closed form for Exact.  Here that gradient
is held against central differences of the value-only bound, on
unequal partitions with a one-point block and single-block size groups
(with the default stacks and with stacks cut to a few blocks), on a
clamped gap diagonal, and for T-PEP away from m = 1; and analytic
L-BFGS training against L-BFGS on differences of the same objective.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockgp import bounds_vi
from blockgp.bounds_pep import PepConfig, tpep_collapsed, tpep_uncollapsed
from blockgp.bounds_vi import STACK_ENTRIES, optimal_qu, vi_uncollapsed
from blockgp.linalg import NotPositiveDefiniteError
from blockgp.model import BoundSpec, Partition, make_partition, singleton_partition
from blockgp.training import (
    EvaluationFailed,
    ParameterPack,
    TrainConfig,
    evaluate_bound,
    finite_difference_gradient,
    fit_collapsed,
    maximize_lbfgs,
)
from blockgp.verify import GRAD_ATOL, GRAD_RTOL, small_instance

from test_block_core import _duplicate_instance
from test_stochastic_gradients import _clamped_state
from test_training import _failing_start

METHODS = ("Exact", "SGPR", "T-SGPR", "Spherical", "SharedBlock", "BT-SGPR", "PEP", "T-PEP")


@pytest.fixture(params=[STACK_ENTRIES, 20], ids=["stacks", "cut-stacks"])
def cut(request, monkeypatch):
    """Run with the default stack size and with stacks cut to a few blocks."""
    monkeypatch.setattr(bounds_vi, "STACK_ENTRIES", request.param)


def _unequal_partition(rng, n: int) -> Partition:
    """One block of 1 point and one of 4 (single-block size groups), the
    rest of 2 and 3 points, shuffled."""
    rem = n - 5
    sizes = [1, 4] + [3] * (rem // 3) + {0: [], 1: [2, 2], 2: [2]}[rem % 3]
    if rem % 3 == 1:
        sizes.remove(3)
    pieces = np.split(rng.permutation(n), np.cumsum(rng.permutation(sizes))[:-1])
    return Partition([np.sort(p) for p in pieces])


def _instance(rng):
    """small_instance cut to a multiple of 3 points, for SharedBlock's blocks."""
    x, y, state = small_instance(rng)
    n = y.shape[0] - y.shape[0] % 3
    return x[:n], y[:n], state


def _equal_partition(rng, n: int, size: int) -> Partition:
    perm = rng.permutation(n)
    return Partition([np.sort(perm[i : i + size]) for i in range(0, n, size)])


def _setup(rng, method, x, y, state, m=1.4, alpha=0.5):
    """State, spec and partition for one method on one instance; SharedBlock
    needs equal blocks and gets one-point blocks or blocks of 3."""
    n = y.shape[0]
    part = None
    if method == "SharedBlock":
        part = singleton_partition(n) if rng.integers(2) else _equal_partition(rng, n, 3)
    elif method in ("BT-SGPR", "PEP", "T-PEP"):
        part = _unequal_partition(rng, n)
    if method in ("PEP", "T-PEP"):
        spec = BoundSpec(method=method, alpha=alpha, num_blocks=part.num_blocks)
    elif part is not None:
        spec = BoundSpec(method=method, num_blocks=part.num_blocks)
    else:
        spec = BoundSpec(method=method)
    if method == "T-PEP":
        state = state.with_(log_m_scale=np.log(m))
    return state, spec, part


def _assert_gradient_matches(x, y, state, spec, part):
    pack = ParameterPack.for_state(state)
    theta = pack.pack(state)

    def value(t):
        return evaluate_bound(x, y, pack.unpack_state(t), spec, part).total

    out = evaluate_bound(x, y, state, spec, part, gradient=True)
    assert out.total == evaluate_bound(x, y, state, spec, part).total
    assert_allclose(
        pack.pack_estimate_gradient(None, out.gradient),
        finite_difference_gradient(value, theta),
        rtol=GRAD_RTOL, atol=GRAD_ATOL, err_msg=spec.method,
    )


@pytest.mark.parametrize("method", METHODS)
def test_gradients_on_unequal_blocks_with_a_singleton(method, cut):
    rng = np.random.default_rng(30)
    for _ in range(2):
        x, y, state = _instance(rng)
        _assert_gradient_matches(x, y, *_setup(rng, method, x, y, state))


@pytest.mark.parametrize("method", METHODS)
def test_gradients_with_a_clamped_gap_diagonal(method):
    rng = np.random.default_rng(31)
    x, y, state = _instance(rng)
    state = _clamped_state(x, state)
    _assert_gradient_matches(x, y, *_setup(rng, method, x, y, state))


@pytest.mark.parametrize("alpha", [0.35, 0.5, 1.0])
@pytest.mark.parametrize("m", [0.7, 1.6])
def test_tpep_gradients_away_from_unit_scale(alpha, m):
    rng = np.random.default_rng(32)
    x, y, state = _instance(rng)
    _assert_gradient_matches(x, y, *_setup(rng, "T-PEP", x, y, state, m=m, alpha=alpha))


def test_the_gradient_pass_meets_the_collapsed_value_at_the_optimal_qu():
    # the pass runs the uncollapsed bound at q*, where it equals the
    # collapsed one: its value is the collapse identity
    rng = np.random.default_rng(33)
    x, y, state = _instance(rng)
    for method in METHODS[1:]:
        state_m, spec, part = _setup(rng, method, x, y, state)
        out = evaluate_bound(x, y, state_m, spec, part, gradient=True)
        assert_allclose(out.gradient.value, out.total, rtol=1e-9, err_msg=method)


@pytest.mark.parametrize("method", METHODS)
def test_analytic_lbfgs_matches_lbfgs_on_differences(method):
    rng = np.random.default_rng(34)
    x, y, state = _instance(rng)
    state, spec, part = _setup(rng, method, x, y, state, m=1.2)
    pack = ParameterPack.for_state(state)

    def value(t):
        return evaluate_bound(x, y, pack.unpack_state(t), spec, part).total

    cfg = TrainConfig(objective=spec, optimizer="lbfgs", epochs=5)
    fitted, trace = fit_collapsed(x, y, state, cfg, part)
    theta_fd = maximize_lbfgs(value, pack.pack(state), max_iter=5).x
    analytic = evaluate_bound(x, y, fitted, spec, part).total
    assert len(trace) == 5
    assert analytic > evaluate_bound(x, y, state, spec, part).total
    assert_allclose(analytic, value(theta_fd), rtol=1e-6)


def test_difference_lbfgs_climbs_from_duplicates_raises_from_overflow():
    # from five duplicated inducing points at noise 1e-9, K_uu near the
    # first accepted iterate used to factor on rounding-noise pivots, and the
    # capacitance through it then failed past the ladder's cap; chol's pivot
    # rule gives K_uu jitter, so L-BFGS on differences climbs past that point
    x, y, state = _failing_start()
    part = make_partition(300, 30, seed=0)
    spec = BoundSpec(method="BT-SGPR", num_blocks=30)

    def run(start, max_iter):
        pack = ParameterPack.for_state(start)

        def value(t):
            return evaluate_bound(x, y, pack.unpack_state(t), spec, part).total

        return value(maximize_lbfgs(value, pack.pack(start), max_iter=max_iter).x)

    first = evaluate_bound(x, y, state, spec, part)
    assert np.isfinite(first.total) and first.jitter_used > 0.0
    assert run(state, 2) > first.total
    # from an infinite signal variance no point can be evaluated; L-BFGS-B,
    # fed zeros there, reads convergence, and maximize_lbfgs must raise by
    # name instead of returning that point
    state = state.with_(kernel=replace(state.kernel, log_signal_variance=800.0))
    with pytest.raises(EvaluationFailed, match="NORM OF PROJECTED GRADIENT"):
        run(state, 50)


def test_gradient_mode_reports_the_value_mode_penalty_and_jitter():
    # with a gradient, a variational penalty and its jitter come from the
    # gradient pass instead of a second factoring of every gap block
    x, y, state, part, _ = _duplicate_instance()
    spec = BoundSpec(method="BT-SGPR", num_blocks=part.num_blocks)
    value = evaluate_bound(x, y, state, spec, part)
    both = evaluate_bound(x, y, state, spec, part, gradient=True)
    assert both.regularizer == value.regularizer
    assert both.jitter_used == value.jitter_used > 0.0
    q = optimal_qu(x, y, state)
    assert vi_uncollapsed(x, y, state, part, q).jitter_used == value.jitter_used
    cfg = PepConfig(alpha=0.5, partition=part, m_scale=1.3)
    state_m = state.with_(log_m_scale=float(np.log(1.3)))
    collapsed = tpep_collapsed(x, y, state_m, cfg)
    assert tpep_uncollapsed(x, y, state_m, cfg, q).jitter_used == collapsed.jitter_used > 0.0


def test_shared_penalty_reports_its_jitter_in_every_mode():
    # a duplicated pair in every block makes the mean gap block singular
    x, y, state, _, _ = _duplicate_instance()
    n = y.shape[0] - y.shape[0] % 3
    x, y = x[:n].copy(), y[:n]
    part = make_partition(n, n // 3, seed=0)
    for b in part.blocks:
        x[b[1]] = x[b[0]]
    spec = BoundSpec(method="SharedBlock", num_blocks=part.num_blocks)
    value = evaluate_bound(x, y, state, spec, part)
    both = evaluate_bound(x, y, state, spec, part, gradient=True)
    assert both.regularizer == value.regularizer
    assert both.jitter_used == value.jitter_used > 0.0
    q = optimal_qu(x, y, state)
    assert vi_uncollapsed(x, y, state, part, q, "shared").jitter_used == value.jitter_used


def test_value_and_gradient_lbfgs_raises_where_the_start_fails():
    # a value-and-gradient function that fails is handed to L-BFGS-B as
    # a huge value with a zero gradient; stopping on that zero gradient
    # at the start must raise by name, not return the start
    def fun(theta):
        raise NotPositiveDefiniteError("never factors")

    with pytest.raises(EvaluationFailed, match="NORM OF PROJECTED GRADIENT"):
        maximize_lbfgs(fun, np.zeros(3), jac=True)


def test_fit_collapsed_raises_where_the_start_cannot_be_evaluated():
    # an infinite signal variance makes every kernel matrix non-finite
    x, y, state = small_instance(np.random.default_rng(35))
    state = state.with_(kernel=replace(state.kernel, log_signal_variance=800.0))
    cfg = TrainConfig(objective=BoundSpec(method="SGPR"), optimizer="lbfgs", epochs=5)
    with pytest.raises(EvaluationFailed, match="NORM OF PROJECTED GRADIENT"):
        fit_collapsed(x, y, state, cfg)


def test_analytic_lbfgs_from_the_duplicate_start_climbs():
    # the analytic gradient needs no perturbed evaluations, so from the
    # same start every point L-BFGS-B accepts has a gradient
    x, y, state = _failing_start()
    part = make_partition(300, 30, seed=0)
    spec = BoundSpec(method="BT-SGPR", num_blocks=30)
    cfg = TrainConfig(objective=spec, optimizer="lbfgs", epochs=5)
    fitted, trace = fit_collapsed(x, y, state, cfg, part)
    assert len(trace) == 5
    assert trace.function_evals >= 5
    assert np.all(np.diff(trace.objective) > 0)
    assert trace.objective[-1] > evaluate_bound(x, y, state, spec, part).total
