"""Optimizer plumbing: packing, gradients, traces, determinism.

The single-block stochastic run is replayed against a hand-rolled
Adam loop written out below with its own bias-correction arithmetic,
so the block-cycling path has an independent full-batch oracle.
"""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockgp.bounds_pep import (
    PepConfig,
    pep_collapsed,
    tpep_collapsed,
    tpep_optimal_qu,
    tpep_qu_gradient,
    tpep_stochastic,
    tpep_uncollapsed,
)
from blockgp.bounds_vi import (
    btsgpr_collapsed,
    exact_lml,
    optimal_qu,
    sgpr_collapsed,
    sharedblock_collapsed,
    spherical_collapsed,
    tsgpr_collapsed,
    uncollapsed_qu_gradient,
    vi_stochastic,
    vi_uncollapsed,
)
from blockgp import training
from blockgp.linalg import CholeskyFactor, NotPositiveDefiniteError, chol
from blockgp.kernels import NoiseParam, kernel_matrix
from blockgp.model import (
    METHODS,
    BoundSpec,
    GaussianQU,
    Partition,
    make_partition,
    singleton_partition,
)
from blockgp.training import (
    Diverged,
    EvaluationFailed,
    ParameterPack,
    TrainConfig,
    evaluate_bound,
    finite_difference_gradient,
    fit_collapsed,
    fit_stochastic,
    maximize_adam,
    maximize_lbfgs,
    qu_optimum,
    stochastic_estimate,
    uncollapsed_bound,
)
from blockgp.verify import random_blocks, random_qu, small_instance

# The methods fit_stochastic trains, in table order.
STOCHASTIC_METHODS = tuple(name for name, row in METHODS.items() if row.stochastic)


def test_train_config_validation():
    spec = BoundSpec(method="SGPR")
    TrainConfig(objective=spec)
    with pytest.raises(ValueError):
        TrainConfig(objective=spec, optimizer="sgd")
    for rate in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            TrainConfig(objective=spec, learning_rate=rate)
    with pytest.raises(ValueError):
        TrainConfig(objective=spec, epochs=0)
    # a float or a bool would fail later, in range() or in scipy
    for epochs in (2.5, True):
        with pytest.raises(ValueError, match="epochs must be an integer"):
            TrainConfig(objective=spec, epochs=epochs)
    assert TrainConfig(objective=spec, epochs=np.int64(3)).epochs == 3
    with pytest.raises(ValueError):
        TrainConfig(objective=spec, gradient_mode="autodiff")


def test_fd_gradient_on_quadratic():
    c = np.array([1.0, -2.0, 0.5])
    grad = finite_difference_gradient(lambda t: -np.sum((t - c) ** 2), np.zeros(3))
    assert_allclose(grad, 2.0 * c, rtol=1e-6)


def test_fd_gradient_of_constant_is_exactly_zero():
    grad = finite_difference_gradient(lambda t: 3.5, np.array([0.2, -4.0]))
    assert np.array_equal(grad, np.zeros(2))


def test_fd_gradient_retries_with_halved_step():
    # the +h probe on coordinate 0 lands in the forbidden zone; the
    # halved retry does not, so the gradient still comes out right
    def fun(t):
        if t[0] > 0.7e-5:
            raise EvaluationFailed("forbidden zone")
        return float(np.sum(t))

    grad = finite_difference_gradient(fun, np.zeros(2), step=1e-5)
    assert_allclose(grad, np.ones(2), rtol=1e-9)


def test_fd_gradient_gives_up_after_one_retry():
    def fun(t):
        if t[0] > 0.3e-5:
            raise EvaluationFailed("forbidden zone")
        return float(np.sum(t))

    with pytest.raises(EvaluationFailed):
        finite_difference_gradient(fun, np.zeros(2), step=1e-5)


def test_fd_gradient_wraps_linalg_failures():
    def fun(t):
        raise NotPositiveDefiniteError("always broken")

    with pytest.raises(EvaluationFailed):
        finite_difference_gradient(fun, np.zeros(1))


def test_lbfgs_maximizes_quadratic():
    c = np.array([0.7, -1.2])
    result = maximize_lbfgs(lambda t: -np.sum((t - c) ** 2), np.zeros(2))
    assert result.nit >= 1
    assert_allclose(result.x, c, atol=1e-5)


def test_lbfgs_survives_infeasible_regions():
    c = np.array([0.4])

    def fun(t):
        if t[0] > 1.0:
            raise NotPositiveDefiniteError("off the cliff")
        return -float((t[0] - c[0]) ** 2)

    assert_allclose(maximize_lbfgs(fun, np.zeros(1)).x, c, atol=1e-4)


def test_adam_is_deterministic_and_climbs():
    c = np.array([0.3, -0.6, 1.1])
    fun = lambda t: -np.sum((t - c) ** 2)
    value_and_gradient = lambda t: (fun(t), -2.0 * (t - c))
    one = maximize_adam(value_and_gradient, np.zeros(3), steps=50, learning_rate=0.05)
    two = maximize_adam(value_and_gradient, np.zeros(3), steps=50, learning_rate=0.05)
    assert np.array_equal(one, two)
    assert fun(one) > fun(np.zeros(3))


def test_parameter_pack_roundtrip():
    rng = np.random.default_rng(0)
    x, y, state = small_instance(rng)
    state = state.with_(log_m_scale=0.17)
    q = random_qu(rng, state.num_inducing)

    pack = ParameterPack.for_state(state)
    theta = pack.pack(state)
    assert theta.size == pack.num_hyper
    back = pack.unpack_state(theta)
    assert np.array_equal(back.kernel.log_lengthscales, state.kernel.log_lengthscales)
    assert back.kernel.log_signal_variance == state.kernel.log_signal_variance
    assert back.noise.log_noise_variance == state.noise.log_noise_variance
    assert np.array_equal(back.inducing, state.inducing)
    assert back.log_m_scale == state.log_m_scale

    packq = ParameterPack.for_state(state, with_q=True)
    thetaq = packq.pack(state, q)
    assert thetaq.size == packq.size
    qu = packq.unpack_q(thetaq)
    assert_allclose(qu.mean, q.mean, rtol=1e-15)
    assert_allclose(qu.cov, q.cov, rtol=1e-12)


def _outcome(evaluate, gradient):
    """An evaluation's value, jitter and gradient fields as bytes, or its error."""
    try:
        out = evaluate(gradient)
    except ValueError as exc:
        return repr(exc)
    grad = out.gradient
    fields = [] if grad is None else [getattr(grad, f.name) for f in dataclasses.fields(grad)]
    values = [out.total, out.fit_term, out.regularizer, out.jitter_used] + fields
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def test_evaluate_bound_dispatch():
    # evaluate_bound gives every trainable method bit for bit what its
    # public function gives, value and gradient, on equal and unequal blocks
    rng = np.random.default_rng(1)
    x, y, state = small_instance(rng)
    x, y = x[:24], y[:24]
    perm = rng.permutation(24)
    partitions = (
        make_partition(24, 3, seed=5),  # blocks of 8
        Partition([np.sort(perm[:1]), np.sort(perm[1:6]), np.sort(perm[6:])]),
    )
    st_m = state.with_(log_m_scale=np.log(1.3))
    specs = {
        "Exact": BoundSpec(method="Exact"),
        "SGPR": BoundSpec(method="SGPR"),
        "T-SGPR": BoundSpec(method="T-SGPR"),
        "Spherical": BoundSpec(method="Spherical"),
        "SharedBlock": BoundSpec(method="SharedBlock", num_blocks=3),
        "BT-SGPR": BoundSpec(method="BT-SGPR", num_blocks=3),
        "PEP": BoundSpec(method="PEP", alpha=0.5, num_blocks=3),
        "T-PEP": BoundSpec(method="T-PEP", alpha=0.35, num_blocks=3),
    }
    assert sorted(specs) == sorted(METHODS)
    outcomes = {}
    for k, part in enumerate(partitions):
        direct = {
            "Exact": lambda g: exact_lml(x, y, state, g),
            "SGPR": lambda g: sgpr_collapsed(x, y, state, g),
            "T-SGPR": lambda g: tsgpr_collapsed(x, y, state, g),
            "Spherical": lambda g: spherical_collapsed(x, y, state, g),
            "SharedBlock": lambda g: sharedblock_collapsed(x, y, state, part, g),
            "BT-SGPR": lambda g: btsgpr_collapsed(x, y, state, part, g),
            "PEP": lambda g: pep_collapsed(x, y, state, PepConfig(0.5, part), g),
            "T-PEP": lambda g: tpep_collapsed(
                x, y, st_m, PepConfig(0.35, part, st_m.m_scale), g
            ),
        }
        for method, spec in specs.items():
            st = st_m if method == "T-PEP" else state
            # the rows that read no blocks ignore the partition they are given
            for gradient in (False, True):
                got = _outcome(
                    lambda g: evaluate_bound(x, y, st, spec, part, gradient=g), gradient
                )
                assert got == _outcome(direct[method], gradient), (method, gradient)
                outcomes[method, k, gradient] = got
    assert all(len(outcomes[method, 0, True]) > 4 for method in specs)  # gradients compared
    # SharedBlock ran on the equal blocks and refused the unequal ones
    assert not isinstance(outcomes["SharedBlock", 0, True], str)
    assert "equal block sizes" in outcomes["SharedBlock", 1, True]


def test_evaluate_bound_rejects_oracles_and_mismatched_partitions():
    rng = np.random.default_rng(2)
    x, y, state = small_instance(rng)
    # the dense oracles take explicit scale matrices, so no spec names them
    for name in ("GeneralC-Oracle", "GeneralPEP-Oracle"):
        with pytest.raises(ValueError, match="unknown method"):
            BoundSpec(method=name)
    part2 = make_partition(y.shape[0], 2)
    with pytest.raises(ValueError):
        evaluate_bound(x, y, state, BoundSpec(method="BT-SGPR", num_blocks=3), part2)
    with pytest.raises(ValueError):
        evaluate_bound(x, y, state, BoundSpec(method="BT-SGPR", num_blocks=3), None)


# The six spec-level entry points, each called as (x, y, state, spec,
# partition, q), the trainers for one epoch.
ENTRY_POINTS = {
    "evaluate_bound": lambda x, y, st, spec, part, q: evaluate_bound(
        x, y, st, spec, part, gradient=True),
    "uncollapsed_bound": lambda x, y, st, spec, part, q: uncollapsed_bound(
        x, y, st, spec, q, part),
    "qu_optimum": lambda x, y, st, spec, part, q: qu_optimum(x, y, st, spec, part),
    "fit_collapsed": lambda x, y, st, spec, part, q: fit_collapsed(
        x, y, st, TrainConfig(objective=spec, epochs=1), part),
    "stochastic_estimate": lambda x, y, st, spec, part, q: stochastic_estimate(
        x, y, st, part, q, 0, spec, gradient=True),
    "fit_stochastic": lambda x, y, st, spec, part, q: fit_stochastic(
        x, y, st, part, TrainConfig(objective=spec, optimizer="adam", epochs=1)),
}


ESTIMATORS = ("stochastic_estimate", "fit_stochastic")


def _defined(entry, row):
    """Whether entry exists for row: only a stochastic row has an
    estimator, and Exact has no q(u)."""
    if entry in ESTIMATORS:
        return row.stochastic
    return row.penalty is not None or entry in ("evaluate_bound", "fit_collapsed")


def _reads_blocks(entry, row):
    """Whether entry reads blocks for row: every estimator does; a bound
    where its row takes a partition; the optimum only for power EP, whose
    block noise enters the fit."""
    if entry in ESTIMATORS:
        return True
    if entry == "qu_optimum":
        return row.alpha
    return row.partition != "rejected"


def _bits(out):
    """Every number and string in out, wall-clock times aside, as bytes."""
    if isinstance(out, tuple):
        return [b for part in out for b in _bits(part)]
    if dataclasses.is_dataclass(out):
        return [b for f in dataclasses.fields(out) if f.name != "wall_time"
                for b in _bits(getattr(out, f.name))]
    if out is None or isinstance(out, str):
        return [repr(out)]
    return [np.asarray(out, dtype=float).tobytes()]


def test_one_partition_rule_over_every_entry_point_and_method():
    # one run holds one partition: every entry point checks one it is
    # given (it must cover the data and have the spec's block count),
    # requires one only where it reads blocks (power EP without
    # num_blocks puts one point in each block), and where it reads none
    # gives bit for bit the call without it
    x, y, state = small_instance(np.random.default_rng(0))
    x, y = x[:24], y[:24]
    q = random_qu(np.random.default_rng(1), state.num_inducing)
    part = make_partition(24, 3, seed=0)
    too_few = make_partition(23, 3, seed=0)
    four = make_partition(24, 4, seed=0)
    checked = 0
    for name, row in METHODS.items():
        st = state.with_(log_m_scale=np.log(1.3)) if row.gap_scale else state
        alpha = 0.5 if row.alpha else None
        counts = {"required": [3], "optional": [3, None], "rejected": [None]}
        for num_blocks in counts[row.partition]:
            spec = BoundSpec(name, alpha, num_blocks)
            for entry, call in ENTRY_POINTS.items():
                if not _defined(entry, row):
                    with pytest.raises(ValueError, match=f"method {name} has no "):
                        call(x, y, st, spec, part, q)
                    continue
                where = (name, num_blocks, entry)
                with pytest.raises(ValueError, match="partition covers 23 points but data has 24"):
                    call(x, y, st, spec, too_few, q)
                if num_blocks is not None:
                    with pytest.raises(ValueError, match="spec asks for 3 blocks but the partition"):
                        call(x, y, st, spec, four, q)
                with_part = _bits(call(x, y, st, spec, part, q))
                reads = _reads_blocks(entry, row)
                if reads and (num_blocks is not None or row.partition != "optional"):
                    with pytest.raises(ValueError, match=f"method {name} needs an explicit partition"):
                        call(x, y, st, spec, None, q)
                else:
                    without = _bits(call(x, y, st, spec, None, q))
                    if not reads:
                        assert with_part == without, where
                        if num_blocks is None:  # then any block count passes the check
                            assert _bits(call(x, y, st, spec, four, q)) == without, where
                checked += 1
    # Exact 2 calls, Spherical and SharedBlock 4, SGPR, T-SGPR and BT-SGPR 6,
    # PEP and T-PEP 6 with num_blocks and 6 without
    assert checked == 2 + 2 * 4 + 3 * 6 + 2 * 12


def test_stochastic_estimate_checks_the_partition_against_the_spec():
    # as fit_stochastic does: a 4-block partition is not the 3 blocks the
    # spec asks for, and would scale the estimate by the wrong B
    x, y, state = small_instance(np.random.default_rng(0))
    part = make_partition(y.shape[0], 4, seed=0)
    spec = BoundSpec("BT-SGPR", num_blocks=3)
    with pytest.raises(ValueError, match="spec asks for 3 blocks but the partition has 4"):
        stochastic_estimate(x, y, state, part, _prior_qu(state), 0, spec)
    with pytest.raises(ValueError, match="partition covers 5 points"):
        stochastic_estimate(x, y, state, make_partition(5, 2), _prior_qu(state), 0,
                            BoundSpec("SGPR"))


@pytest.mark.parametrize(
    "method, with_m",
    [("PEP", True), ("T-PEP", False), ("SGPR", True), ("BT-SGPR", True)],
)
def test_a_state_carries_the_gap_scale_exactly_where_the_method_has_one(method, with_m):
    # only T-PEP trains the gap scale m: a PEP state with m must not train
    # T-PEP, and a T-PEP state without m must not evaluate PEP; every entry
    # point refuses by name
    x, y, state = small_instance(np.random.default_rng(4))
    if with_m:
        state = state.with_(log_m_scale=np.log(1.3))
    part = make_partition(y.shape[0], 4, seed=0)
    spec = BoundSpec(
        method=method,
        alpha=0.5 if method in ("PEP", "T-PEP") else None,
        num_blocks=None if method == "SGPR" else 4,
    )
    for mode in ("analytic", "fd"):
        cfg = TrainConfig(objective=spec, optimizer="adam", epochs=2, gradient_mode=mode)
        with pytest.raises(ValueError, match=f"method {method} "):
            fit_stochastic(x, y, state, part, cfg)
    with pytest.raises(ValueError, match=f"method {method} "):
        stochastic_estimate(x, y, state, part, _prior_qu(state), 0, spec, gradient=True)
    with pytest.raises(ValueError, match=f"method {method} "):
        evaluate_bound(x, y, state, spec, part)
    with pytest.raises(ValueError, match=f"method {method} "):
        fit_collapsed(x, y, state, TrainConfig(objective=spec, epochs=1), part)
    with pytest.raises(ValueError, match=f"method {method} "):
        qu_optimum(x, y, state, spec, part)
    with pytest.raises(ValueError, match=f"method {method} "):
        uncollapsed_bound(x, y, state, spec, _prior_qu(state), part)


def test_the_spec_level_optimum_and_uncollapsed_bound_are_the_methods_own():
    # qu_optimum and uncollapsed_bound are the per-family functions of each
    # row, bit for bit: optimal_qu and vi_uncollapsed at the row's penalty,
    # or tpep_optimal_qu and tpep_uncollapsed at the spec's alpha and the
    # state's m (one point per block where no partition is given); they
    # meet evaluate_bound at the optimum, and Exact, with no q(u), raises
    rng = np.random.default_rng(31)
    for k in range(3):
        x, y, state = small_instance(rng)
        n = y.shape[0]
        part = make_partition(n, 2 if n % 2 == 0 else 1, seed=k)
        q = random_qu(rng, state.num_inducing)
        for name, row in METHODS.items():
            st = state.with_(log_m_scale=np.log(0.7)) if row.gap_scale else state
            # power EP's optional partition: given, and one point per block
            choices = {"required": [part], "optional": [part, None], "rejected": [None]}
            for reads in choices[row.partition]:
                num_blocks = None if reads is None else reads.num_blocks
                spec = BoundSpec(name, 0.6 if row.alpha else None, num_blocks)
                if row.penalty is None:
                    for call in (lambda: qu_optimum(x, y, st, spec),
                                 lambda: uncollapsed_bound(x, y, st, spec, q)):
                        with pytest.raises(ValueError, match="method Exact has no q"):
                            call()
                    continue
                if row.alpha:
                    cfg = PepConfig(0.6, reads or singleton_partition(n), st.m_scale)
                    star, at_q = tpep_optimal_qu(x, y, st, cfg), tpep_uncollapsed(x, y, st, cfg, q)
                else:
                    star = optimal_qu(x, y, st)
                    at_q = vi_uncollapsed(x, y, st, part, q, penalty=row.penalty)
                got = qu_optimum(x, y, st, spec, reads)
                assert np.array_equal(got.mean, star.mean), name
                assert np.array_equal(got.cov_chol.lower, star.cov_chol.lower), name
                assert uncollapsed_bound(x, y, st, spec, q, reads) == at_q, name
                meet = uncollapsed_bound(x, y, st, spec, got, reads).total
                assert_allclose(meet, evaluate_bound(x, y, st, spec, reads).total, rtol=1e-8)


def test_fit_collapsed_lbfgs_improves_and_traces():
    rng = np.random.default_rng(3)
    x, y, state = small_instance(rng)
    spec = BoundSpec(method="SGPR")
    cfg = TrainConfig(objective=spec, optimizer="lbfgs", epochs=25, seed=0)
    fitted, trace = fit_collapsed(x, y, state, cfg)
    assert 1 <= len(trace) <= 25
    start = evaluate_bound(x, y, state, spec).total
    end = evaluate_bound(x, y, fitted, spec).total
    assert end >= start
    assert_allclose(trace.objective[-1], end, rtol=1e-12)
    assert np.all(trace.sigma2 > 0)
    assert trace.lengthscales.shape == (len(trace), x.shape[1])


def test_lbfgs_trace_reuses_the_line_search_value(monkeypatch):
    # each point L-BFGS-B asks for costs one evaluate_bound call that
    # returns the value and its analytic gradient from one prepare, with
    # no differences; the trace records the value L-BFGS-B has already
    # computed at each accepted iterate instead of evaluating it again
    import blockgp.bounds_pep as bounds_pep
    import blockgp.bounds_vi as bounds_vi
    import blockgp.training as training

    rng = np.random.default_rng(3)
    x, y, state = small_instance(rng)
    real_eval, real_prepare = training.evaluate_bound, bounds_vi.prepare
    for spec, part in ((BoundSpec(method="SGPR"), None),
                       (BoundSpec(method="T-PEP", alpha=0.5, num_blocks=4),
                        make_partition(y.shape[0], 4, seed=0))):
        start = state.with_(log_m_scale=0.0) if spec.row.gap_scale else state
        calls, prepares = [], [0]

        def counting(*args, **kwargs):
            calls.append(kwargs.get("gradient", False))
            return real_eval(*args, **kwargs)

        def counting_prepare(*args, **kwargs):
            prepares[0] += 1
            return real_prepare(*args, **kwargs)

        def no_differences(*args, **kwargs):
            raise AssertionError("fit_collapsed took a difference gradient")

        monkeypatch.setattr(training, "evaluate_bound", counting)
        monkeypatch.setattr(training, "finite_difference_gradient", no_differences)
        for mod in (bounds_vi, bounds_pep):
            if hasattr(mod, "prepare"):
                monkeypatch.setattr(mod, "prepare", counting_prepare)
        cfg = TrainConfig(objective=spec, optimizer="lbfgs", epochs=1)
        fitted, trace = fit_collapsed(x, y, start, cfg, part)
        monkeypatch.undo()
        assert len(trace) == 1
        assert trace.function_evals >= 2, spec.method
        assert calls == [True] * trace.function_evals, spec.method
        assert prepares[0] == trace.function_evals, spec.method
        assert trace.objective[0] == evaluate_bound(x, y, fitted, spec, part).total


def test_adam_trace_reuses_the_next_steps_value(monkeypatch):
    # each Adam step makes one value-and-gradient call, whose value is the
    # trace entry of the step before; only the last point is evaluated
    # once more, value only, and every entry is bitwise the value-only
    # evaluation at its point
    import blockgp.training as training

    rng = np.random.default_rng(3)
    x, y, state = small_instance(rng)
    real_eval = training.evaluate_bound
    for spec, part in ((BoundSpec(method="SGPR"), None),
                       (BoundSpec(method="T-PEP", alpha=0.5, num_blocks=4),
                        make_partition(y.shape[0], 4, seed=0))):
        start = state.with_(log_m_scale=0.0) if spec.row.gap_scale else state
        calls = []

        def counting(x, y, point, *args, **kwargs):
            calls.append((kwargs.get("gradient", False), point))
            return real_eval(x, y, point, *args, **kwargs)

        monkeypatch.setattr(training, "evaluate_bound", counting)
        cfg = TrainConfig(objective=spec, optimizer="adam", epochs=5, learning_rate=0.01)
        fitted, trace = fit_collapsed(x, y, start, cfg, part)
        monkeypatch.undo()
        assert [g for g, _ in calls] == [True] * 5 + [False], spec.method
        assert np.array_equal(calls[-1][1].inducing, fitted.inducing)
        after_each_step = [point for _, point in calls[1:]]
        fresh = [evaluate_bound(x, y, p, spec, part).total for p in after_each_step]
        assert np.array_equal(trace.objective, fresh), spec.method


def test_fit_collapsed_adam_takes_exactly_epochs_steps():
    rng = np.random.default_rng(4)
    x, y, state = small_instance(rng)
    cfg = TrainConfig(
        objective=BoundSpec(method="T-SGPR"), optimizer="adam", epochs=8, seed=0
    )
    _, trace = fit_collapsed(x, y, state, cfg)
    assert len(trace) == 8
    assert trace.stop_message == "step budget of 8 steps ran out"
    assert trace.function_evals is None


def test_fit_collapsed_moves_the_gap_scale():
    rng = np.random.default_rng(5)
    x, y, state = small_instance(rng)
    state = state.with_(log_m_scale=0.0)
    part = make_partition(y.shape[0], 3, seed=1)
    cfg = TrainConfig(
        objective=BoundSpec(method="T-PEP", alpha=0.5, num_blocks=3),
        optimizer="adam",
        epochs=10,
        learning_rate=0.05,
        seed=0,
    )
    fitted, trace = fit_collapsed(x, y, state, cfg, part)
    assert fitted.log_m_scale is not None
    assert not np.allclose(trace.m_scale, 1.0)


def test_fit_stochastic_trace_length_and_bitwise_determinism():
    rng = np.random.default_rng(6)
    x, y, state = small_instance(rng)
    part = make_partition(y.shape[0], 3, seed=2)
    cfg = TrainConfig(
        objective=BoundSpec(method="BT-SGPR", num_blocks=3),
        optimizer="adam",
        epochs=4,
        seed=11,
    )
    s1, q1, t1 = fit_stochastic(x, y, state, part, cfg)
    s2, q2, t2 = fit_stochastic(x, y, state, part, cfg)
    assert len(t1) == 4 * 3
    assert t1.stop_message == "step budget of 12 steps ran out"
    assert t1.function_evals is None
    assert np.array_equal(t1.objective, t2.objective)
    assert np.array_equal(s1.inducing, s2.inducing)
    assert np.array_equal(q1.mean, q2.mean)


def test_fit_stochastic_single_block_matches_handrolled_adam():
    rng = np.random.default_rng(7)
    x, y, state = small_instance(rng)
    n = y.shape[0]
    part = make_partition(n, 1)
    spec = BoundSpec(method="BT-SGPR", num_blocks=1)
    cfg = TrainConfig(objective=spec, optimizer="adam", epochs=5, seed=0,
                      learning_rate=0.01, gradient_mode="fd")
    q0 = GaussianQU(
        mean=np.zeros(state.num_inducing),
        cov_chol=chol(kernel_matrix(state.inducing, state.inducing, state.kernel)),
    )
    _, _, trace = fit_stochastic(x, y, state, part, cfg, q=q0)

    # full-batch replay: one block means every step sees the whole bound
    pack = ParameterPack.for_state(state, with_q=True)
    theta = pack.pack(state, q0)
    fun = lambda t: vi_stochastic(
        x, y, pack.unpack_state(t), part, pack.unpack_q(t), 0, penalty="logdet"
    )
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = np.zeros(theta.size)
    v = np.zeros(theta.size)
    values = []
    for t in range(1, 6):
        grad = finite_difference_gradient(fun, theta)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta + cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        values.append(float(fun(theta)))
    assert np.array_equal(trace.objective, np.array(values))


def test_fit_stochastic_rejects_unsupported_setups():
    rng = np.random.default_rng(8)
    x, y, state = small_instance(rng)
    part = make_partition(y.shape[0], 2)
    with pytest.raises(ValueError):
        fit_stochastic(
            x, y, state, part,
            TrainConfig(objective=BoundSpec(method="Spherical"), optimizer="adam"),
        )
    with pytest.raises(ValueError):
        fit_stochastic(
            x, y, state, part,
            TrainConfig(
                objective=BoundSpec(method="BT-SGPR", num_blocks=2), optimizer="lbfgs"
            ),
        )


def _prior_qu(state):
    return GaussianQU(
        mean=np.zeros(state.num_inducing),
        cov_chol=chol(kernel_matrix(state.inducing, state.inducing, state.kernel)),
    )


def test_fit_stochastic_trace_rows_are_the_next_blocks_estimate():
    rng = np.random.default_rng(12)
    x, y, state = small_instance(rng)
    part = make_partition(y.shape[0], 3, seed=1)
    spec = BoundSpec(method="BT-SGPR", num_blocks=3)
    cfg = TrainConfig(objective=spec, optimizer="adam", epochs=2, seed=4,
                      learning_rate=0.01)
    q0 = _prior_qu(state)
    fitted, q, trace = fit_stochastic(x, y, state, part, cfg, q=q0)

    # replay: the seeded schedule, analytic block gradients, Adam by hand
    schedule = np.random.default_rng(cfg.seed)
    order = [int(b) for _ in range(cfg.epochs) for b in schedule.permutation(3)]
    pack = ParameterPack.for_state(state, with_q=True)
    theta = pack.pack(state, q0)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = np.zeros(theta.size)
    v = np.zeros(theta.size)
    iterates = []
    for t, b in enumerate(order, start=1):
        qu = pack.unpack_q(theta)
        est = stochastic_estimate(x, y, pack.unpack_state(theta), part, qu, b, spec,
                                  gradient=True)
        grad = pack.pack_estimate_gradient(qu, est)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta + cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        iterates.append(theta)
    # row t is theta_t on the block step t + 1 draws; the last on the last block
    values = [
        vi_stochastic(x, y, pack.unpack_state(th), part, pack.unpack_q(th), b,
                      penalty="logdet")
        for th, b in zip(iterates, order[1:] + order[-1:])
    ]
    assert np.array_equal(trace.objective, np.array(values))
    assert np.array_equal(fitted.inducing, pack.unpack_state(theta).inducing)
    assert np.array_equal(q.mean, pack.unpack_q(theta).mean)


@pytest.mark.parametrize("method", ["BT-SGPR", "T-PEP"])
def test_a_stochastic_step_makes_one_block_pass(monkeypatch, method):
    calls = {"with_gradient": 0, "value_only": 0}
    real_estimate = training.block_estimate

    def counting_estimate(*args, **kwargs):
        calls["with_gradient" if kwargs.get("gradient") else "value_only"] += 1
        return real_estimate(*args, **kwargs)

    def counting(real):
        def wrapped(*args, **kwargs):
            calls["value_only"] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(training, "block_estimate", counting_estimate)
    for name in ("vi_stochastic", "tpep_stochastic"):
        monkeypatch.setattr(training, name, counting(getattr(training, name)))
    rng = np.random.default_rng(13)
    x, y, state = small_instance(rng)
    if method == "T-PEP":
        state = state.with_(log_m_scale=np.log(1.2))
        spec = BoundSpec(method=method, alpha=0.5, num_blocks=3)
    else:
        spec = BoundSpec(method=method, num_blocks=3)
    part = make_partition(y.shape[0], 3, seed=0)
    cfg = TrainConfig(objective=spec, optimizer="adam", epochs=2, learning_rate=0.01)
    _, _, trace = fit_stochastic(x, y, state, part, cfg, q=_prior_qu(state))
    assert len(trace) == 6
    # one value-and-gradient pass a step, one value-only pass at the last point
    assert calls == {"with_gradient": 6, "value_only": 1}


def _stochastic_spec(method, num_blocks):
    if method in ("PEP", "T-PEP"):
        return BoundSpec(method=method, alpha=0.5, num_blocks=num_blocks)
    if method == "BT-SGPR":
        return BoundSpec(method=method, num_blocks=num_blocks)
    return BoundSpec(method=method)


@pytest.mark.parametrize("mode", ["analytic", "fd"])
@pytest.mark.parametrize("learning_rate", [300.0, 3000.0])
@pytest.mark.parametrize("method", STOCHASTIC_METHODS)
def test_a_diverging_stochastic_run_raises_evaluation_failed(method, learning_rate, mode):
    # steps this long carry the kernel, q(u) or the gap scale to where they
    # overflow; that is a named error, not a bare FloatingPointError, a
    # RuntimeWarning or a parameter vector of NaNs
    x, y, state = small_instance(np.random.default_rng(6))
    if method == "T-PEP":
        state = state.with_(log_m_scale=0.0)
    part = make_partition(y.shape[0], 3, seed=0)
    cfg = TrainConfig(objective=_stochastic_spec(method, 3), optimizer="adam", epochs=3,
                      learning_rate=learning_rate, gradient_mode=mode)
    with pytest.raises(EvaluationFailed):
        fit_stochastic(x, y, state, part, cfg)


@pytest.mark.parametrize("method", ["T-SGPR", "PEP"])
def test_an_overflowing_adam_second_moment_is_evaluation_failed(method):
    # the gradient grows past 1e154, where grad * grad overflows; an infinite
    # second moment would make that coordinate's step silently 0
    x, y, state = small_instance(np.random.default_rng(0))
    part = make_partition(y.shape[0], 3, seed=0)
    cfg = TrainConfig(objective=_stochastic_spec(method, 3), optimizer="adam", epochs=3,
                      learning_rate=100.0, gradient_mode="analytic")
    with pytest.raises(EvaluationFailed, match="second moment"):
        fit_stochastic(x, y, state, part, cfg)


def test_fit_stochastic_names_an_overflowing_second_moment(monkeypatch):
    # a BT-SGPR block gradient with an entry of 1e160, whose square
    # overflows, must stop the run at Adam's second-moment guard
    x, y, state = small_instance(np.random.default_rng(0))
    part = make_partition(y.shape[0], 3, seed=0)
    estimate = training.stochastic_estimate

    def huge(*args, **kwargs):
        return dataclasses.replace(estimate(*args, **kwargs), d_log_signal_variance=1e160)

    monkeypatch.setattr(training, "stochastic_estimate", huge)
    cfg = TrainConfig(objective=_stochastic_spec("BT-SGPR", 3), optimizer="adam", epochs=3,
                      learning_rate=100.0, gradient_mode="analytic")
    with pytest.raises(EvaluationFailed, match="second moment"):
        fit_stochastic(x, y, state, part, cfg)


@pytest.mark.parametrize("method", ["T-SGPR", "PEP"])
def test_fit_stochastic_names_an_overflowing_second_moment_directly(method, monkeypatch):
    # the guard the diverging runs above reach, driven without their
    # path: a block gradient with an entry of 1e160 stops the run there
    x, y, state = small_instance(np.random.default_rng(0))
    part = make_partition(y.shape[0], 3, seed=0)
    estimate = training.stochastic_estimate

    def huge(*args, **kwargs):
        return dataclasses.replace(estimate(*args, **kwargs), d_log_signal_variance=1e160)

    monkeypatch.setattr(training, "stochastic_estimate", huge)
    cfg = TrainConfig(objective=_stochastic_spec(method, 3), optimizer="adam", epochs=3,
                      learning_rate=1e-3, gradient_mode="analytic")
    with pytest.raises(EvaluationFailed, match="second moment"):
        fit_stochastic(x, y, state, part, cfg)


def test_overflowing_adjoints_at_a_finite_estimate_are_evaluation_failed():
    # with two inducing points 1e-3 apart Kuu^-1 L_q overflows at L_q =
    # 1e148 I where the estimate itself is still finite: the adjoints'
    # guard raises, and a run started there names it
    x, y, state = small_instance(np.random.default_rng(3))
    z = state.inducing.copy()
    z[1] = z[0] + 1e-3
    state = state.with_(inducing=z)
    part = make_partition(y.shape[0], 3, seed=0)
    q = GaussianQU(mean=np.zeros(state.num_inducing),
                   cov_chol=CholeskyFactor(1e148 * np.eye(state.num_inducing)))
    spec = BoundSpec(method="SGPR")
    assert np.isfinite(stochastic_estimate(x, y, state, part, q, 0, spec).value)
    with pytest.raises(FloatingPointError, match="overflow"):
        stochastic_estimate(x, y, state, part, q, 0, spec, gradient=True)
    cfg = TrainConfig(objective=spec, optimizer="adam", epochs=1, gradient_mode="analytic")
    with pytest.raises(EvaluationFailed, match="overflow"):
        fit_stochastic(x, y, state, part, cfg, q=q)


def test_a_python_float_overflow_at_a_huge_noise_is_evaluation_failed():
    # at sigma2 = 1e156 the trace penalty's sigma2 adjoint squares sigma2,
    # a Python float, which raises OverflowError; the estimate is finite
    x, y, state = small_instance(np.random.default_rng(1))
    state = state.with_(noise=NoiseParam(log_noise_variance=float(np.log(1e156))))
    part = make_partition(y.shape[0], 3, seed=0)
    spec = BoundSpec(method="SGPR")
    q = _prior_qu(state)
    assert np.isfinite(stochastic_estimate(x, y, state, part, q, 0, spec).value)
    with pytest.raises(OverflowError):
        stochastic_estimate(x, y, state, part, q, 0, spec, gradient=True)
    cfg = TrainConfig(objective=spec, optimizer="adam", epochs=1, gradient_mode="analytic")
    with pytest.raises(EvaluationFailed, match="out of range"):
        fit_stochastic(x, y, state, part, cfg, q=q)


def test_a_diverging_bt_sgpr_run_is_evaluation_failed():
    # the run above without the patch diverges on its own; where it stops
    # (the second moment or the kernel's non-finite check) depends on the
    # last bits of every solve on the way, but it must stop by name
    x, y, state = small_instance(np.random.default_rng(0))
    part = make_partition(y.shape[0], 3, seed=0)
    cfg = TrainConfig(objective=_stochastic_spec("BT-SGPR", 3), optimizer="adam", epochs=3,
                      learning_rate=100.0, gradient_mode="analytic")
    with pytest.raises(EvaluationFailed):
        fit_stochastic(x, y, state, part, cfg)


def test_adam_rejects_a_gradient_whose_square_overflows():
    with pytest.raises(EvaluationFailed, match="second moment"):
        maximize_adam(lambda t: (0.0, np.array([1.0, 1e160])), np.zeros(2), steps=1)


@pytest.mark.parametrize(
    "method, learning_rate, mode",
    [("T-SGPR", 300.0, "analytic"), ("T-SGPR", 300.0, "fd"), ("SGPR", 100.0, "analytic")],
)
def test_overflowing_block_adjoints_are_evaluation_failed(method, learning_rate, mode):
    # the per-point penalty's sigma2 adjoint and Kuu^-1 L_q (L_q^T Kuu^-1)
    # overflow at finite values; no RuntimeWarning may escape on the way
    x, y, state = small_instance(np.random.default_rng(3))
    part = make_partition(y.shape[0], 3, seed=0)
    cfg = TrainConfig(objective=_stochastic_spec(method, 3), optimizer="adam", epochs=3,
                      learning_rate=learning_rate, gradient_mode=mode)
    with pytest.raises(EvaluationFailed):
        fit_stochastic(x, y, state, part, cfg)


def test_a_python_float_overflow_is_evaluation_failed():
    # the noise variance grows past 1e154, where the SGPR adjoint's s2**2,
    # a Python float, raises OverflowError
    x, y, state = small_instance(np.random.default_rng(1))
    part = make_partition(y.shape[0], 3, seed=0)
    cfg = TrainConfig(objective=BoundSpec(method="SGPR"), optimizer="adam", epochs=3,
                      learning_rate=300.0)
    with pytest.raises(EvaluationFailed):
        fit_stochastic(x, y, state, part, cfg)


def test_analytic_qu_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    x, y, state = small_instance(rng)
    part = random_blocks(rng, y.shape[0])
    q = random_qu(rng, state.num_inducing)
    pack = ParameterPack.for_state(state, with_q=True)
    theta = pack.pack(state, q)
    hyper = theta[: pack.num_hyper]

    for b in range(part.num_blocks):
        def fun(tail, b=b):
            t = np.concatenate([hyper, tail])
            return vi_stochastic(
                x, y, state, part, pack.unpack_q(t), b, penalty="logdet"
            )

        d_mean, d_lower = uncollapsed_qu_gradient(x, y, state, part, q, block_index=b)
        analytic = pack.pack_q_gradient(q, d_mean, d_lower)
        fd = finite_difference_gradient(fun, theta[pack.num_hyper :])
        assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-6)

    pcfg = PepConfig(alpha=0.6, partition=part, m_scale=1.2)

    def fun_pep(tail):
        t = np.concatenate([hyper, tail])
        return tpep_stochastic(x, y, state, pcfg, pack.unpack_q(t), 0)

    d_mean, d_lower = tpep_qu_gradient(x, y, state, pcfg, q, block_index=0)
    analytic = pack.pack_q_gradient(q, d_mean, d_lower)
    fd = finite_difference_gradient(fun_pep, theta[pack.num_hyper :])
    assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-6)


def test_trace_builder_raises_diverged_on_nonfinite():
    from blockgp.training import _TraceBuilder

    rng = np.random.default_rng(10)
    _, _, state = small_instance(rng)
    builder = _TraceBuilder(state.kernel.input_dim)
    builder.append(-3.0, state)
    with pytest.raises(Diverged):
        builder.append(float("nan"), state)


def _failing_start():
    """300 standardized 2-d points, noise variance 1e-9 and five inducing
    points duplicated: a start from which L-BFGS-B reaches points whose
    objective or gradient cannot be evaluated."""
    from blockgp.data import Dataset, initial_state, standardize

    rng = np.random.default_rng(1)
    x = rng.uniform(-2.0, 2.0, (300, 2))
    w = rng.standard_normal((2, 8))
    y = np.sin(x @ w).sum(axis=1) / np.sqrt(8) + 0.01 * rng.standard_normal(300)
    train = standardize(Dataset(x=x, y=y))
    state = initial_state(train, 10, seed=0, noise_variance=1e-9)
    z = state.inducing.copy()
    z[5:10] = z[0:5]
    return train.x, train.y, state.with_(inducing=z)


def test_overflowing_line_search_trial_is_infeasible_not_a_crash():
    # a trial point overflows the kernel parameters; that must read as an
    # infeasible point (EvaluationFailed inside L-BFGS), not a bare ValueError
    x, y, state = _failing_start()
    spec = BoundSpec(method="SGPR")
    cfg = TrainConfig(objective=spec, optimizer="lbfgs", epochs=50)
    fitted, trace = fit_collapsed(x, y, state, cfg)
    assert len(trace) >= 1
    pack = ParameterPack.for_state(fitted)
    grad = finite_difference_gradient(
        lambda t: evaluate_bound(x, y, pack.unpack_state(t), spec).total, pack.pack(fitted)
    )
    assert np.all(np.isfinite(grad))


def test_overflow_is_evaluation_failed_but_shape_errors_surface():
    rng = np.random.default_rng(11)
    x, y, state = small_instance(rng)
    spec = BoundSpec(method="SGPR")
    pack = ParameterPack.for_state(state)
    theta = pack.pack(state)
    d = pack.input_dim
    # lengthscale underflow, signal variance overflow, noise over- and underflow
    for i, value in ((0, -1e3), (d, 1e3), (d + 1, 1e3), (d + 1, -1e3)):
        far = theta.copy()
        far[i] = value
        with pytest.raises(EvaluationFailed):
            finite_difference_gradient(
                lambda t: evaluate_bound(x, y, pack.unpack_state(t), spec).total, far
            )
    with pytest.raises(ValueError):
        finite_difference_gradient(
            lambda t: evaluate_bound(x[:, :0], y, pack.unpack_state(t), spec).total, theta
        )
