"""The consistency-check battery itself: green by default, loud when
tampered with, and honest about runtimes."""

import numpy as np
import pytest

from blockgp.verify import (
    CHECKS,
    CheckResult,
    format_report,
    gentle_instance,
    random_instance,
    run_all,
    spread_instance,
)


def test_small_battery_is_green():
    results = run_all(scale="small", seed=0)
    assert len(results) == len(CHECKS)
    assert all(isinstance(r, CheckResult) for r in results)
    failed = [r.name for r in results if not r.passed]
    assert failed == [], failed


def test_tamper_hook_produces_named_failure():
    results = run_all(scale="small", seed=0, tamper_bias=1.0)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["ordering-chain"]
    report = format_report(results)
    assert "FAIL" in report and "ordering-chain" in report


def test_report_formatting():
    results = run_all(scale="small", seed=0)
    report = format_report(results)
    for r in results:
        assert r.name in report
    assert "PASS" in report
    assert report.count("\n") >= len(results)


def test_scale_is_validated():
    with pytest.raises(ValueError):
        run_all(scale="huge")


def test_instance_generators_shapes_and_determinism():
    ax, ay, astate = random_instance(np.random.default_rng(7))
    bx, by, bstate = random_instance(np.random.default_rng(7))
    assert np.array_equal(ax, bx) and np.array_equal(ay, by)
    assert np.array_equal(astate.inducing, bstate.inducing)
    assert np.array_equal(
        astate.kernel.log_lengthscales, bstate.kernel.log_lengthscales
    )

    x, y, state = ax, ay, astate
    assert x.shape[0] == y.shape[0]
    assert state.inducing.shape[1] == x.shape[1]

    gx, gy, gstate = gentle_instance(np.random.default_rng(8))
    assert gx.shape[0] == gy.shape[0]

    sx, _, sstate = spread_instance(np.random.default_rng(9))
    from blockgp.bounds_vi import prepare

    gap = prepare(sx, np.zeros(sx.shape[0]), sstate).block_gap(np.arange(sx.shape[0]))
    evals = np.linalg.eigvalsh(0.5 * (gap + gap.T))
    assert evals.min() > 0.0  # spread instances keep the gap invertible
