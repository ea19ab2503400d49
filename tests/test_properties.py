"""Property tests: each gap penalty is written once, so every path that
reads it reports the same bits.

Each penalized method writes its gap penalty once (bounds_vi._gap_penalty),
and a collapsed bound's value, its value-and-gradient pass and the
uncollapsed bound at any q(u) all read it.  Over drawn instances, with
unequal blocks (one-point blocks among them), duplicated inducing points
and noise variances down to 1e-8, evaluate_bound with and without
gradient must give the same total, fit term, regularizer and jitter, and
the uncollapsed bound on the same blocks (vi_uncollapsed, or
tpep_uncollapsed for power EP) the collapsed regularizer, or each pair
must raise the same error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgp.bounds_pep import PepConfig, tpep_uncollapsed
from blockgp.bounds_vi import vi_uncollapsed
from blockgp.kernels import KernelParams, NoiseParam
from blockgp.model import METHODS, BoundSpec, ModelState, Partition
from blockgp.training import evaluate_bound
from blockgp.verify import random_qu

PENALIZED = [name for name, row in METHODS.items() if row.penalty is not None]


@st.composite
def instances(draw):
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-2.0, 2.0, (n, d))
    z = rng.uniform(-2.0, 2.0, (m, d))
    if m > 1 and draw(st.booleans()):
        z[1] = z[0]  # duplicated inducing points
    if draw(st.booleans()):
        size = draw(st.sampled_from([s for s in range(1, 6) if n % s == 0]))
        sizes = [size] * (n // size)
    else:  # unequal blocks of 1 to 5 points
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(draw(st.integers(1, 5)), n - sum(sizes)))
    perm = rng.permutation(n)
    part = Partition([np.sort(p) for p in np.split(perm, np.cumsum(sizes)[:-1])])
    state = ModelState(
        kernel=KernelParams(
            log_lengthscales=rng.uniform(-1.0, 1.0, d),
            log_signal_variance=float(rng.uniform(-1.0, 1.0)),
        ),
        noise=NoiseParam(log_noise_variance=draw(st.floats(np.log(1e-8), 0.0))),
        inducing=z,
        log_m_scale=draw(st.floats(np.log(0.5), np.log(2.0))),
    )
    return x, rng.standard_normal(n), state, part, draw(st.floats(0.05, 1.0))


def _outcome(call, fields=("total", "fit_term", "regularizer", "jitter_used")):
    """The breakdown's fields as bits, or the error raised."""
    try:
        out = call()
    except Exception as exc:  # the property: both paths fail alike
        return type(exc).__name__, str(exc)
    return [np.float64(getattr(out, f)).tobytes() for f in fields]


def _method_instance(method, instance):
    """The instance fitted to method's row: its state, spec and partition
    (None where the row rejects one), alpha and the drawn blocks."""
    x, y, state, part, alpha = instance
    row = METHODS[method]
    if not row.gap_scale:
        state = state.with_(log_m_scale=None)
    spec = BoundSpec(
        method,
        alpha=alpha if row.alpha else None,
        num_blocks=None if row.partition == "rejected" else part.num_blocks,
    )
    spec_part = None if row.partition == "rejected" else part
    return x, y, state, spec, spec_part, part


@pytest.mark.parametrize("method", PENALIZED)
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(instances())
def test_the_gradient_pass_reports_the_value_only_bound(method, instance):
    x, y, state, spec, part, _ = _method_instance(method, instance)
    value = _outcome(lambda: evaluate_bound(x, y, state, spec, part))
    assert _outcome(lambda: evaluate_bound(x, y, state, spec, part, gradient=True)) == value


@pytest.mark.parametrize("method", PENALIZED)
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_the_uncollapsed_bound_reports_the_collapsed_regularizer(method, instance, seed):
    x, y, state, spec, part, blocks = _method_instance(method, instance)
    q = random_qu(np.random.default_rng(seed), state.num_inducing)
    penalty = spec.row.penalty
    if penalty == "pep":
        cfg = PepConfig(alpha=spec.alpha, partition=blocks, m_scale=state.m_scale)
        uncollapsed = lambda: tpep_uncollapsed(x, y, state, cfg, q)
    else:  # the diagonal penalties read no blocks, so any partition fits
        uncollapsed = lambda: vi_uncollapsed(x, y, state, blocks, q, penalty)
    collapsed = lambda: evaluate_bound(x, y, state, spec, part)
    assert _outcome(uncollapsed, ("regularizer",)) == _outcome(collapsed, ("regularizer",))
