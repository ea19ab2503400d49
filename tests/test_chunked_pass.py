"""The bounds read the data a chunk of at most CHUNK_ENTRIES // M points at a time.

Every collapsed value, gradient, optimal q(u) and q(u) gradient is a sum
over chunks plus M x M work, so no call builds a kernel block with more
columns than a chunk, and the memory one evaluation holds beyond its
inputs does not grow with N.  The instances are the scale the chunking is
for, shrunk: D = 2, M = 16, blocks of 50 and inducing points drawn from
the inputs.
"""

import tracemalloc

import numpy as np
import pytest

from blockgp import bounds_vi
from blockgp.bounds_pep import PepConfig, tpep_optimal_qu, tpep_qu_gradient
from blockgp.bounds_vi import CHUNK_ENTRIES, optimal_qu, uncollapsed_qu_gradient
from blockgp.kernels import KernelParams, NoiseParam
from blockgp.model import METHODS, BoundSpec, ModelState, Partition, make_partition
from blockgp.training import evaluate_bound
from blockgp.verify import random_qu

BLOCK = 50


def _instance(n: int, m: int = 16, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (n, 2))
    y = np.sin(x).sum(axis=1) + 0.3 * rng.standard_normal(n)
    z = x[rng.choice(n, m, replace=False)]
    state = ModelState(KernelParams(np.zeros(2), 0.0), NoiseParam(float(np.log(0.1))), z)
    blocks = np.split(rng.permutation(n), n // BLOCK)
    return x, y, state, Partition([np.sort(b) for b in blocks])


def _spec(method, part):
    row = METHODS[method]
    return BoundSpec(
        method,
        alpha=0.5 if row.alpha else None,
        num_blocks=None if row.partition == "rejected" else part.num_blocks,
    )


def _evaluate(method, gradient):
    def call(x, y, state, part):
        spec = _spec(method, part)
        if spec.row.gap_scale:
            state = state.with_(log_m_scale=0.1)
        return evaluate_bound(x, y, state, spec, part, gradient)
    return call


CALLS = {
    "BT-SGPR gradient": _evaluate("BT-SGPR", True),
    "SGPR gradient": _evaluate("SGPR", True),
    "T-PEP value": _evaluate("T-PEP", False),
    "optimal_qu": lambda x, y, state, part: optimal_qu(x, y, state),
}


@pytest.mark.parametrize("name", CALLS)
def test_memory_does_not_grow_with_n(name):
    peaks = []
    for n in (5000, 25000):
        x, y, state, part = _instance(n)
        part.order  # the partition's block order, built once a partition
        CALLS[name](x, y, state, part)
        tracemalloc.start()
        try:
            CALLS[name](x, y, state, part)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < x.nbytes + y.nbytes, peaks


def test_no_call_builds_more_columns_than_a_chunk(monkeypatch):
    n = 62 * BLOCK
    x, y, state, part = _instance(n)
    width = CHUNK_ENTRIES // state.num_inducing
    widths = []
    real = bounds_vi.kernel_matrix

    def recording(x1, x2, params):
        widths.append(np.shape(x2)[0])
        return real(x1, x2, params)

    monkeypatch.setattr(bounds_vi, "kernel_matrix", recording)
    q = random_qu(np.random.default_rng(1), state.num_inducing)
    cfg = PepConfig(alpha=0.5, partition=part, m_scale=1.2)
    calls = [_evaluate(name, gradient)
             for name, row in METHODS.items() if row.penalty for gradient in (False, True)]
    calls += [
        lambda *_: optimal_qu(x, y, state),
        lambda *_: tpep_optimal_qu(x, y, state, cfg),
        lambda *_: uncollapsed_qu_gradient(x, y, state, part, q),
        lambda *_: tpep_qu_gradient(x, y, state, cfg, q),
    ]
    for call in calls:
        widths.clear()
        call(x, y, state, part)
        assert len(widths) > 2 and max(widths) <= width < n


def test_a_block_wider_than_a_chunk_is_a_chunk_alone(monkeypatch):
    # at M = 128 a chunk holds 256 points, so each block of 300 is a chunk
    x, y, state, _ = _instance(1500, m=128)
    part = make_partition(1500, 5, seed=2)
    widths = []
    real = bounds_vi.kernel_matrix

    def recording(x1, x2, params):
        widths.append(np.shape(x2)[0])
        return real(x1, x2, params)

    monkeypatch.setattr(bounds_vi, "kernel_matrix", recording)
    for method in ("BT-SGPR", "T-PEP", "SharedBlock"):
        for gradient in (False, True):
            widths.clear()
            _evaluate(method, gradient)(x, y, state, part)
            assert max(widths) == 300, (method, widths)
