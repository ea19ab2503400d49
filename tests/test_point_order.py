"""The bounds do not depend on the order of the points.

Every penalized bound is a sum over points or over blocks plus M x M
work, so permuting (x, y), with the partition mapped through the
permutation, moves its value and its gradient in the coordinates a
collapsed fit trains by rounding alone; the partition lists its blocks
in a new order too.  The gradient reads Kuu^-1, so rounding moves it by
up to about cond(Kuu) eps relative: small_instance's inducing inputs are
uniform draws, and where two nearly coincide (cond(Kuu) 1e9 to 3e10 in
these draws) a reordered sum moves the gradient by up to 1.6e-7 of its
largest entry.  The gradients are held to 1e-10 of it, or to ten times
cond(Kuu) eps where that is more.  SharedBlock's one scale matrix pairs the i-th points
of its blocks, so its permutations keep the order of the points within
each block.  The bounds that read blocks take the points in the
partition's block order (Partition.order); given points already in that
order they evaluate the same arrays, so that permutation moves neither
by a bit.
"""

import numpy as np
import pytest

from blockgp.kernels import kernel_matrix
from blockgp.model import METHODS, BoundSpec, Partition, make_partition
from blockgp.training import evaluate_bound
from blockgp.verify import random_blocks, small_instance

PENALIZED = [name for name, row in METHODS.items() if row.penalty]
DRAWS = 12
VALUE_RTOL = 1e-12
GRADIENT_RTOL = 1e-10  # of the gradient's largest entry


def _mapped(part: Partition, perm: np.ndarray, blocks=None) -> Partition:
    """part's blocks, listed in the order blocks (default theirs), as
    indices into points reordered by perm."""
    where = np.argsort(perm)
    order = range(part.num_blocks) if blocks is None else blocks
    return Partition([np.sort(where[part.blocks[k]]) for k in order])


def _shuffle(rng, part: Partition, keep_block_order: bool) -> np.ndarray:
    """A random permutation of the points; with keep_block_order, one
    where the i-th point of a block stays its i-th."""
    places = rng.permutation(part.n)
    if not keep_block_order:
        return places
    perm = np.empty(part.n, dtype=int)
    for b in part.blocks:
        perm[np.sort(places[b])] = b
    return perm


def _gradient(bound) -> np.ndarray:
    """The gradient in the coordinates a collapsed fit trains; its q(u)
    part is zero at the optimal q(u) but for rounding."""
    g = bound.gradient
    fields = (g.d_log_lengthscales, g.d_log_signal_variance, g.d_log_noise_variance,
              g.d_inducing, g.d_log_m_scale)
    return np.concatenate([np.ravel(f) for f in fields])


def _cases(method: str):
    """DRAWS small instances with random blocks (equal ones for SharedBlock)."""
    row = METHODS[method]
    rng = np.random.default_rng(PENALIZED.index(method))
    for _ in range(DRAWS):
        x, y, state = small_instance(rng)
        if method == "SharedBlock":
            n = y.shape[0] // 2 * 2
            x, y = x[:n], y[:n]
            num = int(rng.choice([b for b in range(2, n + 1) if n % b == 0]))
            part = make_partition(n, num, seed=int(rng.integers(2**31)))
        else:
            part = random_blocks(rng, y.shape[0])
        if row.gap_scale:
            state = state.with_(log_m_scale=float(rng.uniform(-0.3, 0.3)))
        spec = BoundSpec(method, alpha=0.5 if row.alpha else None,
                         num_blocks=part.num_blocks if row.partition != "rejected" else None)
        yield rng, x, y, state, spec, part


def _evaluate(x, y, state, spec, part, perm, gradient, blocks=None):
    return evaluate_bound(x[perm], y[perm], state, spec, _mapped(part, perm, blocks), gradient)


@pytest.mark.parametrize("method", PENALIZED)
def test_a_random_permutation_moves_the_bound_by_rounding_alone(method):
    for rng, x, y, state, spec, part in _cases(method):
        perm = _shuffle(rng, part, keep_block_order=method == "SharedBlock")
        blocks = rng.permutation(part.num_blocks)
        for gradient in (False, True):
            ref = _evaluate(x, y, state, spec, part, np.arange(y.shape[0]), gradient)
            moved = _evaluate(x, y, state, spec, part, perm, gradient, blocks)
            assert abs(moved.total - ref.total) <= VALUE_RTOL * abs(ref.total)
            if gradient:
                kuu = kernel_matrix(state.inducing, state.inducing, state.kernel)
                rtol = max(GRADIENT_RTOL, 10.0 * np.finfo(float).eps * np.linalg.cond(kuu))
                g, h = _gradient(ref), _gradient(moved)
                assert np.max(np.abs(h - g)) <= rtol * np.max(np.abs(g))


@pytest.mark.parametrize("method", [m for m in PENALIZED if METHODS[m].partition != "rejected"])
def test_points_in_block_order_give_the_same_bits(method):
    for _, x, y, state, spec, part in _cases(method):
        for gradient in (False, True):
            ref = _evaluate(x, y, state, spec, part, np.arange(y.shape[0]), gradient)
            ordered = _evaluate(x, y, state, spec, part, part.order, gradient)
            assert ordered.total == ref.total
            if gradient:
                assert np.array_equal(_gradient(ordered), _gradient(ref))
