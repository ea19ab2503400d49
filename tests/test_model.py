"""Partition, BoundSpec, and model-state container tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockgp.cli import CONFIG_DEFAULTS, ConfigError, _validate_config
from blockgp.kernels import KernelParams, NoiseParam
from blockgp.model import (
    METHODS,
    BoundSpec,
    GaussianQU,
    ModelState,
    Partition,
    make_partition,
    merge_pairs,
    singleton_partition,
)
from blockgp.linalg import chol
from blockgp.training import stochastic_estimate
from blockgp.verify import small_instance


def _state(d=1, m=3, log_m_scale=None) -> ModelState:
    return ModelState(
        kernel=KernelParams(np.zeros(d), 0.0),
        noise=NoiseParam(np.log(0.1)),
        inducing=np.linspace(-1, 1, m * d).reshape(m, d),
        log_m_scale=log_m_scale,
    )


def test_partition_properties():
    part = Partition([np.array([0, 2]), np.array([1, 3, 4])])
    assert part.n == 5
    assert part.num_blocks == 2
    assert part.block_sizes == [2, 3]


def test_partition_rejects_gaps_overlaps_and_empties():
    cover = "must cover 0..n-1 exactly once"
    with pytest.raises(ValueError, match=cover):
        Partition([np.array([0, 1]), np.array([1, 2])])  # overlap
    with pytest.raises(ValueError, match=cover):
        Partition([np.array([0]), np.array([2])])  # gap
    with pytest.raises(ValueError, match="must be nonempty"):
        Partition([np.array([0, 1]), np.array([], dtype=int)])  # empty block
    with pytest.raises(ValueError, match="must be nonempty"):
        Partition([np.array([0, 1]), []])  # an empty list is a float array, still empty
    for bad in ([np.array([0.6, 1.7]), np.array([2.0])],  # would truncate to [0, 1], [2]
                [np.array([0, 1]), np.array([True])]):  # a mask, not indices
        with pytest.raises(ValueError, match="non-integer block indices"):
            Partition(bad)
    with pytest.raises(ValueError, match="at least one block"):
        Partition([])
    for bad in ([2, 1], [1, 1]):  # unsorted, duplicate, inside one block
        with pytest.raises(ValueError, match="sorted with unique indices"):
            Partition([np.array([0, 3]), np.array(bad), np.array([4])])
    Partition([np.array([3, 4]), np.array([0, 1, 2])])  # blocks themselves in any order


def test_make_partition_covers_and_balances():
    part = make_partition(5, 2, seed=0)
    assert sorted(part.block_sizes) == [2, 3]
    assert np.array_equal(np.sort(np.concatenate(part.blocks)), np.arange(5))
    again = make_partition(5, 2, seed=0)
    for a, b in zip(part.blocks, again.blocks):
        assert np.array_equal(a, b)
    other = make_partition(24, 6, seed=1)
    assert other.block_sizes == [4] * 6


def test_make_partition_bounds():
    with pytest.raises(ValueError):
        make_partition(4, 5)
    with pytest.raises(ValueError):
        make_partition(4, 0)
    assert make_partition(4, 1).num_blocks == 1


def test_singleton_partition():
    part = singleton_partition(4)
    assert part.num_blocks == 4
    assert part.block_sizes == [1] * 4


def test_merge_pairs_is_nested_coarsening():
    part = make_partition(11, 5, seed=3)
    coarse = merge_pairs(part)
    assert coarse.num_blocks == 3
    assert coarse.n == 11
    # every fine block lands inside exactly one coarse block
    for fine in part.blocks:
        hits = [
            np.isin(fine, big).all() for big in coarse.blocks
        ]
        assert sum(hits) == 1


# Each method's rules, written out from the bounds' definitions rather
# than read from METHODS: (alpha, blocks, stochastic, gap scale m).
# alpha is required or rejected; blocks are required, optional (power EP
# defaults to one point per block) or rejected; stochastic methods have a
# block-separable penalty; only T-PEP's state carries m.
SPEC_RULES = {
    "Exact": ("rejected", "rejected", False, False),
    "SGPR": ("rejected", "rejected", True, False),
    "T-SGPR": ("rejected", "rejected", True, False),
    "BT-SGPR": ("rejected", "required", True, False),
    "SharedBlock": ("rejected", "required", False, False),
    "Spherical": ("rejected", "rejected", False, False),
    "PEP": ("required", "optional", True, False),
    "T-PEP": ("required", "optional", True, True),
}


def test_the_rules_cover_every_method():
    assert list(SPEC_RULES) == list(METHODS)
    for name in ("NoSuchBound", "GeneralC-Oracle", "GeneralPEP-Oracle"):
        with pytest.raises(ValueError, match="unknown method"):
            BoundSpec(method=name)


@pytest.mark.parametrize("method", list(SPEC_RULES))
def test_bound_spec_rules(method):
    alpha, blocks, stochastic, gap_scale = SPEC_RULES[method]
    a = 0.5 if alpha == "required" else None
    nb = None if blocks == "rejected" else 3
    if alpha == "required":
        with pytest.raises(ValueError, match=f"{method} requires alpha"):
            BoundSpec(method=method, num_blocks=nb)
        for bad in (0.0, 1.5):
            with pytest.raises(ValueError, match="alpha must lie"):
                BoundSpec(method=method, alpha=bad, num_blocks=nb)
        BoundSpec(method=method, alpha=1.0, num_blocks=nb)
    else:
        with pytest.raises(ValueError, match=f"{method} does not take alpha"):
            BoundSpec(method=method, alpha=0.5, num_blocks=nb)
    if blocks == "rejected":
        with pytest.raises(ValueError, match=f"{method} does not take num_blocks"):
            BoundSpec(method=method, alpha=a, num_blocks=2)
        spec = BoundSpec(method=method, alpha=a)
    else:
        with pytest.raises(ValueError, match="at least 1"):
            BoundSpec(method=method, alpha=a, num_blocks=0)
        if blocks == "required":
            with pytest.raises(ValueError, match=f"{method} requires num_blocks"):
                BoundSpec(method=method, alpha=a)
        else:
            BoundSpec(method=method, alpha=a)
        spec = BoundSpec(method=method, alpha=a, num_blocks=4)

    # the single-block estimator and the command line's stochastic trainer
    # each take exactly the stochastic methods
    x, y, state = small_instance(np.random.default_rng(0))
    if gap_scale:
        state = state.with_(log_m_scale=np.log(1.3))
    part = make_partition(y.shape[0], 4, seed=0)
    m = state.num_inducing
    q = GaussianQU(mean=np.zeros(m), cov_chol=chol(np.eye(m)))
    if stochastic:
        assert np.isfinite(stochastic_estimate(x, y, state, part, q, 0, spec).value)
    else:
        with pytest.raises(ValueError, match=f"{method} has no block-separable estimator"):
            stochastic_estimate(x, y, state, part, q, 0, spec)
    cfg = dict(CONFIG_DEFAULTS, method=method, trainer="stochastic", optimizer="adam",
               blocks=4, alpha=0.5)
    if stochastic:
        assert _validate_config(cfg, compare=False) == [method]
    else:
        with pytest.raises(ConfigError, match="'method'"):
            _validate_config(cfg, compare=False)


def test_model_state_m_scale_property():
    assert _state().m_scale == 1.0
    assert_allclose(_state(log_m_scale=np.log(1.4)).m_scale, 1.4, rtol=1e-15)


def test_model_state_with_updates_one_field():
    state = _state(d=2, m=4)
    bumped = state.with_(log_m_scale=0.3)
    assert bumped.log_m_scale == 0.3
    assert bumped.kernel is state.kernel
    assert state.log_m_scale is None


def test_model_state_validates_inducing_shape():
    with pytest.raises(ValueError):
        ModelState(
            kernel=KernelParams(np.zeros(2), 0.0),
            noise=NoiseParam(0.0),
            inducing=np.zeros((3, 1)),  # wrong input dim
        )
    with pytest.raises(ValueError):
        ModelState(
            kernel=KernelParams(np.zeros(1), 0.0),
            noise=NoiseParam(0.0),
            inducing=np.zeros(3),  # not 2-d
        )


def test_gaussian_qu_shape_checks():
    factor = chol(np.eye(3))
    q = GaussianQU(mean=np.zeros(3), cov_chol=factor)
    assert q.dim == 3
    assert_allclose(q.cov, np.eye(3))
    with pytest.raises(ValueError):
        GaussianQU(mean=np.zeros(4), cov_chol=factor)
