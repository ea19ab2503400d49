"""Model state, data partitions, and bound selection.

A ModelState bundles everything the objectives need: kernel
hyperparameters, noise variance, inducing inputs, and (for the scaled
power-EP family) the scalar scale m on log scale.  A Partition holds its
blocks and their block order; the pass (bounds_vi._chunks) stacks them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import List, Optional

import numpy as np

from .kernels import QUIET, KernelParams, NoiseParam
from .linalg import CholeskyFactor


@dataclass(frozen=True)
class Method:
    """One row of the method table.

    penalty: the gap penalty the collapsed bound charges on top of the
    Gaussian fit ("pep": power EP's block noise), None for Exact.
    partition: "required", "optional" (power EP defaults to one point per
    block) or "rejected".  alpha: the power is required, else rejected.
    stochastic: the penalty is block-separable, so fit_stochastic can
    cycle blocks.  gap_scale: the state carries the gap scale m.
    """

    penalty: Optional[str]
    partition: str
    alpha: bool
    stochastic: bool
    gap_scale: bool


# Every method name accepted anywhere, in the order error messages list them.
METHODS = {
    #                     penalty      partition   alpha  stoch. gap_m
    "Exact":       Method(None,        "rejected", False, False, False),
    "SGPR":        Method("trace",     "rejected", False, True,  False),
    "T-SGPR":      Method("diag",      "rejected", False, True,  False),
    "BT-SGPR":     Method("logdet",    "required", False, True,  False),
    "SharedBlock": Method("shared",    "required", False, False, False),
    "Spherical":   Method("spherical", "rejected", False, False, False),
    "PEP":         Method("pep",       "optional", True,  True,  False),
    "T-PEP":       Method("pep",       "optional", True,  True,  True),
}


def check_power(alpha: float, m: float = 1.0) -> None:
    """Raise unless the power alpha lies in (0, 1] and the gap scale m is
    finite and positive: the one rule for power EP's (alpha, m), under
    which 1 + alpha (m - 1) = (1 - alpha) + alpha m > 0."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 < m < np.inf:
        raise ValueError(f"the gap scale m must be finite and positive, got {m}")


@dataclass(frozen=True)
class ModelState:
    kernel: KernelParams
    noise: NoiseParam
    inducing: np.ndarray  # shape (M, D)
    log_m_scale: Optional[float] = None  # the gap scale m, for methods with gap_scale

    def __post_init__(self):
        z = np.asarray(self.inducing, dtype=float)
        if z.ndim != 2:
            raise ValueError(f"inducing inputs must be 2-d, got shape {z.shape}")
        if z.shape[1] != self.kernel.input_dim:
            raise ValueError(
                f"inducing inputs have {z.shape[1]} columns, kernel expects "
                f"{self.kernel.input_dim}"
            )
        object.__setattr__(self, "inducing", z)

    @property
    def num_inducing(self) -> int:
        return self.inducing.shape[0]

    @property
    def m_scale(self) -> float:
        if self.log_m_scale is None:
            return 1.0
        with np.errstate(**QUIET):
            value = float(np.exp(self.log_m_scale))
        if not 0.0 < value < np.inf:
            raise FloatingPointError(f"gap scale exp({self.log_m_scale!r}) is {value!r}")
        return value

    def with_(self, **kwargs) -> "ModelState":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Partition:
    """Disjoint integer index blocks covering 0..n-1, each sorted and nonempty."""

    blocks: List[np.ndarray]

    def __post_init__(self):
        blocks = [np.asarray(b) for b in self.blocks]
        if not blocks:
            raise ValueError("a partition needs at least one block")
        sizes = np.array([b.size for b in blocks])
        if not sizes.all():
            raise ValueError("partition blocks must be nonempty")
        if not all(np.issubdtype(t, np.integer) for t in {b.dtype for b in blocks}):
            raise ValueError("partition blocks hold non-integer block indices")
        blocks = [b.astype(int, copy=False) for b in blocks]
        flat = np.concatenate(blocks)  # all blocks checked at once
        rises = np.diff(flat) > 0
        rises[np.cumsum(sizes[:-1]) - 1] = True  # the steps from one block into the next
        if not rises.all():
            raise ValueError("partition blocks must be sorted with unique indices")
        if not np.array_equal(np.sort(flat), np.arange(flat.size)):
            raise ValueError("partition blocks must cover 0..n-1 exactly once")
        object.__setattr__(self, "blocks", blocks)
        # the checked sizes and indices, so n and order loop over no block
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_flat", flat)

    @property
    def n(self) -> int:
        return self._flat.size

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def check_covers(self, n: int) -> None:
        """Raise unless the partition covers the n points of the data."""
        if self.n != n:
            raise ValueError(f"partition covers {self.n} points but data has {n}")

    @property
    def block_sizes(self) -> List[int]:
        return self._sizes.tolist()

    @cached_property
    def order(self) -> np.ndarray:
        """The points block by block, sizes ascending and blocks in
        partition order within a size: the order the bounds that read
        blocks take the points in, so that every run of equal-size blocks
        is a range of them."""
        return self._flat[np.argsort(np.repeat(self._sizes, self._sizes), kind="stable")]


def make_partition(n: int, num_blocks: int, seed: int = 0) -> Partition:
    """Random partition of 0..n-1 into num_blocks blocks of near-equal size."""
    if not 1 <= num_blocks <= n:
        raise ValueError(f"num_blocks must be in [1, {n}], got {num_blocks}")
    rng = np.random.default_rng(seed)
    pieces = np.array_split(rng.permutation(n), num_blocks)
    return Partition([np.sort(p) for p in pieces])


def singleton_partition(n: int) -> Partition:
    """One block per point, each block a view of one arange."""
    return Partition(list(np.arange(n)[:, None]))


def merge_pairs(partition: Partition) -> Partition:
    """Coarsen a partition by merging consecutive pairs of blocks.

    The result is nested in the input, which is what makes the
    coarser-partition bound provably no tighter than the finer one.
    """
    blocks = partition.blocks
    merged = []
    for i in range(0, len(blocks), 2):
        group = blocks[i : i + 2]
        merged.append(np.sort(np.concatenate(group)))
    return Partition(merged)


@dataclass(frozen=True)
class BoundSpec:
    """Which objective to evaluate, plus its structural knobs.

    The method's row in METHODS says which knobs it takes: alpha is
    required where the row's alpha is set and rejected elsewhere, and
    num_blocks is required, optional or rejected as its partition says.
    """

    method: str
    alpha: Optional[float] = None
    num_blocks: Optional[int] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {', '.join(METHODS)}"
            )
        row = self.row
        if row.alpha and self.alpha is None:
            raise ValueError(f"method {self.method} requires alpha")
        if not row.alpha and self.alpha is not None:
            raise ValueError(f"method {self.method} does not take alpha")
        if self.alpha is not None:
            check_power(self.alpha)
        if self.num_blocks is not None:
            if row.partition == "rejected":
                raise ValueError(f"method {self.method} does not take num_blocks")
            if self.num_blocks < 1:
                raise ValueError("num_blocks must be at least 1")
        elif row.partition == "required":
            raise ValueError(f"method {self.method} requires num_blocks")

    @property
    def row(self) -> Method:
        return METHODS[self.method]

    def check_state(self, state: ModelState) -> None:
        """Raise unless state carries the gap scale m exactly where the
        method has one, so no method silently ignores m or trains it."""
        if self.row.gap_scale != (state.log_m_scale is not None):
            needs = "needs" if self.row.gap_scale else "does not take"
            raise ValueError(f"method {self.method} {needs} a state with the gap scale m")


@dataclass(frozen=True)
class GaussianQU:
    """Free-form Gaussian over the inducing values, q(u) = N(mean, S)."""

    mean: np.ndarray
    cov_chol: CholeskyFactor

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        if mean.shape[0] != self.cov_chol.size:
            raise ValueError("q(u) mean and covariance factor sizes disagree")
        object.__setattr__(self, "mean", mean)

    @property
    def cov(self) -> np.ndarray:
        l = self.cov_chol.lower
        return l @ l.T

    @property
    def dim(self) -> int:
        return self.mean.shape[0]
