"""Model state, data partitions, and bound selection.

A ModelState bundles everything the objectives need: kernel
hyperparameters, noise variance, inducing inputs, and (for the scaled
power-EP family) the scalar scale m on log scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import List, Optional

import numpy as np

from .kernels import QUIET, KernelParams, NoiseParam
from .linalg import CholeskyFactor

# Method names accepted everywhere (BoundSpec, CLI, reports).
VI_METHODS = ("SGPR", "T-SGPR", "BT-SGPR", "SharedBlock", "Spherical")
PEP_METHODS = ("PEP", "T-PEP", "GeneralPEP-Oracle")
ORACLE_METHODS = ("GeneralC-Oracle", "GeneralPEP-Oracle")
METHODS = ("Exact",) + VI_METHODS + ("PEP", "T-PEP") + ORACLE_METHODS

# Most matrix entries (B_s n_s^2) in one stack of equal-size blocks, so each
# (B_s, n_s, n_s) temporary of the batched block work stays near 0.5 MB;
# a block that fills a stack alone costs far more than the call around it.
STACK_ENTRIES = 2**16

# Methods whose objective carries a block partition.
BLOCK_METHODS = ("BT-SGPR", "SharedBlock", "PEP", "T-PEP", "GeneralPEP-Oracle")


@dataclass(frozen=True)
class ModelState:
    kernel: KernelParams
    noise: NoiseParam
    inducing: np.ndarray  # shape (M, D)
    log_m_scale: Optional[float] = None  # scalar scale for T-PEP, None elsewhere

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
    """Disjoint index blocks covering 0..n-1, each sorted and nonempty."""

    blocks: List[np.ndarray]

    def __post_init__(self):
        blocks = [np.asarray(b, dtype=int) for b in self.blocks]
        if not blocks:
            raise ValueError("a partition needs at least one block")
        for b in blocks:
            if b.size == 0:
                raise ValueError("partition blocks must be nonempty")
            if np.any(np.diff(b) <= 0):
                raise ValueError("partition blocks must be sorted with unique indices")
        flat = np.concatenate(blocks)
        n = flat.size
        if not np.array_equal(np.sort(flat), np.arange(n)):
            raise ValueError("partition blocks must cover 0..n-1 exactly once")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_sizes(self) -> List[int]:
        return [b.size for b in self.blocks]

    @cached_property
    def groups(self) -> List[np.ndarray]:
        """The blocks as (B_s, n_s) index stacks of equal-size blocks, sizes
        ascending, blocks in partition order; a stack holds one block or
        as many as fit in STACK_ENTRIES matrix entries."""
        out = []
        for s in sorted(set(self.block_sizes)):
            same = [b for b in self.blocks if b.size == s]
            per = max(1, STACK_ENTRIES // (s * s))
            out += [np.stack(same[i : i + per]) for i in range(0, len(same), per)]
        return out


def make_partition(n: int, num_blocks: int, seed: int = 0) -> Partition:
    """Random partition of 0..n-1 into num_blocks blocks of near-equal size."""
    if not 1 <= num_blocks <= n:
        raise ValueError(f"num_blocks must be in [1, {n}], got {num_blocks}")
    rng = np.random.default_rng(seed)
    pieces = np.array_split(rng.permutation(n), num_blocks)
    return Partition([np.sort(p) for p in pieces])


def singleton_partition(n: int) -> Partition:
    return Partition([np.array([i]) for i in range(n)])


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

    alpha is required for the power-EP family and rejected elsewhere;
    num_blocks is required for BT-SGPR and SharedBlock, optional
    (default: one point per block) for the power-EP family, and
    rejected for the rest.
    """

    method: str
    alpha: Optional[float] = None
    num_blocks: Optional[int] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {', '.join(METHODS)}"
            )
        needs_alpha = self.method in PEP_METHODS
        if needs_alpha and self.alpha is None:
            raise ValueError(f"method {self.method} requires alpha")
        if not needs_alpha and self.alpha is not None:
            raise ValueError(f"method {self.method} does not take alpha")
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.num_blocks is not None:
            if self.method not in BLOCK_METHODS:
                raise ValueError(f"method {self.method} does not take num_blocks")
            if self.num_blocks < 1:
                raise ValueError("num_blocks must be at least 1")
        elif self.method in ("BT-SGPR", "SharedBlock"):
            raise ValueError(f"method {self.method} requires num_blocks")

    @property
    def is_pep(self) -> bool:
        return self.method in PEP_METHODS

    @property
    def uses_partition(self) -> bool:
        return self.method in BLOCK_METHODS


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
