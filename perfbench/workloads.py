"""The benchmark's workloads and the seeded synthetic data they run on.

Each workload is sized so that one planned optimisation does most of
its work there and little elsewhere; README.md gives the reasons and
the expected movements.  The target function and the training inputs
are fixed (they come from a constant generator), as is the
inducing-point start, so the set-up does the same work whatever the
seed: drawn per seed, the inputs made k-means run 18 to 91 iterations.
The run's --seed draws the training noise, the held-out set and the
partition.  The quality metrics are read on one more instance, drawn
from QUALITY_SEED, so they do not vary with --seed at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Seed of the fixed target function, shared by every run and workload.
FUNCTION_SEED = 20250702
# Random features in the target, and the raw noise standard deviation.
# The target's own standard deviation is about 0.87, so after
# standardisation the noise is about 0.58 of it: the quality metrics stay
# well above 0.
FEATURES = 8
NOISE_STD = 0.5
# Seed of the instance the quality metrics are read on, whatever --seed is.
QUALITY_SEED = 0
# Seed of initial_state (k-means++ start and lengthscale heuristic).
INIT_SEED = 0
LEARNING_RATE = 0.05  # Adam step size of the stochastic workload
N_TEST = 5000  # held-out points


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    dim: int
    num_inducing: int
    method: str  # "BT-SGPR" or "T-PEP"
    trainer: str  # "collapsed" (L-BFGS) or "stochastic" (Adam)
    epochs: int  # L-BFGS iterations or stochastic epochs
    num_blocks: Optional[int] = None  # equal blocks; None means sizes 3 or 4
    alpha: Optional[float] = None
    predict_reps: int = 1  # posterior + predict repeats in one predict phase
    setup_reps: int = 1  # set-ups timed together as one block in each round


WORKLOADS = {
    w.name: w
    for w in (
        Workload("btsgpr-lbfgs", n=2000, dim=4, num_inducing=32, method="BT-SGPR",
                 trainer="collapsed", epochs=1, num_blocks=50, predict_reps=200,
                 setup_reps=7),
        Workload("tpep-fine-blocks", n=1000, dim=2, num_inducing=8, method="T-PEP",
                 trainer="collapsed", epochs=1, alpha=0.5, predict_reps=45,
                 setup_reps=6),
        Workload("btsgpr-minibatch", n=6000, dim=2, num_inducing=8, method="BT-SGPR",
                 trainer="stochastic", epochs=1, num_blocks=30, predict_reps=600,
                 setup_reps=3),
    )
}


def target(x: np.ndarray) -> np.ndarray:
    """Noise-free target: a sum of fixed random sine features."""
    w = np.random.default_rng((FUNCTION_SEED, x.shape[1])).standard_normal(
        (x.shape[1], FEATURES)
    )
    return np.sin(x @ w).sum(axis=1) / np.sqrt(FEATURES)


def make_data(wl: Workload, seed: int):
    """Raw (unstandardised) train and test arrays for one seed.

    The training inputs come from a constant generator; the seed draws the
    training noise and the held-out set.
    """
    x = np.random.default_rng((FUNCTION_SEED, wl.n, wl.dim)).uniform(
        -2.0, 2.0, size=(wl.n, wl.dim))
    rng = np.random.default_rng((seed, wl.n, wl.dim))
    y = target(x) + NOISE_STD * rng.standard_normal(wl.n)
    xt = rng.uniform(-2.0, 2.0, size=(N_TEST, wl.dim))
    yt = target(xt) + NOISE_STD * rng.standard_normal(N_TEST)
    return x, y, xt, yt


def unequal_blocks(n: int, seed: int):
    """A seeded partition of 0..n-1 into blocks of 3 and 4 points.

    The number of blocks of each size depends on n alone, so every seed
    does the same work; the seed picks which points share a block.
    """
    # n - 4 * fours must be a multiple of 3, so fours = n (mod 3); about
    # half of the blocks hold four points.
    fours = n // 7 - (n // 7 - n) % 3
    threes = (n - 4 * fours) // 3
    if threes < 0 or 3 * threes + 4 * fours != n:
        raise ValueError(f"cannot split {n} points into blocks of 3 and 4")
    rng = np.random.default_rng((seed, n, 34))
    sizes = rng.permutation([3] * threes + [4] * fours)
    perm = rng.permutation(n)
    return [np.sort(p) for p in np.split(perm, np.cumsum(sizes)[:-1])]
