"""Block-stochastic training of the uncollapsed per-block objective.

The uncollapsed objective keeps q(u) explicit so it splits into one
term per block.  Visiting a single random block gives an unbiased
estimate of the whole objective, which is what makes cheap cycling
updates possible.  This script first demonstrates the unbiasedness as
an exact average, then trains hyperparameters and q(u) jointly with
block-cycling Adam and compares the result to the collapsed optimum.
"""

import numpy as np

from blockgp import (
    BoundSpec,
    GaussianQU,
    TrainConfig,
    btsgpr_collapsed,
    fit_stochastic,
    initial_state,
    kernel_matrix,
    make_partition,
    standardize,
    synthetic_1d,
    vi_stochastic,
    vi_uncollapsed,
)
from blockgp.bounds_vi import optimal_qu
from blockgp.linalg import chol

rng = np.random.default_rng(31)

train = standardize(synthetic_1d(120, seed=2, noise_std=0.3))
x, y = train.x, train.y
state0 = initial_state(train, num_inducing=6, seed=0)
part = make_partition(train.n, 8, seed=0)

# ---------------------------------------------------------------------------
# 1. Unbiasedness is exact, not asymptotic: the block estimates average
#    to the full uncollapsed objective bit for bit (up to rounding).

q0 = optimal_qu(x, y, state0)
full = vi_uncollapsed(x, y, state0, part, q0, penalty="logdet").total
estimates = np.array([
    vi_stochastic(x, y, state0, part, q0, b, penalty="logdet")
    for b in range(part.num_blocks)
])
print("single-block estimates of the full objective:")
for b, est in enumerate(estimates):
    print(f"  block {b}: {est:12.4f}")
print(f"average {estimates.mean():.10f} vs full objective {full:.10f} "
      f"(difference {abs(estimates.mean() - full):.2e})")

# ---------------------------------------------------------------------------
# 2. Train on block visits.  One epoch = one shuffled pass over the
#    blocks, one Adam step per visit; q(u) rides along with the
#    hyperparameters in the same parameter vector.

spec = BoundSpec(method="BT-SGPR", num_blocks=8)
cfg = TrainConfig(
    objective=spec,
    optimizer="adam",
    learning_rate=0.02,
    epochs=150,
    seed=0,
    gradient_mode="analytic",  # closed-form gradients in every coordinate
)
state, q, trace = fit_stochastic(x, y, state0, part, cfg)

# Training starts q(u) at the prior, so measure the climb from there.
prior_q = GaussianQU(
    mean=np.zeros(state0.num_inducing),
    cov_chol=chol(kernel_matrix(state0.inducing, state0.inducing, state0.kernel)),
)
start = vi_uncollapsed(x, y, state0, part, prior_q, penalty="logdet").total
after = vi_uncollapsed(x, y, state, part, q, penalty="logdet").total
print(f"\ntrained for {cfg.epochs} epochs x {part.num_blocks} blocks "
      f"= {len(trace)} Adam steps")
print(f"uncollapsed objective {start:10.3f} -> {after:10.3f}")
print(f"noise variance        {state0.noise.noise_variance:10.4f} -> "
      f"{state.noise.noise_variance:10.4f}")

# The trace logs the noisy per-visit estimates; smooth them per epoch
# to see the climb.
per_epoch = np.asarray(trace.objective).reshape(cfg.epochs, part.num_blocks).mean(axis=1)
for e in (0, 9, 49, 99, 149):
    print(f"  epoch {e + 1:3d}: mean block estimate {per_epoch[e]:10.3f}")

# ---------------------------------------------------------------------------
# 3. How close did cheap block updates get to the collapsed optimum?
#    The collapsed bound at the trained hyperparameters is the best any
#    q(u) could do there, so the remaining gap is the q(u) slack.

ceiling = btsgpr_collapsed(x, y, state, part).total
print(f"\ncollapsed bound at the trained hyperparameters {ceiling:.3f}")
print(f"stochastic fit reached {after:.3f} (q(u) slack {ceiling - after:.4f})")
