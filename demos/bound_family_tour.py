"""Tour of the collapsed bound family on one small problem.

Every bound in the family replaces the conditional posterior
covariance with a scaled copy of the prior conditional gap; the
structure allowed in that scaling decides how tight the bound is.
This script builds one random regression instance and walks the whole
ladder, then opens up the machinery behind two of the rungs.
"""

import numpy as np

from blockgp import (
    KernelParams,
    ModelState,
    NoiseParam,
    btsgpr_collapsed,
    btsgpr_optimal_scales,
    exact_lml,
    kernel_matrix,
    make_partition,
    merge_pairs,
    optimal_qu,
    sgpr_collapsed,
    sharedblock_collapsed,
    spherical_collapsed,
    spherical_optimal_scale,
    tsgpr_collapsed,
    tsgpr_optimal_scales,
    vi_uncollapsed,
)
from blockgp.bounds_vi import prepare
from blockgp.linalg import chol
from blockgp.oracles import btsgpr_parametric, general_c_optimum, general_c_oracle

rng = np.random.default_rng(7)

# One modest 2-D instance: targets drawn from the model's own prior so
# the hyperparameters are neither absurdly right nor absurdly wrong.
n, m = 48, 6
x = rng.uniform(-2.0, 2.0, (n, 2))
kernel = KernelParams(
    log_lengthscales=np.log([0.9, 1.3]), log_signal_variance=np.log(1.5)
)
noise = NoiseParam(log_noise_variance=np.log(0.05))
f = chol(kernel_matrix(x, x, kernel)).lower @ rng.standard_normal(n)
y = f + np.sqrt(noise.noise_variance) * rng.standard_normal(n)
state = ModelState(kernel=kernel, noise=noise, inducing=x[rng.choice(n, m, replace=False)])

part8 = make_partition(n, 8, seed=0)
part4 = merge_pairs(part8)  # pairwise merge, so part4 coarsens part8

# ---------------------------------------------------------------------------
# 1. The ladder.  Scalar scale < per-point scales < per-block scales,
#    and coarser blocks absorb more of the conditional gap.

rungs = [
    ("trace (no scaling freedom)", sgpr_collapsed(x, y, state)),
    ("spherical (one scalar)", spherical_collapsed(x, y, state)),
    ("per-point scales", tsgpr_collapsed(x, y, state)),
    ("per-block, 8 blocks", btsgpr_collapsed(x, y, state, part8)),
    ("per-block, 4 blocks", btsgpr_collapsed(x, y, state, part4)),
    ("exact log marginal", exact_lml(x, y, state)),
]
print("bound ladder (each value carries fit + regularizer):")
prev = -np.inf
for name, bd in rungs:
    print(f"  {name:28s} total {bd.total:12.4f}   regularizer {bd.regularizer:10.4f}")
    assert bd.total >= prev - 1e-9
    prev = bd.total
shared = sharedblock_collapsed(x, y, state, part8)
print(f"  {'shared scale across blocks':28s} total {shared.total:12.4f}   (sits below the per-block rung)")

# ---------------------------------------------------------------------------
# 2. What the optimizing scales look like.  Per-point scales live in
#    (0, 1]; the spherical bound compresses them to their harmonic-ish
#    scalar; per-block scales are whole matrices.

scales = tsgpr_optimal_scales(x, y, state)
print("\nper-point optimal scales: "
      f"min {scales.min():.4f}, max {scales.max():.4f}, mean {scales.mean():.4f}")
print(f"spherical optimal scalar: {spherical_optimal_scale(x, y, state):.4f}")
block_scales = btsgpr_optimal_scales(x, y, state, part8)
evals = np.concatenate([np.linalg.eigvalsh(s) for s in block_scales])
print(f"per-block scale eigenvalues stay in (0, 1]: min {evals.min():.4f}, max {evals.max():.4f}")

# Nudging the block scales off their optimum can only lose nats.
nudged = [s + 0.01 * np.eye(s.shape[0]) for s in block_scales]
at_opt = btsgpr_parametric(x, y, state, part8, block_scales).total
off_opt = btsgpr_parametric(x, y, state, part8, nudged).total
print(f"parametric value at optimum {at_opt:.6f} vs nudged {off_opt:.6f} (drop {at_opt - off_opt:.2e})")

# ---------------------------------------------------------------------------
# 3. Full-matrix scaling oracle.  Allowing one dense PSD scaling over
#    all points is exactly the single-block bound, and random scalings
#    never beat the closed-form optimum.

whole = make_partition(n, 1, seed=0)
c_star = general_c_optimum(x, y, state)
best = general_c_oracle(x, y, state, c_star).total
single_block = btsgpr_collapsed(x, y, state, whole).total
print(f"\ndense-scaling optimum {best:.6f} == single-block bound {single_block:.6f}")
# Walk the segment from the optimum toward the unscaled gap (the
# scaling that recovers the trace bound): every step costs nats.
gap = prepare(x, y, state).block_gap(np.arange(n))
for t in (0.25, 0.5, 0.75):
    probe = general_c_oracle(x, y, state, (1.0 - t) * c_star + t * gap).total
    print(f"  blend t={t:4.2f} toward unscaled gap {probe:12.4f}  (<= optimum by {best - probe:9.4f})")

# ---------------------------------------------------------------------------
# 4. Collapse identity.  The collapsed value is the uncollapsed
#    objective evaluated at its own closed-form optimal q(u).

q_star = optimal_qu(x, y, state)
unc = vi_uncollapsed(x, y, state, part8, q_star, penalty="logdet")
col = btsgpr_collapsed(x, y, state, part8)
print(f"\nuncollapsed at optimal q(u) {unc.total:.10f}")
print(f"collapsed closed form       {col.total:.10f}")
print(f"agreement to {abs(unc.total - col.total):.2e}")
