"""Named, seeded invariant suites behind the verify command.

Each check re-derives one of the library's mathematical claims on fresh
random instances: the tightness ordering of the bound family, the
collapsed/uncollapsed identities, the limit relations of the power-EP
objectives, the site fixed point, stochastic-estimator unbiasedness,
optimality of the closed-form scale matrices against a dense oracle,
and analytic-versus-difference gradient agreement.

The CLI runs the suites at "small" scale (seconds); the acceptance
tests run "full".  A failed check never aborts the run: the report
carries one pass/fail row per check.  tamper_bias exists so the
harness can prove to itself that a corrupted bound value actually
turns a row red.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .bounds_pep import (
    PepConfig,
    tpep_collapsed,
    tpep_optimal_qu,
    tpep_qu_gradient,
    tpep_uncollapsed,
)
from .bounds_vi import (
    btsgpr_optimal_scales,
    prepare,
    spherical_optimal_scale,
    uncollapsed_qu_gradient,
    vi_stochastic,
    vi_uncollapsed,
)
from .kernels import KernelParams, NoiseParam, kernel_diag, kernel_matrix
from .linalg import CholeskyFactor, chol
from .model import (
    METHODS,
    BoundSpec,
    GaussianQU,
    ModelState,
    Partition,
    make_partition,
)
from .oracles import (
    dense_fit,
    general_c_optimum,
    general_c_oracle,
    general_pep_oracle,
    pep_iterate,
    verify_site_fixed_point,
)
from .training import (
    ParameterPack,
    evaluate_bound,
    finite_difference_gradient,
    qu_optimum,
    stochastic_estimate,
    uncollapsed_bound,
)

# Tolerances, one name per claim.
ORDERING_SLACK = 1e-9
COLLAPSE_RTOL = 1e-8
LIMIT_ATOL = 1e-4
FITC_RTOL = 1e-8
M_ONE_RTOL = 1e-10
FIXED_POINT_RTOL = 1e-7
ITERATE_RTOL = 1e-6
UNBIASED_RTOL = 1e-10
OPTIMALITY_TOL = 1e-7
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-6


class CheckFailure(AssertionError):
    """An invariant suite found a violated claim."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    runtime: float


@dataclass(frozen=True)
class CheckContext:
    scale: str = "small"
    seed: int = 0
    tamper_bias: float = 0.0

    def __post_init__(self):
        if self.scale not in ("small", "full"):
            raise ValueError(f"scale must be 'small' or 'full', got {self.scale!r}")

    def count(self, small: int, full: int) -> int:
        return small if self.scale == "small" else full


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Instance generators


def _sample_targets(rng, x: np.ndarray, state: ModelState) -> np.ndarray:
    lf = chol(kernel_matrix(x, x, state.kernel))
    f = lf.lower @ rng.standard_normal(x.shape[0])
    return f + np.sqrt(state.noise.noise_variance) * rng.standard_normal(x.shape[0])


def random_instance(rng) -> Tuple[np.ndarray, np.ndarray, ModelState]:
    """Unconditioned instance: N in [20,60], D in [1,4], M in [2,8]."""
    n = int(rng.integers(20, 61))
    d = int(rng.integers(1, 5))
    m = int(rng.integers(2, 9))
    x = rng.uniform(-2.0, 2.0, (n, d))
    z = rng.uniform(-2.0, 2.0, (m, d))
    kernel = KernelParams(
        log_lengthscales=rng.uniform(-0.3, 0.8, d),
        log_signal_variance=float(rng.uniform(-0.5, 0.5)),
    )
    noise = NoiseParam(log_noise_variance=float(rng.uniform(np.log(0.05), np.log(0.5))))
    state = ModelState(kernel=kernel, noise=noise, inducing=z)
    return x, _sample_targets(rng, x, state), state


def small_instance(rng) -> Tuple[np.ndarray, np.ndarray, ModelState]:
    """Cheaper variant for difference-gradient loops: N in [20,40], M in [2,6]."""
    n = int(rng.integers(20, 41))
    d = int(rng.integers(1, 3))
    m = int(rng.integers(2, 7))
    x = rng.uniform(-2.0, 2.0, (n, d))
    z = rng.uniform(-2.0, 2.0, (m, d))
    kernel = KernelParams(
        log_lengthscales=rng.uniform(-0.2, 0.6, d),
        log_signal_variance=float(rng.uniform(-0.4, 0.4)),
    )
    noise = NoiseParam(log_noise_variance=float(rng.uniform(np.log(0.1), np.log(0.5))))
    state = ModelState(kernel=kernel, noise=noise, inducing=z)
    return x, _sample_targets(rng, x, state), state


def gentle_instance(rng) -> Tuple[np.ndarray, np.ndarray, ModelState]:
    """Instance with a small conditional gap relative to the noise.

    The alpha -> 0 comparisons hold up to O(alpha * sum (d_nn/sigma2)^2)
    terms, so the 1e-4 window at alpha = 1e-6 needs d_nn / sigma2 kept
    around one: inducing points sit on half the inputs and the noise
    floor is 0.3.
    """
    for _ in range(60):
        n = int(rng.integers(20, 41))
        d = int(rng.integers(1, 3))
        m = max(2, n // 2)
        x = rng.uniform(-2.0, 2.0, (n, d))
        idx = rng.choice(n, m, replace=False)
        z = x[idx] + 0.05 * rng.standard_normal((m, d))
        kernel = KernelParams(
            log_lengthscales=rng.uniform(0.0, 0.5, d),
            log_signal_variance=float(rng.uniform(-0.3, 0.3)),
        )
        noise = NoiseParam(
            log_noise_variance=float(rng.uniform(np.log(0.3), np.log(0.8)))
        )
        state = ModelState(kernel=kernel, noise=noise, inducing=z)
        prep = prepare(x, np.zeros(n), state)
        ratio = prep.gap_diag / prep.sigma2
        if ratio.mean() <= 0.5 and ratio.max() <= 2.0:
            return x, _sample_targets(rng, x, state), state
    raise RuntimeError("could not draw a small-gap instance")


def spread_instance(rng) -> Tuple[np.ndarray, np.ndarray, ModelState]:
    """Instance whose dense conditional gap is comfortably nonsingular.

    The dense C oracle inverts D = Kff - Q, so inputs come from a
    jittered grid (bounded correlation between neighbours) and draws
    are rejected until D's smallest eigenvalue clears a floor.
    """
    for _ in range(60):
        n = int(rng.integers(14, 25))
        d = int(rng.integers(1, 3))
        m = int(rng.integers(2, 5))
        side = int(np.ceil(n ** (1.0 / d)))
        grid = np.stack(
            np.meshgrid(*[np.linspace(-3.0, 3.0, side)] * d), axis=-1
        ).reshape(-1, d)
        x = grid[rng.choice(grid.shape[0], n, replace=False)]
        x = x + 0.08 * rng.standard_normal(x.shape)
        z = rng.uniform(-3.0, 3.0, (m, d))
        kernel = KernelParams(
            log_lengthscales=rng.uniform(-0.7, -0.2, d),
            log_signal_variance=float(rng.uniform(-0.3, 0.3)),
        )
        noise = NoiseParam(
            log_noise_variance=float(rng.uniform(np.log(0.1), np.log(0.5)))
        )
        state = ModelState(kernel=kernel, noise=noise, inducing=z)
        prep = prepare(x, np.zeros(n), state)
        dmat = prep.block_gap(np.arange(n))
        min_eig = float(np.linalg.eigvalsh(dmat).min())
        if min_eig >= 1e-5 * state.kernel.signal_variance:
            return x, _sample_targets(rng, x, state), state
    raise RuntimeError("could not draw a well-conditioned dense instance")


def equal_blocks(rng, n: int) -> Partition:
    """Random equal-size partition with fewer than n blocks."""
    divisors = [b for b in range(1, n) if n % b == 0]
    num = int(rng.choice(divisors))
    return make_partition(n, num, seed=int(rng.integers(2**31)))


def random_blocks(rng, n: int) -> Partition:
    """Random partition with at least one block of two or more points."""
    num = int(rng.integers(1, max(2, n // 2 + 1)))
    return make_partition(n, num, seed=int(rng.integers(2**31)))


def random_qu(rng, m: int) -> GaussianQU:
    lower = np.tril(0.3 * rng.standard_normal((m, m)), k=-1)
    diag = np.arange(m)
    lower[diag, diag] = np.exp(rng.uniform(-0.7, 0.3, m))
    return GaussianQU(
        mean=rng.standard_normal(m),
        cov_chol=CholeskyFactor(lower=lower, jitter_used=0.0),
    )


# ---------------------------------------------------------------------------
# Checks (one per claim; numbered comments give the claim in words)


def check_ordering_chain(ctx: CheckContext) -> str:
    """Coarser scaling never loosens: trace <= spherical <= per-point
    <= per-block <= exact, and the shared-scale bound sits under the
    per-block one on the same blocks."""
    rng = np.random.default_rng((ctx.seed, 1))
    count = ctx.count(20, 200)
    worst = np.inf
    chain = ("SGPR", "Spherical", "T-SGPR", "BT-SGPR", "Exact")
    for k in range(count):
        x, y, state = random_instance(rng)
        part = equal_blocks(rng, y.shape[0])
        vals = [_value(x, y, state, _spec(name, part), part) for name in chain]
        vals[0] += ctx.tamper_bias
        for lo, hi in zip(range(4), range(1, 5)):
            gap = vals[hi] - vals[lo]
            worst = min(worst, gap)
            if gap < -ORDERING_SLACK:
                raise CheckFailure(
                    f"instance {k}: {chain[lo]} bound exceeds {chain[hi]} "
                    f"by {-gap:.3e}"
                )
        shared = _value(x, y, state, _spec("SharedBlock", part), part)
        gap = vals[3] - shared
        worst = min(worst, gap)
        if gap < -ORDERING_SLACK:
            raise CheckFailure(
                f"instance {k}: shared-scale bound exceeds per-block by {-gap:.3e}"
            )
    return f"{count} instances, worst gap {worst:.3e}"


def check_collapse_identities(ctx: CheckContext) -> str:
    """At the closed-form optimal q(u), every uncollapsed objective
    equals its collapsed form."""
    rng = np.random.default_rng((ctx.seed, 2))
    count = ctx.count(8, 50)
    alphas = (0.25, 0.5, 1.0)
    ms = (0.5, 1.5)
    trainable = [name for name, row in METHODS.items() if row.penalty is not None]
    worst = 0.0
    for k in range(count):
        x, y, state = random_instance(rng)
        n = y.shape[0]
        part = random_blocks(rng, n)
        eq_part = equal_blocks(rng, n)
        for name in trainable:
            p = eq_part if name == "SharedBlock" else part
            spec = _spec(name, p, alphas[k % 3])
            st = _fitting(spec, state, ms[k % 2])
            un = uncollapsed_bound(x, y, st, spec, qu_optimum(x, y, st, spec, p), p)
            dev = _rel(un.total, evaluate_bound(x, y, st, spec, p).total)
            worst = max(worst, dev)
            if dev > COLLAPSE_RTOL:
                raise CheckFailure(
                    f"instance {k}: {name} uncollapsed at optimal q off its collapsed "
                    f"value by {dev:.3e} relative (alpha={spec.alpha}, m={st.m_scale})"
                )
    return f"{count} instances x {len(trainable)} identities, worst rel dev {worst:.3e}"


def check_limit_lattice(ctx: CheckContext) -> str:
    """Power-EP limits: alpha -> 0 lands on the variational family
    (trace / spherical / per-block), alpha = 1 with singleton blocks is
    the dense FITC marginal, and m = 1 collapses the scaled objective
    onto the plain one."""
    rng = np.random.default_rng((ctx.seed, 3))
    count = ctx.count(5, 20)
    tiny = 1e-6
    worst_abs = 0.0
    worst_rel = 0.0
    for k in range(count):
        x, y, state = gentle_instance(rng)
        n = y.shape[0]
        part = random_blocks(rng, n)

        # power EP without num_blocks puts one point in each block
        sgpr = _value(x, y, state, BoundSpec("SGPR"))
        dev = abs(_value(x, y, state, BoundSpec("PEP", tiny)) - sgpr)
        worst_abs = max(worst_abs, dev)
        if dev > LIMIT_ATOL:
            raise CheckFailure(
                f"instance {k}: alpha->0 power EP is {dev:.3e} from the trace bound"
            )

        m_star = spherical_optimal_scale(x, y, state)
        dev = abs(
            _value(x, y, state, BoundSpec("T-PEP", tiny), m=m_star)
            - _value(x, y, state, BoundSpec("Spherical"))
        )
        worst_abs = max(worst_abs, dev)
        if dev > LIMIT_ATOL:
            raise CheckFailure(
                f"instance {k}: alpha->0 scaled power EP at the optimal scalar "
                f"is {dev:.3e} from the spherical bound"
            )

        scales = btsgpr_optimal_scales(x, y, state, part)
        dev = abs(
            general_pep_oracle(x, y, state, tiny, part, scales).total
            - _value(x, y, state, _spec("BT-SGPR", part), part)
        )
        worst_abs = max(worst_abs, dev)
        if dev > LIMIT_ATOL:
            raise CheckFailure(
                f"instance {k}: alpha->0 oracle at the optimal block scales "
                f"is {dev:.3e} from the per-block bound"
            )

        # FITC: Q + diag(Kff - Q) + sigma2 I
        prep = prepare(x, y, state)
        fitc_noise = kernel_diag(x, state.kernel) + prep.sigma2 - np.sum(prep.v * prep.v, axis=0)
        fitc = dense_fit(prep, np.diag(fitc_noise))[0]
        dev = _rel(_value(x, y, state, BoundSpec("PEP", 1.0)), fitc)
        worst_rel = max(worst_rel, dev)
        if dev > FITC_RTOL:
            raise CheckFailure(
                f"instance {k}: alpha=1 singleton power EP off the dense FITC "
                f"marginal by {dev:.3e} relative"
            )

        alpha = float(rng.uniform(0.2, 1.0))
        dev = _rel(
            _value(x, y, state, _spec("T-PEP", part, alpha), part, m=1.0),
            _value(x, y, state, _spec("PEP", part, alpha), part),
        )
        worst_rel = max(worst_rel, dev)
        if dev > M_ONE_RTOL:
            raise CheckFailure(
                f"instance {k}: m=1 scaled objective off the plain one by "
                f"{dev:.3e} relative at alpha={alpha:.3f}"
            )
    return (
        f"{count} instances, worst limit dev {worst_abs:.3e} abs / "
        f"{worst_rel:.3e} rel"
    )


def check_pep_fixed_point(ctx: CheckContext) -> str:
    """The claimed site fixed point survives a dense recomputation, and
    the cavity energy and q(u) assembled from the closed-form sites
    match the collapsed objective and its optimal q(u)."""
    rng = np.random.default_rng((ctx.seed, 4))
    count = ctx.count(9, 50)
    alphas = (0.25, 0.5, 1.0)
    ms = (0.5, 1.0, 1.5)
    worst = 0.0
    for k in range(count):
        x, y, state = random_instance(rng)
        part = random_blocks(rng, y.shape[0])
        cfg = PepConfig(
            alpha=alphas[k % 3],
            partition=part,
            m_scale=ms[(k // 3) % 3],
        )
        report = verify_site_fixed_point(x, y, state, cfg, rtol=FIXED_POINT_RTOL)
        worst = max(worst, report.max_rel_deviation)

        res = pep_iterate(x, y, state, cfg)
        q_star = tpep_optimal_qu(x, y, state, cfg)
        mean_dev = float(
            np.abs(res.qu.mean - q_star.mean).max()
            / max(np.abs(q_star.mean).max(), 1e-12)
        )
        cov_dev = float(
            np.abs(res.qu.cov - q_star.cov).max() / max(np.abs(q_star.cov).max(), 1e-12)
        )
        energy_dev = _rel(res.energy, tpep_collapsed(x, y, state, cfg).total)
        dev = max(mean_dev, cov_dev, energy_dev)
        worst = max(worst, dev)
        if dev > ITERATE_RTOL:
            raise CheckFailure(
                f"instance {k}: closed-form sites' energy and q(u) off the collapsed "
                f"solution by {dev:.3e} relative (mean {mean_dev:.1e}, "
                f"cov {cov_dev:.1e}, energy {energy_dev:.1e})"
            )
    return f"{count} instances over the alpha/m grid, worst rel dev {worst:.3e}"


def check_stochastic_unbiasedness(ctx: CheckContext) -> str:
    """Averaging the single-block estimator over all blocks reproduces
    the full uncollapsed objective."""
    rng = np.random.default_rng((ctx.seed, 5))
    count = ctx.count(10, 50)
    worst = 0.0
    for k in range(count):
        x, y, state = random_instance(rng)
        n = y.shape[0]
        part = random_blocks(rng, n)
        q = random_qu(rng, state.num_inducing)
        specs = _specs(lambda row: row.stochastic, part, alpha=0.5)
        for spec in specs:
            st = _fitting(spec, state, 1.2)
            full = uncollapsed_bound(x, y, st, spec, q, part).total
            mean_est = (
                sum(
                    stochastic_estimate(x, y, st, part, q, b, spec).value
                    for b in range(part.num_blocks)
                )
                / part.num_blocks
            )
            dev = _rel(mean_est, full)
            worst = max(worst, dev)
            if dev > UNBIASED_RTOL:
                raise CheckFailure(
                    f"instance {k}: {spec.method} estimator mean off the full bound "
                    f"by {dev:.3e} relative"
                )
    return f"{count} instances x {len(specs)} estimators, worst rel dev {worst:.3e}"


def check_general_scale_optimality(ctx: CheckContext) -> str:
    """The dense bound over arbitrary PSD scalings never beats the
    closed-form optimum, and meets it exactly at the optimum."""
    rng = np.random.default_rng((ctx.seed, 6))
    instances = ctx.count(3, 10)
    probes = ctx.count(20, 100)
    worst_eq = 0.0
    worst_gap = np.inf
    for k in range(instances):
        x, y, state = spread_instance(rng)
        n = y.shape[0]
        whole = make_partition(n, 1)
        best = _value(x, y, state, _spec("BT-SGPR", whole), whole)
        c_star = general_c_optimum(x, y, state)
        at_star = general_c_oracle(x, y, state, c_star).total
        dev = _rel(at_star, best)
        worst_eq = max(worst_eq, dev)
        if dev > OPTIMALITY_TOL:
            raise CheckFailure(
                f"instance {k}: oracle at the optimal scaling off the "
                f"per-block bound by {dev:.3e} relative"
            )
        scale = max(1.0, abs(best))
        tr_star = float(np.trace(c_star))
        for j in range(probes):
            if j % 5 == 4:
                # near-optimal probes: scaled and rank-one-nudged optima
                w = rng.standard_normal(n)
                c = c_star * float(rng.uniform(0.7, 1.3))
                c = c + 0.05 * tr_star / n * np.outer(w, w) / n
            else:
                w = rng.standard_normal((n, n))
                c = w @ w.T / n + 1e-3 * np.eye(n)
                c *= tr_star / np.trace(c)
            val = general_c_oracle(x, y, state, c).total
            gap = best - val
            worst_gap = min(worst_gap, gap)
            if gap < -OPTIMALITY_TOL * scale:
                raise CheckFailure(
                    f"instance {k}, probe {j}: random scaling beats the "
                    f"optimum by {-gap:.3e}"
                )
    return (
        f"{instances} instances x {probes} probes, equality dev {worst_eq:.3e}, "
        f"smallest probe gap {worst_gap:.3e}"
    )


def check_gradient_checks(ctx: CheckContext) -> str:
    """Closed-form q(u) gradients match central differences on every
    uncollapsed objective family, the single-block estimators of every
    stochastic method match them in all trained coordinates, and so do
    the gradients of every collapsed objective fit_collapsed trains."""
    rng = np.random.default_rng((ctx.seed, 7))
    count = ctx.count(3, 20)
    vi_families = ("trace", "diag", "logdet", "shared", "spherical")
    pep_families = ((0.5, 1.0), (0.35, 1.4))
    worst = 0.0

    def compare(name, analytic, fd, k):
        nonlocal worst
        dev = float(np.abs(analytic - fd).max())
        scale_dev = float(
            np.max(np.abs(analytic - fd) / (GRAD_ATOL / GRAD_RTOL + np.abs(fd)))
        )
        worst = max(worst, scale_dev * GRAD_RTOL)
        if not np.allclose(analytic, fd, rtol=GRAD_RTOL, atol=GRAD_ATOL):
            raise CheckFailure(
                f"instance {k}: {name} analytic gradient off central "
                f"differences by {dev:.3e} (max abs)"
            )

    for k in range(count):
        x, y, state = small_instance(rng)
        n = y.shape[0]
        part = equal_blocks(rng, n)
        q = random_qu(rng, state.num_inducing)
        pack = ParameterPack.for_state(state, with_q=True)
        theta = pack.pack(state, q)
        hyper = theta[: pack.num_hyper]

        def q_fd(objective):
            def on_qvec(qvec):
                return objective(pack.unpack_q(np.concatenate([hyper, qvec])))

            return finite_difference_gradient(on_qvec, theta[pack.num_hyper :])

        for penalty in vi_families:
            fd = q_fd(
                lambda qu, p=penalty: vi_uncollapsed(x, y, state, part, qu, penalty=p).total
            )
            d_mean, d_lower = uncollapsed_qu_gradient(x, y, state, part, q)
            compare(penalty, pack.pack_q_gradient(q, d_mean, d_lower), fd, k)
        for alpha, m in pep_families:
            cfg = PepConfig(alpha=alpha, partition=part, m_scale=m)
            fd = q_fd(lambda qu, c=cfg: tpep_uncollapsed(x, y, state, c, qu).total)
            d_mean, d_lower = tpep_qu_gradient(x, y, state, cfg, q)
            compare(f"power-EP(alpha={alpha})", pack.pack_q_gradient(q, d_mean, d_lower), fd, k)

        # single-block estimators share the gradient machinery
        b = int(rng.integers(part.num_blocks))
        fd = q_fd(
            lambda qu: vi_stochastic(x, y, state, part, qu, b, penalty="logdet")
        )
        d_mean, d_lower = uncollapsed_qu_gradient(x, y, state, part, q, block_index=b)
        compare("single-block", pack.pack_q_gradient(q, d_mean, d_lower), fd, k)

        # hyperparameters (log m where the method has it) and q(u)
        # together, against differences of the same single-block value
        stochastic = _specs(lambda row: row.stochastic, part)
        for spec in stochastic:
            st = _fitting(spec, state)
            spack = ParameterPack.for_state(st, with_q=True)
            b = int(rng.integers(part.num_blocks))

            def value(t, spec=spec, spack=spack, b=b):
                return stochastic_estimate(
                    x, y, spack.unpack_state(t), part, spack.unpack_q(t), b, spec
                ).value

            fd = finite_difference_gradient(value, spack.pack(st, q))
            est = stochastic_estimate(x, y, st, part, q, b, spec, gradient=True)
            compare(f"{spec.method} single-block", spack.pack_estimate_gradient(q, est), fd, k)

        # every objective fit_collapsed trains, log m included: the envelope
        # gradient (the dense form for Exact) against differences of the value
        collapsed = _specs(lambda row: True, part)
        for spec in collapsed:
            st = _fitting(spec, state)
            cpack = ParameterPack.for_state(st)

            def bound(t, spec=spec, cpack=cpack):
                return evaluate_bound(x, y, cpack.unpack_state(t), spec, part).total

            fd = finite_difference_gradient(bound, cpack.pack(st))
            grad = evaluate_bound(x, y, st, spec, part, gradient=True).gradient
            analytic = cpack.pack_estimate_gradient(None, grad)
            compare(f"{spec.method} collapsed", analytic, fd, k)
    # each family's full-bound gradient, and one single-block estimator's
    q_families = len(vi_families) + len(pep_families) + 1
    return (
        f"{count} instances x ({q_families} q(u) families + {len(stochastic)} single-block "
        f"estimators + {len(collapsed)} collapsed objectives in every coordinate), "
        f"worst rel dev {worst:.3e}"
    )


# The power each power-EP method is checked at, where a check names none.
_CHECK_ALPHA = {"PEP": 0.5, "T-PEP": 0.35}


def _spec(name: str, part: Partition, alpha: Optional[float] = None) -> BoundSpec:
    """name's spec, on part's blocks where its row takes a partition and
    at alpha (default _CHECK_ALPHA's) where it takes a power."""
    row = METHODS[name]
    return BoundSpec(
        name,
        (_CHECK_ALPHA[name] if alpha is None else alpha) if row.alpha else None,
        None if row.partition == "rejected" else part.num_blocks,
    )


def _specs(test, part: Partition, alpha: Optional[float] = None) -> Tuple[BoundSpec, ...]:
    """_spec of each method whose row in METHODS passes test, in table order."""
    return tuple(_spec(name, part, alpha) for name, row in METHODS.items() if test(row))


def _fitting(spec: BoundSpec, state: ModelState, m: float = 1.3) -> ModelState:
    """The state spec's bounds take: state with the gap scale m where the
    row has one."""
    return state.with_(log_m_scale=np.log(m)) if spec.row.gap_scale else state


def _value(x, y, state: ModelState, spec: BoundSpec, part: Optional[Partition] = None,
           m: float = 1.3) -> float:
    """evaluate_bound's total for spec on part, at _fitting's state."""
    return evaluate_bound(x, y, _fitting(spec, state, m), spec, part).total


CHECKS: List[Tuple[str, Callable[[CheckContext], str]]] = [
    ("ordering-chain", check_ordering_chain),
    ("collapse-identities", check_collapse_identities),
    ("limit-lattice", check_limit_lattice),
    ("pep-fixed-point", check_pep_fixed_point),
    ("stochastic-unbiasedness", check_stochastic_unbiasedness),
    ("general-scale-optimality", check_general_scale_optimality),
    ("gradient-checks", check_gradient_checks),
]


def run_all(
    scale: str = "small", seed: int = 0, tamper_bias: float = 0.0
) -> List[CheckResult]:
    """Run every named check; a failure is recorded, not raised."""
    ctx = CheckContext(scale=scale, seed=seed, tamper_bias=tamper_bias)
    results = []
    for name, fn in CHECKS:
        started = time.perf_counter()
        try:
            detail = fn(ctx)
            passed = True
        except CheckFailure as exc:
            detail = str(exc)
            passed = False
        except Exception as exc:  # a crash is a failure with a name, not an abort
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(
            CheckResult(
                name=name,
                passed=passed,
                detail=detail,
                runtime=time.perf_counter() - started,
            )
        )
    return results


def format_report(results: List[CheckResult]) -> str:
    lines = []
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(f"{flag}  {r.name:28s} {r.runtime:7.2f}s  {r.detail}")
    total = sum(r.runtime for r in results)
    failed = [r.name for r in results if not r.passed]
    if failed:
        lines.append(f"FAILED ({len(failed)}): {', '.join(failed)}  [{total:.2f}s]")
    else:
        lines.append(f"all {len(results)} checks passed  [{total:.2f}s]")
    return "\n".join(lines)
