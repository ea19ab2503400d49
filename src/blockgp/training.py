"""Fitting: finite-difference gradients, Adam and L-BFGS drivers, and the
full-batch / block-cycling training loops.

Two entry points.  fit_collapsed moves hyperparameters (and the scalar
gap scale, when the state carries one) on a collapsed objective.
fit_stochastic moves hyperparameters and an explicit q(u) together,
taking one gradient step per block while cycling blocks in a seeded
shuffled order each epoch; with a single block it degenerates to
full-batch training of the uncollapsed bound.

Gradients.  fit_collapsed always uses central finite differences in
every coordinate (2P + 1 evaluations of the whole objective a step,
P = D + 2 + M D, plus one for log m).  fit_stochastic with
gradient_mode "analytic" takes every coordinate (hyperparameters,
inducing inputs, log m, and q(u)) from one block_estimate call a step,
reverse-mode adjoints through the block's own factors; "fd" differences
the same single-block value instead and stays the oracle the analytic
gradients are tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy import optimize

from .bounds_pep import PepConfig, pep_collapsed, tpep_collapsed, tpep_stochastic
from .bounds_vi import (
    BlockEstimate,
    BoundBreakdown,
    block_estimate,
    btsgpr_collapsed,
    exact_lml,
    sgpr_collapsed,
    sharedblock_collapsed,
    spherical_collapsed,
    tsgpr_collapsed,
    vi_stochastic,
)
from .kernels import KernelParams, NoiseParam, kernel_matrix
from .linalg import CholeskyFactor, NotPositiveDefiniteError, chol
from .model import (
    ORACLE_METHODS,
    BoundSpec,
    GaussianQU,
    ModelState,
    Partition,
    singleton_partition,
)

_OPTIMIZERS = ("lbfgs", "adam")
_GRADIENT_MODES = ("fd", "analytic")

# Penalty flavor of each uncollapsed variational objective.
_VI_PENALTY = {"SGPR": "trace", "T-SGPR": "diag", "BT-SGPR": "logdet"}

# Objectives fit_stochastic can cycle over blocks (penalty separable).
STOCHASTIC_METHODS = ("SGPR", "T-SGPR", "BT-SGPR", "PEP", "T-PEP")

# Objective value the L-BFGS line search sees where the bound cannot be
# evaluated at all; large enough to reject the trial point outright.
_INFEASIBLE = 1e100


class EvaluationFailed(RuntimeError):
    """The objective could not be evaluated at the requested parameters."""


class Diverged(RuntimeError):
    """The objective became non-finite at an accepted training step."""


@dataclass(frozen=True)
class TrainConfig:
    """One training run's knobs.

    objective picks the bound; optimizer is "lbfgs" (full batch) or
    "adam"; epochs counts L-BFGS iterations, full-batch Adam steps, or
    full block cycles for stochastic runs.  gradient_mode "analytic"
    gives stochastic runs closed-form gradients in every coordinate
    (hyperparameters, inducing inputs, log m and q(u)); collapsed runs
    ignore it.  Central differences, wherever they are used, take the
    per-coordinate step fd_step * max(1, |theta_i|).
    """

    objective: BoundSpec
    optimizer: str = "lbfgs"
    learning_rate: float = 0.005
    epochs: int = 100
    seed: int = 0
    gradient_mode: str = "fd"
    fd_step: float = 1e-5

    def __post_init__(self):
        if self.optimizer not in _OPTIMIZERS:
            raise ValueError(
                f"optimizer must be one of {_OPTIMIZERS}, got {self.optimizer!r}"
            )
        if self.gradient_mode not in _GRADIENT_MODES:
            raise ValueError(
                f"gradient_mode must be one of {_GRADIENT_MODES}, "
                f"got {self.gradient_mode!r}"
            )
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if not self.fd_step > 0.0:
            raise ValueError(f"fd_step must be positive, got {self.fd_step}")


@dataclass(frozen=True)
class TrainTrace:
    """Per-step history: objective, hyperparameter snapshots, wall time.

    One row per optimizer step actually taken (L-BFGS iteration, Adam
    step, or per-block stochastic step).  wall_time holds seconds spent
    on each step.  m_scale is 1 for states without the gap scale.
    """

    objective: np.ndarray  # (S,)
    sigma2: np.ndarray  # (S,)
    kernel_variance: np.ndarray  # (S,)
    lengthscales: np.ndarray  # (S, D)
    m_scale: np.ndarray  # (S,)
    wall_time: np.ndarray  # (S,)

    def __len__(self) -> int:
        return self.objective.shape[0]


class _TraceBuilder:
    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self.rows: List[tuple] = []
        self._last = time.perf_counter()

    def append(self, value: float, state: ModelState):
        now = time.perf_counter()
        if not np.isfinite(value):
            raise Diverged(
                f"objective became non-finite ({value}) at step {len(self.rows) + 1}"
            )
        self.rows.append(
            (
                float(value),
                state.noise.noise_variance,
                state.kernel.signal_variance,
                state.kernel.lengthscales.copy(),
                state.m_scale,
                now - self._last,
            )
        )
        self._last = now

    def build(self) -> TrainTrace:
        if self.rows:
            obj, s2, kv, ell, m, wt = zip(*self.rows)
            ell_arr = np.vstack(ell)
        else:
            obj, s2, kv, m, wt = (), (), (), (), ()
            ell_arr = np.zeros((0, self.input_dim))
        return TrainTrace(
            objective=np.array(obj, dtype=float),
            sigma2=np.array(s2, dtype=float),
            kernel_variance=np.array(kv, dtype=float),
            lengthscales=ell_arr,
            m_scale=np.array(m, dtype=float),
            wall_time=np.array(wt, dtype=float),
        )


@dataclass(frozen=True)
class ParameterPack:
    """Flattening scheme between model state (plus optional q(u)) and a vector.

    Layout: log lengthscales (D), log signal variance, log noise
    variance, inducing rows (M*D), then log m when tracked; with_q
    appends the q(u) mean (M) and the lower triangle of its covariance
    factor row by row, diagonal entries on log scale (M(M+1)/2).
    """

    input_dim: int
    num_inducing: int
    with_m: bool
    with_q: bool = False

    @classmethod
    def for_state(cls, state: ModelState, with_q: bool = False) -> "ParameterPack":
        return cls(
            input_dim=state.kernel.input_dim,
            num_inducing=state.num_inducing,
            with_m=state.log_m_scale is not None,
            with_q=with_q,
        )

    @property
    def num_hyper(self) -> int:
        d, m = self.input_dim, self.num_inducing
        return d + 2 + m * d + (1 if self.with_m else 0)

    @property
    def size(self) -> int:
        m = self.num_inducing
        return self.num_hyper + (m + m * (m + 1) // 2 if self.with_q else 0)

    def pack(self, state: ModelState, q: Optional[GaussianQU] = None) -> np.ndarray:
        parts = [
            state.kernel.log_lengthscales,
            [state.kernel.log_signal_variance],
            [state.noise.log_noise_variance],
            state.inducing.ravel(),
        ]
        if self.with_m:
            if state.log_m_scale is None:
                raise ValueError("pack tracks m but the state has none")
            parts.append([state.log_m_scale])
        if self.with_q:
            if q is None:
                raise ValueError("pack tracks q(u) but none was given")
            il = np.tril_indices(self.num_inducing)
            vals = q.cov_chol.lower[il].copy()
            on_diag = il[0] == il[1]
            vals[on_diag] = np.log(np.diag(q.cov_chol.lower))
            parts.extend([q.mean, vals])
        theta = np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])
        if theta.shape[0] != self.size:
            raise ValueError("state does not match this pack's layout")
        return theta

    def unpack_state(self, theta: np.ndarray) -> ModelState:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.size,):
            raise ValueError(f"need a vector of length {self.size}, got {theta.shape}")
        d, m = self.input_dim, self.num_inducing
        pos = 0
        ell = theta[pos : pos + d].copy()
        pos += d
        ls2 = float(theta[pos])
        ln2 = float(theta[pos + 1])
        pos += 2
        z = theta[pos : pos + m * d].reshape(m, d).copy()
        pos += m * d
        log_m = float(theta[pos]) if self.with_m else None
        return ModelState(
            kernel=KernelParams(log_lengthscales=ell, log_signal_variance=ls2),
            noise=NoiseParam(log_noise_variance=ln2),
            inducing=z,
            log_m_scale=log_m,
        )

    def unpack_q(self, theta: np.ndarray) -> GaussianQU:
        if not self.with_q:
            raise ValueError("this pack does not track q(u)")
        theta = np.asarray(theta, dtype=float)
        m = self.num_inducing
        base = self.num_hyper
        mean = theta[base : base + m].copy()
        vals = theta[base + m :]
        lower = np.zeros((m, m))
        il = np.tril_indices(m)
        lower[il] = vals
        diag = np.arange(m)
        lower[diag, diag] = np.exp(lower[diag, diag])
        return GaussianQU(mean=mean, cov_chol=CholeskyFactor(lower=lower, jitter_used=0.0))

    def pack_estimate_gradient(self, q: GaussianQU, est: BlockEstimate) -> np.ndarray:
        """Flatten a block_estimate gradient in this pack's layout."""
        parts = [
            est.d_log_lengthscales,
            [est.d_log_signal_variance, est.d_log_noise_variance],
            est.d_inducing.ravel(),
        ]
        if self.with_m:
            parts.append([est.d_log_m_scale])
        if self.with_q:
            parts.append(self.pack_q_gradient(q, est.d_mean, est.d_lower))
        return np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])

    def pack_q_gradient(
        self, q: GaussianQU, d_mean: np.ndarray, d_lower: np.ndarray
    ) -> np.ndarray:
        """Chain d/dL through the log-diagonal parametrization and flatten."""
        d = np.asarray(d_lower, dtype=float).copy()
        diag = np.arange(self.num_inducing)
        d[diag, diag] *= q.cov_chol.lower[diag, diag]
        il = np.tril_indices(self.num_inducing)
        return np.concatenate([np.asarray(d_mean, dtype=float).ravel(), d[il]])


def _resolve_partition(
    n: int, spec: BoundSpec, partition: Optional[Partition]
) -> Partition:
    if partition is not None:
        if partition.n != n:
            raise ValueError(f"partition covers {partition.n} points but data has {n}")
        if spec.num_blocks is not None and partition.num_blocks != spec.num_blocks:
            raise ValueError(
                f"spec asks for {spec.num_blocks} blocks but the partition "
                f"has {partition.num_blocks}"
            )
        return partition
    if spec.is_pep and spec.num_blocks is None:
        return singleton_partition(n)
    raise ValueError(f"method {spec.method} needs an explicit partition")


def evaluate_bound(
    x,
    y,
    state: ModelState,
    spec: BoundSpec,
    partition: Optional[Partition] = None,
) -> BoundBreakdown:
    """Collapsed objective value for a BoundSpec at one model state.

    The oracle methods are rejected here: they take explicit scale
    matrices and exist to check the others, not to be trained.
    """
    method = spec.method
    if method in ORACLE_METHODS:
        raise ValueError(f"{method} takes explicit scale matrices; call it directly")
    if method == "Exact":
        return exact_lml(x, y, state)
    if method == "SGPR":
        return sgpr_collapsed(x, y, state)
    if method == "T-SGPR":
        return tsgpr_collapsed(x, y, state)
    if method == "Spherical":
        return spherical_collapsed(x, y, state)
    part = _resolve_partition(np.asarray(y).reshape(-1).shape[0], spec, partition)
    if method == "BT-SGPR":
        return btsgpr_collapsed(x, y, state, part)
    if method == "SharedBlock":
        return sharedblock_collapsed(x, y, state, part)
    cfg = PepConfig(alpha=spec.alpha, partition=part, m_scale=state.m_scale)
    if method == "PEP":
        return pep_collapsed(x, y, state, cfg)
    return tpep_collapsed(x, y, state, cfg)


# What an objective raises where it cannot be evaluated: a factorization that
# failed, or parameters whose exp overflows (the kernel, noise and gap-scale
# accessors raise FloatingPointError for those).
_EVALUATION_ERRORS = (NotPositiveDefiniteError, np.linalg.LinAlgError, FloatingPointError)


def _eval(fun: Callable[[np.ndarray], float], theta: np.ndarray) -> float:
    try:
        value = float(fun(theta))
    except _EVALUATION_ERRORS as exc:
        raise EvaluationFailed(str(exc)) from exc
    if not np.isfinite(value):
        raise EvaluationFailed(f"objective evaluated to {value}")
    return value


def _central(fun, theta: np.ndarray, i: int, h: float) -> float:
    hi = theta.copy()
    hi[i] += h
    lo = theta.copy()
    lo[i] -= h
    return (_eval(fun, hi) - _eval(fun, lo)) / (2.0 * h)


def finite_difference_gradient(
    fun: Callable[[np.ndarray], float], theta: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central differences with per-coordinate step step * max(1, |theta_i|).

    A coordinate whose perturbed evaluation fails is retried once with
    the step halved; a second failure propagates as EvaluationFailed.
    """
    theta = np.asarray(theta, dtype=float).copy()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        h = step * max(1.0, abs(float(theta[i])))
        try:
            grad[i] = _central(fun, theta, i, h)
        except EvaluationFailed:
            grad[i] = _central(fun, theta, i, 0.5 * h)
    return grad


def maximize_lbfgs(
    fun: Callable[[np.ndarray], float],
    theta0: np.ndarray,
    fd_step: float = 1e-5,
    max_iter: int = 1000,
    gtol: float = 1e-6,
    on_step: Optional[Callable[[np.ndarray, Optional[float]], None]] = None,
) -> Tuple[np.ndarray, int]:
    """Maximize fun by L-BFGS-B with finite-difference gradients.

    Points where the objective cannot be evaluated are reported to the
    line search as a huge value (and a zero gradient), so it backs off
    instead of crashing.  A zero gradient also reads as convergence, so
    if L-BFGS-B stops at a point where the objective or its gradient
    failed, EvaluationFailed is raised with scipy's stop message rather
    than that point returned.  on_step sees each accepted iterate and
    the objective value the line search already computed there (None if
    it has none).  Returns the final parameters and the iteration count.
    """
    failed = set()
    last = [None, None]  # the most recently evaluated point and its value

    def neg(theta):
        key = np.asarray(theta, dtype=float).tobytes()
        try:
            last[:] = key, _eval(fun, theta)
        except EvaluationFailed:
            failed.add(key)
            return _INFEASIBLE
        return -last[1]

    def callback(theta):
        theta = np.asarray(theta, dtype=float)
        on_step(theta, last[1] if last[0] == theta.tobytes() else None)

    def neg_grad(theta):
        try:
            return -finite_difference_gradient(fun, theta, fd_step)
        except EvaluationFailed:
            failed.add(np.asarray(theta, dtype=float).tobytes())
            return np.zeros_like(np.asarray(theta, dtype=float))

    result = optimize.minimize(
        neg,
        np.asarray(theta0, dtype=float),
        jac=neg_grad,
        method="L-BFGS-B",
        callback=None if on_step is None else callback,
        options={"maxiter": max_iter, "gtol": gtol},
    )
    theta = np.asarray(result.x, dtype=float)
    if theta.tobytes() in failed:
        raise EvaluationFailed(
            f"L-BFGS-B stopped after {result.nit} iterations ({result.message}) at a "
            "point where the objective or its gradient cannot be evaluated"
        )
    return theta, int(result.nit)


class _AdamState:
    """Plain Adam with bias correction, oriented for ascent."""

    def __init__(
        self,
        size: int,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return theta + self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def maximize_adam(
    fun: Callable[[np.ndarray], float],
    theta0: np.ndarray,
    steps: int,
    learning_rate: float = 0.005,
    fd_step: float = 1e-5,
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    on_step: Optional[Callable[[np.ndarray], None]] = None,
) -> np.ndarray:
    """Maximize fun with Adam; gradients from grad_fn or central FD."""
    theta = np.asarray(theta0, dtype=float).copy()
    adam = _AdamState(theta.size, learning_rate)
    for _ in range(steps):
        grad = grad_fn(theta) if grad_fn is not None else finite_difference_gradient(
            fun, theta, fd_step
        )
        theta = adam.step(theta, grad)
        if on_step is not None:
            on_step(theta)
    return theta


def fit_collapsed(
    x,
    y,
    state: ModelState,
    cfg: TrainConfig,
    partition: Optional[Partition] = None,
) -> Tuple[ModelState, TrainTrace]:
    """Full-batch training of a collapsed objective.

    Moves kernel parameters, noise, inducing inputs, and the gap scale
    m when the state carries one.  Gradients are central differences
    regardless of cfg.gradient_mode (the collapsed objectives have no
    analytic gradients).  The trace records each accepted step; a
    non-finite objective at an accepted step raises Diverged, and an
    L-BFGS run that stops where the objective or its gradient cannot
    be evaluated raises EvaluationFailed.
    """
    spec = cfg.objective
    if spec.method in ORACLE_METHODS:
        raise ValueError(f"{spec.method} is a check oracle, not a trainable objective")
    part = (
        _resolve_partition(np.asarray(y).reshape(-1).shape[0], spec, partition)
        if spec.uses_partition
        else None
    )
    pack = ParameterPack.for_state(state)

    def objective(theta):
        return evaluate_bound(x, y, pack.unpack_state(theta), spec, part).total

    theta0 = pack.pack(state)
    builder = _TraceBuilder(state.kernel.input_dim)

    def on_step(theta, value=None):
        theta = np.asarray(theta, dtype=float)
        if value is None:
            value = objective(theta)
        builder.append(float(value), pack.unpack_state(theta))

    if cfg.optimizer == "lbfgs":
        theta, _ = maximize_lbfgs(
            objective,
            theta0,
            fd_step=cfg.fd_step,
            max_iter=cfg.epochs,
            on_step=on_step,
        )
    else:
        theta = maximize_adam(
            objective,
            theta0,
            steps=cfg.epochs,
            learning_rate=cfg.learning_rate,
            fd_step=cfg.fd_step,
            on_step=on_step,
        )
    return pack.unpack_state(theta), builder.build()


def stochastic_estimate(
    x,
    y,
    state: ModelState,
    partition: Partition,
    q: GaussianQU,
    block_index: int,
    spec: BoundSpec,
    gradient: bool = False,
) -> BlockEstimate:
    """block_estimate for one of the STOCHASTIC_METHODS.

    The variational methods use their penalty ("trace", "diag" or
    "logdet"); PEP and T-PEP use the block noise at the state's gap
    scale m (1 when the state does not carry one).
    """
    if spec.method not in STOCHASTIC_METHODS:
        raise ValueError(
            f"method {spec.method} has no block-separable estimator; "
            f"choose from {STOCHASTIC_METHODS}"
        )
    if spec.is_pep:
        return block_estimate(
            x, y, state, partition, q, block_index, penalty="pep",
            alpha=spec.alpha, m_scale=state.m_scale, gradient=gradient,
        )
    return block_estimate(
        x, y, state, partition, q, block_index,
        penalty=_VI_PENALTY[spec.method], gradient=gradient,
    )


def _initial_qu(state: ModelState) -> GaussianQU:
    """q(u) starting point: the prior N(0, Kuu) at the initial state."""
    luu = chol(kernel_matrix(state.inducing, state.inducing, state.kernel))
    return GaussianQU(mean=np.zeros(state.num_inducing), cov_chol=luu)


def fit_stochastic(
    x,
    y,
    state: ModelState,
    partition: Partition,
    cfg: TrainConfig,
    q: Optional[GaussianQU] = None,
) -> Tuple[ModelState, GaussianQU, TrainTrace]:
    """Block-cycling Adam training of an uncollapsed objective.

    Each epoch shuffles the block order with the run's seeded generator
    and takes one Adam step per block on that block's estimator of the
    bound; q(u) (mean and covariance factor) rides in the parameter
    vector next to the hyperparameters.  gradient_mode "analytic" takes
    the gradient in every coordinate (hyperparameters, inducing inputs,
    log m when the state tracks it, q(u)) from one block_estimate call,
    whose cost does not grow with N; "fd" differences the same value in
    all of them.  The trace records the block's estimate after each
    step.  Only block-separable objectives are accepted; q defaults to
    the prior at the initial state.
    """
    spec = cfg.objective
    if spec.method not in STOCHASTIC_METHODS:
        raise ValueError(
            f"method {spec.method} has no block-separable estimator; "
            f"choose from {STOCHASTIC_METHODS}"
        )
    if cfg.optimizer != "adam":
        raise ValueError("stochastic training cycles blocks; use optimizer='adam'")
    n = np.asarray(y).reshape(-1).shape[0]
    part = _resolve_partition(n, spec, partition)
    if q is None:
        q = _initial_qu(state)
    pack = ParameterPack.for_state(state, with_q=True)
    theta = pack.pack(state, q)

    def block_value(theta_vec, b):
        st = pack.unpack_state(theta_vec)
        qu = pack.unpack_q(theta_vec)
        if spec.is_pep:
            pcfg = PepConfig(alpha=spec.alpha, partition=part, m_scale=st.m_scale)
            return tpep_stochastic(x, y, st, pcfg, qu, b)
        return vi_stochastic(x, y, st, part, qu, b, penalty=_VI_PENALTY[spec.method])

    def block_gradient(theta_vec, b):
        if cfg.gradient_mode == "fd":
            return finite_difference_gradient(
                lambda t: block_value(t, b), theta_vec, cfg.fd_step
            )
        st = pack.unpack_state(theta_vec)
        qu = pack.unpack_q(theta_vec)
        try:
            est = stochastic_estimate(x, y, st, part, qu, b, spec, gradient=True)
        except _EVALUATION_ERRORS as exc:
            raise EvaluationFailed(str(exc)) from exc
        return pack.pack_estimate_gradient(qu, est)

    rng = np.random.default_rng(cfg.seed)
    adam = _AdamState(theta.size, cfg.learning_rate)
    builder = _TraceBuilder(state.kernel.input_dim)
    for _ in range(cfg.epochs):
        for b in rng.permutation(part.num_blocks):
            b = int(b)
            theta = adam.step(theta, block_gradient(theta, b))
            builder.append(float(block_value(theta, b)), pack.unpack_state(theta))
    return pack.unpack_state(theta), pack.unpack_q(theta), builder.build()
