"""Fitting: gradients, Adam and L-BFGS drivers, and the full-batch /
block-cycling training loops.

Every entry point that takes a BoundSpec reads the method's row in
model.METHODS through one resolver, which checks the spec against the
state and the partition and gives the penalty, partition and alpha that
the bodies take beside the state's gap scale m: evaluate_bound (the
collapsed bound), stochastic_estimate (its one-block estimator),
qu_optimum (the optimal q(u)), uncollapsed_bound (the bound at a given
q(u)) and the two trainers.  A caller who holds a spec need not know
which family it names, nor which of these calls read blocks: one run's
partition can go to all of them (the rule is _resolve's).

Two trainers.  fit_collapsed moves hyperparameters (and the scalar
gap scale, when the state carries one) on a collapsed objective.
fit_stochastic moves hyperparameters and an explicit q(u) together,
taking one gradient step per block while cycling blocks in a seeded
shuffled order each epoch; with a single block it degenerates to
full-batch training of the uncollapsed bound.  Both run their Adam
steps through maximize_adam, and both traces record the value each
step's own call returned, so a step makes one pass (one prepared state,
or one block); only an Adam run's last point costs one more, value-only,
pass.  A stochastic trace row is therefore the estimate at theta_t on
the block the next step draws.

Gradients.  fit_collapsed takes the value and the gradient in every
coordinate (hyperparameters, inducing inputs, and log m when the state
carries it) from one evaluate_bound call, which prepares the state once:
by the envelope theorem a collapsed bound's gradient is its uncollapsed
bound's at the optimal q(u), one reverse-mode pass over the blocks
(Exact has its dense closed form).  fit_stochastic with gradient_mode
"analytic", the default, takes every coordinate (hyperparameters,
inducing inputs, log m, and q(u)) from one block_estimate call a step,
reverse-mode adjoints through the block's own factors; "fd" differences
the same single-block value instead.  Central differences
(finite_difference_gradient) stay the oracle every analytic gradient is
tested against.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from .bounds_pep import PepConfig, tpep_stochastic
from .bounds_vi import (
    BlockEstimate,
    BoundBreakdown,
    _qu_star,
    block_estimate,
    exact_lml,
    vi_collapsed,
    vi_stochastic,
    vi_uncollapsed,
)
from .kernels import QUIET, KernelParams, NoiseParam, kernel_matrix
from .linalg import CholeskyFactor, NotPositiveDefiniteError, chol
from .model import (
    METHODS,
    BoundSpec,
    GaussianQU,
    ModelState,
    Partition,
    singleton_partition,
)

_OPTIMIZERS = ("lbfgs", "adam")
_GRADIENT_MODES = ("fd", "analytic")

# L-BFGS-B's stop on the projected gradient's largest entry.
LBFGS_GTOL = 1e-6

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
    (the default) gives stochastic runs closed-form gradients in every
    coordinate (hyperparameters, inducing inputs, log m and q(u)), "fd"
    central differences; collapsed runs ignore it, their gradients are
    always analytic.  Central differences take
    finite_difference_gradient's step.
    """

    objective: BoundSpec
    optimizer: str = "lbfgs"
    learning_rate: float = 0.005
    epochs: int = 100
    seed: int = 0
    gradient_mode: str = "analytic"

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
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if isinstance(self.epochs, bool) or not isinstance(self.epochs, numbers.Integral):
            raise ValueError(f"epochs must be an integer, got {self.epochs!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")


@dataclass(frozen=True)
class TrainTrace:
    """Per-step history: objective, hyperparameter snapshots, wall time.

    One row per optimizer step actually taken (L-BFGS iteration, Adam
    step, or per-block stochastic step).  wall_time holds seconds spent
    on each step.  m_scale is 1 for states without the gap scale.
    stop_message says why the run stopped: scipy's message for an
    L-BFGS run, the step budget that ran out for an Adam run.  Only an
    L-BFGS run keeps its count of objective evaluations (each one value
    and one gradient) in function_evals; an Adam run leaves it None.
    """

    objective: np.ndarray  # (S,)
    sigma2: np.ndarray  # (S,)
    kernel_variance: np.ndarray  # (S,)
    lengthscales: np.ndarray  # (S, D)
    m_scale: np.ndarray  # (S,)
    wall_time: np.ndarray  # (S,)
    stop_message: Optional[str] = None
    function_evals: Optional[int] = None

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

    def build(self, stop_message: str, function_evals=None) -> TrainTrace:
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
            stop_message=stop_message,
            function_evals=function_evals,
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

    @cached_property
    def _tril(self) -> Tuple[np.ndarray, np.ndarray]:
        """The q(u) factor's lower-triangle indices, row by row, built once."""
        return np.tril_indices(self.num_inducing)

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
            il = self._tril
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
        lower[self._tril] = vals
        diag = np.arange(m)
        with np.errstate(**QUIET):
            lower[diag, diag] = np.exp(lower[diag, diag])
        return GaussianQU(mean=mean, cov_chol=CholeskyFactor(lower=lower, jitter_used=0.0))

    def pack_estimate_gradient(
        self, q: Optional[GaussianQU], est: BlockEstimate
    ) -> np.ndarray:
        """Flatten a BlockEstimate gradient in this pack's layout (q only with_q)."""
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
        return np.concatenate([np.asarray(d_mean, dtype=float).ravel(), d[self._tril]])


def _resolve(y, state: ModelState, spec: BoundSpec, partition: Optional[Partition],
             call: str = "bound"):
    """(penalty, partition, alpha) of spec's row in METHODS over the points
    of y, which every spec-level entry point passes to the bodies with the
    gap scale m of the state it evaluates at: read there, so that an m
    that overflows fails a trainer's first evaluation like any other.
    call is what the entry point evaluates: a "bound", an "estimator" or
    an "optimum" q(u).  Raises by name where the row has no
    block-separable estimator, and where state's m does not fit the row.

    One partition rule holds for every call.  A partition given is always
    checked: it must cover y and have the spec's num_blocks, if it names
    one.  It is passed on only where the call reads blocks: every
    estimator (its one block), a bound whose row takes a partition, and
    power EP's optimum, whose block noise enters the fit.  Elsewhere the
    call is the one without a partition, bit for bit.  A call that reads
    blocks and is given none raises, except power EP without num_blocks,
    which puts one point in each block."""
    row, n = spec.row, np.asarray(y).reshape(-1).shape[0]
    if call == "estimator" and not row.stochastic:
        raise ValueError(
            f"method {spec.method} has no block-separable estimator; "
            f"choose from {tuple(name for name, r in METHODS.items() if r.stochastic)}"
        )
    spec.check_state(state)
    if partition is not None:
        partition.check_covers(n)
        if spec.num_blocks is not None and partition.num_blocks != spec.num_blocks:
            raise ValueError(
                f"spec asks for {spec.num_blocks} blocks but the partition "
                f"has {partition.num_blocks}"
            )
    reads = {
        "bound": row.partition != "rejected",
        "estimator": True,
        "optimum": row.penalty == "pep",
    }[call]
    if not reads:
        partition = None
    elif partition is None:
        if row.partition != "optional" or spec.num_blocks is not None:
            raise ValueError(f"method {spec.method} needs an explicit partition")
        partition = singleton_partition(n)
    return row.penalty, partition, spec.alpha


def evaluate_bound(
    x,
    y,
    state: ModelState,
    spec: BoundSpec,
    partition: Optional[Partition] = None,
    gradient: bool = False,
) -> BoundBreakdown:
    """Collapsed objective value for a BoundSpec at one model state.

    With gradient, the breakdown's gradient field holds its gradient in
    every trained coordinate, from the same prepared state.  The method's
    row in METHODS picks the body: Exact's dense form, or vi_collapsed at
    the row's penalty (power EP's with the spec's alpha and the state's
    gap scale m).  The partition rule is _resolve's.
    """
    penalty, part, alpha = _resolve(y, state, spec, partition)
    if penalty is None:
        return exact_lml(x, y, state, gradient)
    return vi_collapsed(x, y, state, penalty, part, gradient, alpha, state.m_scale)


def qu_optimum(
    x, y, state: ModelState, spec: BoundSpec, partition: Optional[Partition] = None
) -> GaussianQU:
    """The q(u) at which spec's uncollapsed bound meets its collapsed one.

    For the variational rows it is optimal_qu's, which reads no blocks
    (a partition given is checked, then ignored); for power EP the
    posterior under the block noise of the partition (one point per
    block where none is given) at the spec's alpha and the state's gap
    scale m, tpep_optimal_qu's.  Exact has no q(u) and raises.
    """
    penalty, part, alpha = _resolve(y, state, spec, partition, "optimum")
    if penalty is None:
        raise ValueError(f"method {spec.method} has no q(u)")
    return _qu_star(x, y, state, penalty, part, alpha, state.m_scale)


def uncollapsed_bound(
    x, y, state: ModelState, spec: BoundSpec, q: GaussianQU,
    partition: Optional[Partition] = None,
) -> BoundBreakdown:
    """spec's uncollapsed bound at q(u): vi_uncollapsed at the row's
    penalty, power EP's at the spec's alpha and the state's gap scale m.
    At qu_optimum it equals evaluate_bound.  The partition rule is
    _resolve's; Exact has no q(u) and raises."""
    penalty, part, alpha = _resolve(y, state, spec, partition)
    if penalty is None:
        raise ValueError(f"method {spec.method} has no q(u)")
    return vi_uncollapsed(x, y, state, part, q, penalty, alpha, state.m_scale)


# What an objective raises where it cannot be evaluated: a factorization that
# failed, or parameters whose exp overflows (the kernel, noise and gap-scale
# accessors raise FloatingPointError for those, and Python float arithmetic
# on such values, a power say, raises OverflowError).
_EVALUATION_ERRORS = (
    NotPositiveDefiniteError, np.linalg.LinAlgError, FloatingPointError, OverflowError
)


def _eval(fun: Callable[[np.ndarray], float], theta: np.ndarray) -> float:
    try:
        value = float(fun(theta))
    except _EVALUATION_ERRORS as exc:
        raise EvaluationFailed(str(exc)) from exc
    if not np.isfinite(value):
        raise EvaluationFailed(f"objective evaluated to {value}")
    return value


def _eval_with_gradient(fun, theta: np.ndarray) -> Tuple[float, np.ndarray]:
    """_eval for a function returning (value, gradient); both must be finite."""
    try:
        value, grad = fun(theta)
        value, grad = float(value), np.asarray(grad, dtype=float)
    except _EVALUATION_ERRORS as exc:
        raise EvaluationFailed(str(exc)) from exc
    if not np.isfinite(value):
        raise EvaluationFailed(f"objective evaluated to {value}")
    if not np.all(np.isfinite(grad)):
        raise EvaluationFailed("gradient has non-finite entries")
    return value, grad


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
    max_iter: int = 1000,
    on_step: Optional[Callable[[np.ndarray, Optional[float]], None]] = None,
    jac: bool = False,
) -> optimize.OptimizeResult:
    """Maximize fun by L-BFGS-B.

    With jac, fun returns (value, gradient) and each point L-BFGS-B
    asks for costs one call; without, fun returns the value alone and
    the gradient is central differences (finite_difference_gradient,
    2P more calls a point).  Points where the objective cannot be
    evaluated are reported to the line search as a huge value (and a
    zero gradient), so it backs off instead of crashing.  A zero
    gradient also reads as convergence, so if L-BFGS-B stops at a point
    where the objective or its gradient failed, EvaluationFailed is
    raised with scipy's stop message rather than that point returned.
    on_step sees each accepted iterate and the objective value the line
    search already computed there (None if it has none).  Returns
    scipy's result for the minimized negation: the final parameters x,
    the iteration count nit, the evaluation count nfev and the stop
    message.

    scipy.optimize is imported here, on the first call, so a run that
    trains only with Adam never loads it.
    """
    from scipy import optimize

    failed = set()
    last = [None, None]  # the most recently evaluated point and its value

    def neg(theta):
        key = np.asarray(theta, dtype=float).tobytes()
        try:
            if jac:
                value, grad = _eval_with_gradient(fun, theta)
            else:
                value = _eval(fun, theta)
        except EvaluationFailed:
            failed.add(key)
            return (_INFEASIBLE, np.zeros(np.shape(theta))) if jac else _INFEASIBLE
        last[:] = key, value
        return (-value, -grad) if jac else -value

    def callback(theta):
        theta = np.asarray(theta, dtype=float)
        on_step(theta, last[1] if last[0] == theta.tobytes() else None)

    def neg_grad(theta):
        try:
            return -finite_difference_gradient(fun, theta)
        except EvaluationFailed:
            failed.add(np.asarray(theta, dtype=float).tobytes())
            return np.zeros_like(np.asarray(theta, dtype=float))

    result = optimize.minimize(
        neg,
        np.asarray(theta0, dtype=float),
        jac=True if jac else neg_grad,
        method="L-BFGS-B",
        callback=None if on_step is None else callback,
        options={"maxiter": max_iter, "gtol": LBFGS_GTOL},
    )
    result.x = np.asarray(result.x, dtype=float)
    if result.x.tobytes() in failed:
        raise EvaluationFailed(
            f"L-BFGS-B stopped after {result.nit} iterations ({result.message}) at a "
            "point where the objective or its gradient cannot be evaluated"
        )
    return result


class _AdamState:
    """Plain Adam with bias correction, oriented for ascent, at the usual
    moment decays beta1 = 0.9, beta2 = 0.999 and eps = 1e-8."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size: int, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """The next point; EvaluationFailed if the second moment overflows.

        A gradient entry near 1e154 or above overflows grad * grad, and an
        infinite second moment would silently make that coordinate's step 0.
        """
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        with np.errstate(over="ignore"):
            self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
            v_hat = self.v / (1.0 - self.beta2**self.t)
        if not np.all(np.isfinite(v_hat)):
            raise EvaluationFailed(
                f"Adam's second moment overflows at gradient entries up to "
                f"{float(np.max(np.abs(grad))):g}"
            )
        m_hat = self.m / (1.0 - self.beta1**self.t)
        return theta + self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def maximize_adam(
    fun: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    theta0: np.ndarray,
    steps: int,
    learning_rate: float = 0.005,
    on_step: Optional[Callable[[np.ndarray, Optional[float]], None]] = None,
) -> np.ndarray:
    """Maximize fun, which returns (value, gradient), with Adam.

    A failed or non-finite value or gradient raises EvaluationFailed.
    on_step(theta, value) sees each new point once the next step has
    evaluated it, with the value that call returned; the last point
    comes with None, since no step evaluates it.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    adam = _AdamState(theta.size, learning_rate)
    for step in range(steps):
        value, grad = _eval_with_gradient(fun, theta)
        if step and on_step is not None:
            on_step(theta, value)
        theta = adam.step(theta, grad)
    if steps and on_step is not None:
        on_step(theta, None)
    return theta


def _budget_message(steps: int) -> str:
    """An Adam run's stop message: it always takes every step it is given."""
    return f"step budget of {steps} steps ran out"


def fit_collapsed(
    x,
    y,
    state: ModelState,
    cfg: TrainConfig,
    partition: Optional[Partition] = None,
) -> Tuple[ModelState, TrainTrace]:
    """Full-batch training of a collapsed objective.

    Moves kernel parameters, noise, inducing inputs, and the gap scale
    m when the state carries one.  Each point the optimizer asks for
    costs one evaluate_bound call, which returns the value and its
    analytic gradient from one prepared state, whatever
    cfg.gradient_mode says.  The trace records each accepted step with
    the value the optimizer's own call there returned; only Adam's last
    point costs one more, value-only, evaluation.  An L-BFGS trace keeps
    scipy's stop message and evaluation count, an Adam trace the step
    budget that ran out.  An Adam step that lands where the objective or
    its gradient cannot be evaluated or is not finite raises
    EvaluationFailed, and so does an L-BFGS run that stops at such a
    point.
    """
    spec = cfg.objective
    part = _resolve(y, state, spec, partition)[1]
    pack = ParameterPack.for_state(state)

    def objective(theta):
        return evaluate_bound(x, y, pack.unpack_state(theta), spec, part).total

    def value_and_gradient(theta):
        out = evaluate_bound(x, y, pack.unpack_state(theta), spec, part, gradient=True)
        return out.total, pack.pack_estimate_gradient(None, out.gradient)

    theta0 = pack.pack(state)
    builder = _TraceBuilder(state.kernel.input_dim)

    def on_step(theta, value):
        theta = np.asarray(theta, dtype=float)
        if value is None:
            value = _eval(objective, theta)
        builder.append(value, pack.unpack_state(theta))

    if cfg.optimizer == "lbfgs":
        result = maximize_lbfgs(
            value_and_gradient, theta0, max_iter=cfg.epochs, on_step=on_step, jac=True
        )
        trace = builder.build(str(result.message), int(result.nfev))
        return pack.unpack_state(result.x), trace
    theta = maximize_adam(
        value_and_gradient,
        theta0,
        steps=cfg.epochs,
        learning_rate=cfg.learning_rate,
        on_step=on_step,
    )
    return pack.unpack_state(theta), builder.build(_budget_message(cfg.epochs))


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
    """block_estimate at the penalty of spec's row in METHODS, which must
    be stochastic, on a partition that fits spec (power EP's defaults to
    one point per block); its block noise is at the state's gap scale m."""
    penalty, part, alpha = _resolve(y, state, spec, partition, "estimator")
    return block_estimate(
        x, y, state, part, q, block_index, penalty=penalty,
        alpha=alpha, m_scale=state.m_scale, gradient=gradient,
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
    all of them.  The block schedule, epochs seeded permutations, is
    drawn before the first step, and maximize_adam runs the steps.  The
    trace row of each point theta_t is the value the next step's call
    returned there, the estimate on the block step t+1 draws; the last
    point, which no step evaluates, costs one value-only pass on the
    last scheduled block.  So a step costs one block pass ("analytic")
    or 2P+1 ("fd").  A point where the estimate or its gradient cannot
    be evaluated or is not finite raises EvaluationFailed.  The trace's
    stop message names the step budget, epochs times the block count.
    Only block-separable objectives (a stochastic row in METHODS) are
    accepted, with a state that carries the gap scale m exactly where
    the method has one; q defaults to the prior at the initial state.
    """
    spec = cfg.objective
    penalty, part, alpha = _resolve(y, state, spec, partition, "estimator")
    if cfg.optimizer != "adam":
        raise ValueError("stochastic training cycles blocks; use optimizer='adam'")
    if q is None:
        q = _initial_qu(state)
    pack = ParameterPack.for_state(state, with_q=True)
    theta = pack.pack(state, q)

    rng = np.random.default_rng(cfg.seed)
    order = [int(b) for _ in range(cfg.epochs) for b in rng.permutation(part.num_blocks)]
    blocks = iter(order)

    def block_value(theta_vec, b):
        st = pack.unpack_state(theta_vec)
        qu = pack.unpack_q(theta_vec)
        if alpha is not None:
            pcfg = PepConfig(alpha=alpha, partition=part, m_scale=st.m_scale)
            return tpep_stochastic(x, y, st, pcfg, qu, b)
        return vi_stochastic(x, y, st, part, qu, b, penalty=penalty)

    def value_and_gradient(theta_vec):
        b = next(blocks)
        if cfg.gradient_mode == "fd":
            return block_value(theta_vec, b), finite_difference_gradient(
                lambda t: block_value(t, b), theta_vec
            )
        qu = pack.unpack_q(theta_vec)
        est = stochastic_estimate(
            x, y, pack.unpack_state(theta_vec), part, qu, b, spec, gradient=True
        )
        return est.value, pack.pack_estimate_gradient(qu, est)

    builder = _TraceBuilder(state.kernel.input_dim)

    def on_step(theta_vec, value):
        if value is None:  # the last point, which no step evaluates
            value = _eval(lambda t: block_value(t, order[-1]), theta_vec)
        builder.append(value, pack.unpack_state(theta_vec))

    theta = maximize_adam(
        value_and_gradient, theta, len(order), cfg.learning_rate, on_step=on_step
    )
    trace = builder.build(_budget_message(len(order)))
    return pack.unpack_state(theta), pack.unpack_q(theta), trace
