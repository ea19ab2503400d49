"""Command line front end: fit, compare, verify, predict.

Runs are driven by a flat JSON config plus a few override flags.  Every
artifact (model snapshot, training trace, reports, comparison tables,
prediction dumps) embeds the package version, the seed, and a hash of
the resolved config, and floats are always written with 17 significant
digits so a rerun with the same inputs is byte-identical.

Exit codes: 0 success, 1 runtime or check failure, 2 invalid config
(the message names the offending field).
"""

import argparse
import hashlib
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .data import (
    DataFormatError,
    Dataset,
    DegenerateColumnError,
    StandardizationStats,
    apply_standardization,
    initial_state,
    load_csv,
    load_features,
    split,
    standardize,
    synthetic_1d,
)
from .kernels import KernelParams, NoiseParam
from .linalg import CholeskyFactor, NotPositiveDefiniteError
from .model import (
    METHODS,
    BoundSpec,
    GaussianQU,
    ModelState,
    make_partition,
)
from .prediction import PredictiveGaussian, metrics, predict
from .training import (
    Diverged,
    EvaluationFailed,
    TrainConfig,
    TrainTrace,
    evaluate_bound,
    fit_collapsed,
    fit_stochastic,
    qu_optimum,
    uncollapsed_bound,
)
from .verify import format_report, run_all

# Every recognized config key with its default; unknown keys are rejected.
CONFIG_DEFAULTS = {
    "dataset": None,
    "target_column": None,
    "synthetic_n": 200,
    "synthetic_noise_std": 0.25,
    "standardize": True,
    "test_fraction": 0.2,
    "method": "SGPR",
    "methods": None,
    "alpha": None,
    "blocks": None,
    "num_inducing": 10,
    "inducing_init": "subset",
    "trainer": "collapsed",
    "optimizer": "lbfgs",
    "learning_rate": 0.005,
    "epochs": 100,
    "gradient_mode": "analytic",
    "seed": 0,
    "destandardize_metrics": False,
    "grid_points": 200,
    "out": "runs",
}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(v: float) -> str:
    if not np.isfinite(v):
        return "null"
    return format(float(v), ".17g")


def _json_text(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and stable key order."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        return _json_text(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    return json.dumps(obj)


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _ensure_out(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(_json_text(obj) + "\n")


def _csv(header: Sequence[str], rows) -> str:
    """The header line, then one line per row: strings as they are, numbers
    at 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt_float(c) for c in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config resolution and validation


def _resolve_config(args) -> dict:
    cfg = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"cannot parse {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config", "top level must be a JSON object")
        for key, value in loaded.items():
            if key not in CONFIG_DEFAULTS:
                raise ConfigError(key, "unknown config field")
            cfg[key] = value
    for flag in ("seed", "out", "method", "alpha", "blocks", "num_inducing"):
        value = getattr(args, flag, None)
        if value is not None:
            cfg[flag] = value
    return cfg


def _as_int(cfg: dict, field: str) -> int:
    v = cfg[field]
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ConfigError(field, f"expected an integer, got {v!r}")
    return int(v)


def _as_number(cfg: dict, field: str) -> float:
    v = cfg[field]
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise ConfigError(field, f"expected a number, got {v!r}")
    # JSON's parser takes NaN and Infinity, and an integer may pass float's range
    if not abs(v) <= sys.float_info.max:
        raise ConfigError(field, f"expected a finite number, got {v!r}")
    return float(v)


def _as_choice(cfg: dict, field: str, choices: Sequence[str]) -> str:
    v = cfg[field]
    if v not in choices:
        raise ConfigError(field, f"expected one of {list(choices)}, got {v!r}")
    return v


def _trainable(test=lambda row: True) -> Tuple[str, ...]:
    # the bounds with a gap penalty whose row passes test, in table order
    return tuple(n for n, row in METHODS.items() if row.penalty is not None and test(row))


def _run_methods(cfg: dict, compare: bool) -> List[str]:
    trainable = _trainable()
    if not compare:
        return [_as_choice(cfg, "method", trainable)]
    methods = cfg["methods"]
    if not isinstance(methods, list) or len(methods) < 2:
        raise ConfigError("methods", "compare needs a list of at least two methods")
    if len(set(methods)) != len(methods):
        raise ConfigError("methods", "duplicate method names")
    for name in methods:
        if name not in trainable:
            raise ConfigError(
                "methods", f"{name!r} is not trainable; pick from {list(trainable)}"
            )
    return list(methods)


def _validate_config(cfg: dict, compare: bool) -> List[str]:
    """Type/range checks for every field; returns the methods to run."""
    if cfg["dataset"] is not None and not isinstance(cfg["dataset"], str):
        raise ConfigError("dataset", "expected a file path string")
    if cfg["target_column"] is not None and not isinstance(cfg["target_column"], str):
        raise ConfigError("target_column", "expected a column name string")
    if _as_int(cfg, "synthetic_n") < 2:
        raise ConfigError("synthetic_n", "need at least two points")
    if _as_number(cfg, "synthetic_noise_std") < 0:
        raise ConfigError("synthetic_noise_std", "must be nonnegative")
    if not isinstance(cfg["standardize"], bool):
        raise ConfigError("standardize", "expected true or false")
    if not 0.0 <= _as_number(cfg, "test_fraction") < 1.0:
        raise ConfigError("test_fraction", "must lie in [0, 1)")
    methods = _run_methods(cfg, compare)
    rows = [METHODS[m] for m in methods]

    if any(row.alpha for row in rows):
        if cfg["alpha"] is None:
            needing = _trainable(lambda row: row.alpha)
            raise ConfigError("alpha", f"required for {' and '.join(needing)}")
        if not 0.0 < _as_number(cfg, "alpha") <= 1.0:
            raise ConfigError("alpha", "must lie in (0, 1]")
    if cfg["blocks"] is not None and _as_int(cfg, "blocks") < 1:
        raise ConfigError("blocks", "must be a positive block count")
    if any(row.partition == "required" for row in rows) and cfg["blocks"] is None:
        needing = _trainable(lambda row: row.partition == "required")
        raise ConfigError("blocks", f"required for {' and '.join(needing)}")

    if _as_int(cfg, "num_inducing") < 1:
        raise ConfigError("num_inducing", "need at least one inducing input")
    _as_choice(cfg, "inducing_init", ("subset", "kmeans"))
    trainer = _as_choice(cfg, "trainer", ("collapsed", "stochastic"))
    optimizer = _as_choice(cfg, "optimizer", ("lbfgs", "adam"))
    if _as_number(cfg, "learning_rate") <= 0:
        raise ConfigError("learning_rate", "must be positive")
    if _as_int(cfg, "epochs") < 1:
        raise ConfigError("epochs", "need at least one epoch")
    _as_choice(cfg, "gradient_mode", ("fd", "analytic"))
    _as_int(cfg, "seed")
    if not isinstance(cfg["destandardize_metrics"], bool):
        raise ConfigError("destandardize_metrics", "expected true or false")
    if _as_int(cfg, "grid_points") < 2:
        raise ConfigError("grid_points", "need at least two grid points")
    if not isinstance(cfg["out"], str):
        raise ConfigError("out", "expected a directory path string")

    if trainer == "stochastic":
        if optimizer != "adam":
            raise ConfigError("optimizer", "stochastic training uses adam")
        if cfg["blocks"] is None:
            raise ConfigError("blocks", "stochastic training needs a block count")
        for name in methods:
            if not METHODS[name].stochastic:
                raise ConfigError(
                    "method" if not compare else "methods",
                    f"{name!r} has no stochastic estimator; "
                    f"pick from {list(_trainable(lambda row: row.stochastic))}",
                )
    return methods


# ---------------------------------------------------------------------------
# shared run pipeline


def _load_dataset(cfg: dict) -> Dataset:
    if cfg["dataset"] is not None:
        return load_csv(cfg["dataset"], cfg["target_column"])
    return synthetic_1d(
        int(cfg["synthetic_n"]),
        seed=int(cfg["seed"]),
        noise_std=float(cfg["synthetic_noise_std"]),
    )


def _prepare_data(cfg: dict) -> Tuple[Dataset, Dataset]:
    """Load, split, then standardize with train statistics only."""
    data = _load_dataset(cfg)
    train, test = split(data, float(cfg["test_fraction"]), seed=int(cfg["seed"]))
    if cfg["standardize"]:
        train = standardize(train)
        if test.n:
            test = apply_standardization(test, train.stats)
    if int(cfg["num_inducing"]) > train.n:
        raise ConfigError(
            "num_inducing", f"must be at most the training size ({train.n})"
        )
    if cfg["blocks"] is not None and int(cfg["blocks"]) > train.n:
        raise ConfigError("blocks", f"must be at most the training size ({train.n})")
    return train, test


def _spec_for(cfg: dict, method: str) -> BoundSpec:
    """The spec at the config's alpha and block count, where the method takes them."""
    row = METHODS[method]
    alpha = float(cfg["alpha"]) if row.alpha else None
    takes_blocks = row.partition != "rejected" and cfg["blocks"] is not None
    num_blocks = int(cfg["blocks"]) if takes_blocks else None
    return BoundSpec(method=method, alpha=alpha, num_blocks=num_blocks)


@dataclass(frozen=True)
class RunResult:
    spec: BoundSpec
    state: ModelState
    q: GaussianQU
    trace: TrainTrace
    initial_objective: float
    objective: float  # collapsed bound at the final state
    fit_term: float
    regularizer: float
    jitter_used: float
    uncollapsed: Optional[float]  # bound at (state, q); stochastic runs only


def _run_method(cfg: dict, train: Dataset, state0: ModelState, method: str) -> RunResult:
    spec = _spec_for(cfg, method)
    seed = int(cfg["seed"])
    # the run's one partition, which every call takes and only those that
    # read blocks use
    blocks = cfg["blocks"]
    partition = None if blocks is None else make_partition(train.n, int(blocks), seed=seed)
    train_cfg = TrainConfig(
        objective=spec,
        optimizer=cfg["optimizer"],
        learning_rate=float(cfg["learning_rate"]),
        epochs=int(cfg["epochs"]),
        seed=seed,
        gradient_mode=cfg["gradient_mode"],
    )
    init_value = evaluate_bound(train.x, train.y, state0, spec, partition).total

    uncollapsed = None
    if cfg["trainer"] == "stochastic":
        state, q, trace = fit_stochastic(train.x, train.y, state0, partition, train_cfg)
        uncollapsed = uncollapsed_bound(train.x, train.y, state, spec, q, partition).total
    else:
        state, trace = fit_collapsed(train.x, train.y, state0, train_cfg, partition)
        q = qu_optimum(train.x, train.y, state, spec, partition)

    final = evaluate_bound(train.x, train.y, state, spec, partition)
    return RunResult(
        spec=spec,
        state=state,
        q=q,
        trace=trace,
        initial_objective=init_value,
        objective=final.total,
        fit_term=final.fit_term,
        regularizer=final.regularizer,
        jitter_used=final.jitter_used,
        uncollapsed=uncollapsed,
    )


def _initial_state_for(cfg: dict, train: Dataset, with_m: bool) -> ModelState:
    return initial_state(
        train,
        int(cfg["num_inducing"]),
        seed=int(cfg["seed"]),
        inducing=cfg["inducing_init"],
        with_m=with_m,
    )


def _eval_metrics(cfg: dict, data: Dataset, state: ModelState, q: GaussianQU) -> dict:
    """RMSE and mean predictive log density, standardized scale by default."""
    pred = predict(data.x, state, q, include_noise=True)
    if cfg["destandardize_metrics"] and data.stats is not None:
        s = data.stats
        return metrics(_destandardize(pred, s), data.y * s.y_std + s.y_mean)
    return metrics(pred, data.y)


def _destandardize(
    pred: PredictiveGaussian, stats: Optional[StandardizationStats]
) -> PredictiveGaussian:
    """pred in the targets' original units; pred itself without stats."""
    if stats is None:
        return pred
    return PredictiveGaussian(
        mean=pred.mean * stats.y_std + stats.y_mean,
        variance=pred.variance * stats.y_std ** 2,
        clamped=pred.clamped,
    )


def _metrics_scale(cfg: dict, data: Dataset) -> str:
    if cfg["destandardize_metrics"] and data.stats is not None:
        return "original"
    return "standardized"


# ---------------------------------------------------------------------------
# artifact writers


def _trace_csv(trace: TrainTrace, input_dim: int) -> str:
    cols = ["step", "objective", "sigma2", "kernel_var"]
    cols += [f"lengthscale_{i + 1}" for i in range(input_dim)]
    cols += ["m"]
    return _csv(cols, (
        [str(i + 1), trace.objective[i], trace.sigma2[i], trace.kernel_variance[i],
         *trace.lengthscales[i], trace.m_scale[i]]
        for i in range(len(trace))
    ))


def _model_payload(cfg: dict, cfg_hash: str, run: RunResult, train: Dataset) -> dict:
    state, stats = run.state, train.stats
    return {
        "version": __version__,
        "config_hash": cfg_hash,
        "seed": int(cfg["seed"]),
        "method": run.spec.method,
        "alpha": run.spec.alpha,
        "blocks": run.spec.num_blocks,
        "state": {
            "log_lengthscales": state.kernel.log_lengthscales,
            "log_signal_variance": state.kernel.log_signal_variance,
            "log_noise_variance": state.noise.log_noise_variance,
            "inducing": state.inducing,
            "log_m_scale": state.log_m_scale,
        },
        "q": {"mean": run.q.mean, "cov_lower": run.q.cov_chol.lower},
        "standardization": None
        if stats is None
        else {
            "x_mean": stats.x_mean,
            "x_std": stats.x_std,
            "y_mean": stats.y_mean,
            "y_std": stats.y_std,
        },
        "feature_names": train.column_names,
    }


def _report_payload(
    cfg: dict, cfg_hash: str, run: RunResult, eval_on: str, scale: str, m: dict
) -> dict:
    state = run.state
    report = {
        "version": __version__,
        "config_hash": cfg_hash,
        "seed": int(cfg["seed"]),
        "method": run.spec.method,
        "alpha": run.spec.alpha,
        "blocks": run.spec.num_blocks,
        "trainer": cfg["trainer"],
        "optimizer": cfg["optimizer"],
        "steps": len(run.trace),
        "objective": run.objective,
        "fit_term": run.fit_term,
        "regularizer": run.regularizer,
        "jitter_used": run.jitter_used,
        "rmse": m["rmse"],
        "mean_ll": m["mean_ll"],
        "metrics_on": eval_on,
        "metrics_scale": scale,
        "sigma2": state.noise.noise_variance,
        "kernel_variance": state.kernel.signal_variance,
        "lengthscales": state.kernel.lengthscales,
        "m": state.m_scale,
    }
    if run.uncollapsed is not None:
        report["objective_uncollapsed"] = run.uncollapsed
    if run.trace.function_evals is not None:
        # a count, not scipy's message, so reruns stay byte-identical
        report["lbfgs_function_evals"] = run.trace.function_evals
    return report


def _prediction_curve(
    cfg: dict, train: Dataset, state: ModelState, q: GaussianQU
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Posterior mean with 95% observation band on a padded 1-d grid."""
    xs = train.x[:, 0]
    lo, hi = float(xs.min()), float(xs.max())
    pad = 0.1 * ((hi - lo) or 1.0)
    grid = np.linspace(lo - pad, hi + pad, int(cfg["grid_points"]))
    s = train.stats
    pred = _destandardize(predict(grid[:, None], state, q, include_noise=True), s)
    x_out = grid if s is None else grid * s.x_std[0] + s.x_mean[0]
    half = 1.96 * np.sqrt(pred.variance)
    return x_out, pred.mean, pred.mean - half, pred.mean + half


def _method_slug(method: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", method.lower()).strip("_")


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(args) -> int:
    cfg = _resolve_config(args)
    _validate_config(cfg, compare=False)
    cfg_hash = _config_hash(cfg)
    train, test = _prepare_data(cfg)
    method = cfg["method"]
    state0 = _initial_state_for(cfg, train, METHODS[method].gap_scale)
    run = _run_method(cfg, train, state0, method)

    eval_data, eval_on = (test, "test") if test.n else (train, "train")
    m = _eval_metrics(cfg, eval_data, run.state, run.q)
    out = _ensure_out(cfg["out"])
    _write_json(out / "model.json", _model_payload(cfg, cfg_hash, run, train))
    (out / "trace.csv").write_text(_trace_csv(run.trace, train.dim))
    report = _report_payload(cfg, cfg_hash, run, eval_on, _metrics_scale(cfg, eval_data), m)
    _write_json(out / "report.json", report)

    print(
        f"{method}: objective {run.objective:.6f} after {len(run.trace)} steps, "
        f"rmse {m['rmse']:.6f}, mean_ll {m['mean_ll']:.6f} ({eval_on})"
    )
    trace = run.trace
    if trace.function_evals is not None:
        print(
            f"L-BFGS-B stopped: {trace.stop_message} ({len(trace)} iterations, "
            f"{trace.function_evals} value-and-gradient evaluations)"
        )
    else:
        print(f"Adam stopped: {trace.stop_message}")
    print(f"wrote {out / 'model.json'}, {out / 'trace.csv'}, {out / 'report.json'}")
    return 0


def cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    methods = _validate_config(cfg, compare=True)
    cfg_hash = _config_hash(cfg)
    train, test = _prepare_data(cfg)
    eval_data, eval_on = (test, "test") if test.n else (train, "train")
    scale = _metrics_scale(cfg, eval_data)

    # One shared initialization: every method starts from the same
    # hyperparameters, inducing inputs, and data split.
    base = _initial_state_for(cfg, train, with_m=False)
    out = _ensure_out(cfg["out"])
    rows = []
    for method in methods:
        state0 = base.with_(log_m_scale=0.0) if METHODS[method].gap_scale else base
        run = _run_method(cfg, train, state0, method)
        m = _eval_metrics(cfg, eval_data, run.state, run.q)
        row = {
            "method": method,
            "objective_init": run.initial_objective,
            "objective": run.objective,
            "rmse": m["rmse"],
            "mean_ll": m["mean_ll"],
            "sigma2": run.state.noise.noise_variance,
            "kernel_variance": run.state.kernel.signal_variance,
            "m": run.state.m_scale,
            "lengthscales": run.state.kernel.lengthscales,
        }
        rows.append(row)
        if train.dim == 1:
            curve = _prediction_curve(cfg, train, run.state, run.q)
            (out / f"curve_{_method_slug(method)}.csv").write_text(
                _csv(["x_grid", "mean", "lower", "upper"], zip(*curve))
            )

    scalars = ["objective_init", "objective", "rmse", "mean_ll", "sigma2",
               "kernel_variance", "m"]
    cols = ["method", *scalars] + [f"lengthscale_{i + 1}" for i in range(train.dim)]
    (out / "compare.csv").write_text(_csv(cols, (
        [row["method"], *(row[c] for c in scalars), *row["lengthscales"]] for row in rows
    )))
    _write_json(
        out / "compare.json",
        {
            "version": __version__,
            "config_hash": cfg_hash,
            "seed": int(cfg["seed"]),
            "metrics_on": eval_on,
            "metrics_scale": scale,
            "methods": rows,
        },
    )

    width = max(len(m) for m in methods)
    for row in rows:
        print(
            f"{row['method']:<{width}}  obj {row['objective']:>12.4f}  "
            f"rmse {row['rmse']:.6f}  mean_ll {row['mean_ll']:.6f}"
        )
    print(f"wrote {out / 'compare.csv'}, {out / 'compare.json'}")
    return 0


def cmd_verify(args) -> int:
    results = run_all(scale=args.scale, seed=args.seed, tamper_bias=args.tamper_bias)
    print(format_report(results))
    if args.out:
        out = _ensure_out(args.out)
        _write_json(
            out / "verify.json",
            {
                "version": __version__,
                "scale": args.scale,
                "seed": args.seed,
                "results": [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                        "runtime": r.runtime,
                    }
                    for r in results
                ],
            },
        )
    return 0 if all(r.passed for r in results) else 1


def _load_model(path: str) -> Tuple[ModelState, GaussianQU, Optional[StandardizationStats], Optional[List[str]], dict]:
    payload = json.loads(Path(path).read_text())
    st = payload["state"]
    kernel = KernelParams(
        log_lengthscales=np.asarray(st["log_lengthscales"], dtype=float),
        log_signal_variance=float(st["log_signal_variance"]),
    )
    noise = NoiseParam(log_noise_variance=float(st["log_noise_variance"]))
    log_m = st["log_m_scale"]
    state = ModelState(
        kernel=kernel,
        noise=noise,
        inducing=np.asarray(st["inducing"], dtype=float),
        log_m_scale=None if log_m is None else float(log_m),
    )
    q = GaussianQU(
        mean=np.asarray(payload["q"]["mean"], dtype=float),
        cov_chol=CholeskyFactor(
            lower=np.asarray(payload["q"]["cov_lower"], dtype=float), jitter_used=0.0
        ),
    )
    sp = payload.get("standardization")
    stats = None
    if sp is not None:
        stats = StandardizationStats(
            x_mean=np.asarray(sp["x_mean"], dtype=float),
            x_std=np.asarray(sp["x_std"], dtype=float),
            y_mean=float(sp["y_mean"]),
            y_std=float(sp["y_std"]),
        )
    return state, q, stats, payload.get("feature_names"), payload


def cmd_predict(args) -> int:
    state, q, stats, feature_names, payload = _load_model(args.model)
    if args.no_target:
        x_raw, names = load_features(args.data)
        y_raw = None
    else:
        data = load_csv(args.data, args.target_column, keep_constant=True)
        x_raw, y_raw, names = data.x, data.y, data.column_names
    if names is not None and feature_names is not None:
        missing = [name for name in feature_names if name not in names]
        if missing:
            raise DataFormatError(
                f"{args.data}: no columns named {missing}; the model reads {feature_names}"
            )
        x_raw = x_raw[:, [names.index(name) for name in feature_names]]
    input_dim = state.inducing.shape[1]
    if x_raw.shape[1] != input_dim:
        raise DataFormatError(
            f"{args.data}: {x_raw.shape[1]} feature columns, model expects {input_dim}"
        )

    x_std = (x_raw - stats.x_mean) / stats.x_std if stats is not None else x_raw
    pred = predict(x_std, state, q, include_noise=True)
    original = _destandardize(pred, stats)
    mean, var = original.mean, original.variance
    half = 1.96 * np.sqrt(var)

    out = _ensure_out(args.out)
    cols = [f"feature_{j + 1}" for j in range(input_dim)]
    cols += ["mean", "variance", "lower", "upper"]
    columns = [mean, var, mean - half, mean + half]
    if y_raw is not None:
        cols.append("target")
        columns.append(y_raw)
    (out / "predictions.csv").write_text(
        _csv(cols, ([*x, *c] for x, c in zip(x_raw, zip(*columns))))
    )

    if y_raw is not None:
        y_std_scale = (y_raw - stats.y_mean) / stats.y_std if stats is not None else y_raw
        report = {
            "version": __version__,
            "config_hash": payload.get("config_hash"),
            "seed": payload.get("seed"),
            "method": payload.get("method"),
        }
        report.update(metrics(pred, y_std_scale))
        report["metrics_scale"] = "standardized" if stats is not None else "original"
        if stats is not None:
            for key, value in metrics(original, y_raw).items():
                report[f"{key}_original"] = value
        _write_json(out / "metrics.json", report)
        print(
            f"rmse {report['rmse']:.6f}, mean_ll {report['mean_ll']:.6f} "
            f"({report['metrics_scale']})"
        )
    print(f"wrote {out / 'predictions.csv'} ({x_raw.shape[0]} rows)")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--seed", type=int, help="override the config seed")
    sp.add_argument("--out", help="override the output directory")
    sp.add_argument("--method", help="override the bound to train")
    sp.add_argument("--alpha", type=float, help="override the divergence exponent")
    sp.add_argument("--blocks", type=int, help="override the block count")
    sp.add_argument("--num-inducing", type=int, dest="num_inducing",
                    help="override the inducing set size")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockgp",
        description="Sparse GP regression with block-structured variational bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="train one bound and write model/trace/report")
    _add_run_flags(fit)
    fit.set_defaults(func=cmd_fit)

    compare = sub.add_parser(
        "compare", help="train several bounds from one shared initialization"
    )
    _add_run_flags(compare)
    compare.set_defaults(func=cmd_compare)

    verify = sub.add_parser("verify", help="run the internal consistency checks")
    verify.add_argument("--scale", choices=("small", "full"), default="small")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default=None, help="also write a JSON report here")
    verify.add_argument(
        "--tamper-bias",
        type=float,
        default=0.0,
        dest="tamper_bias",
        help="perturb one bound value to prove the checks can fail",
    )
    verify.set_defaults(func=cmd_verify)

    pred = sub.add_parser("predict", help="apply a saved model to new inputs")
    pred.add_argument("--model", required=True, help="model.json from a fit run")
    pred.add_argument("--data", required=True, help="CSV of inputs")
    pred.add_argument("--target-column", dest="target_column", default=None)
    pred.add_argument(
        "--no-target",
        action="store_true",
        dest="no_target",
        help="treat every column as a feature",
    )
    pred.add_argument("--out", default="predictions")
    pred.set_defaults(func=cmd_predict)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        DataFormatError,
        DegenerateColumnError,
        NotPositiveDefiniteError,
        EvaluationFailed,
        Diverged,
        OSError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
