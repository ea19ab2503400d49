"""Command line behavior: artifacts, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockgp.bounds_pep import PepConfig, tpep_optimal_qu, tpep_uncollapsed
from blockgp.bounds_vi import optimal_qu, vi_uncollapsed
from blockgp.cli import CONFIG_DEFAULTS, _load_model, _method_slug, _prepare_data, main
from blockgp.data import split, synthetic_1d
from blockgp.model import METHODS, make_partition, singleton_partition
from blockgp.prediction import PredictiveGaussian, metrics, predict


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "synthetic_n": 50,
        "num_inducing": 6,
        "epochs": 6,
        "seed": 3,
        "out": str(tmp_path / "run"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def test_fit_writes_snapshot_trace_and_report(tmp_path, capsys):
    cfg_path, cfg = _write_config(tmp_path, method="T-SGPR")
    assert main(["fit", "--config", cfg_path]) == 0
    out = Path(cfg["out"])
    model = json.loads((out / "model.json").read_text())
    report = json.loads((out / "report.json").read_text())
    trace = (out / "trace.csv").read_text().splitlines()

    assert model["method"] == "T-SGPR"
    assert model["version"] == report["version"]
    assert model["config_hash"] == report["config_hash"]
    assert model["seed"] == 3
    assert len(model["q"]["mean"]) == 6
    for key in ("objective", "rmse", "mean_ll", "sigma2", "kernel_variance",
                "lengthscales", "m", "jitter_used"):
        assert key in report, key
    assert trace[0].split(",") == [
        "step", "objective", "sigma2", "kernel_var", "lengthscale_1", "m"
    ]
    assert len(trace) - 1 == report["steps"]
    assert trace[1].split(",")[0] == "1"
    assert "T-SGPR" in capsys.readouterr().out


def test_fit_rerun_is_byte_identical(tmp_path):
    cfg_path, cfg = _write_config(tmp_path, method="SGPR", epochs=5)
    assert main(["fit", "--config", cfg_path]) == 0
    out = Path(cfg["out"])
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["fit", "--config", cfg_path]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def _fitted(cfg):
    """The run's training data and partition (None where the method's row
    rejects one), and the state and q(u) its model.json saved."""
    full = dict(CONFIG_DEFAULTS, **cfg)
    train, _ = _prepare_data(full)
    row = METHODS[full["method"]]
    part = None
    if row.partition != "rejected" or full["trainer"] == "stochastic":
        part = make_partition(train.n, full["blocks"], seed=full["seed"])
    state, q = _load_model(str(Path(cfg["out"]) / "model.json"))[:2]
    return train, part, state, q


def _pep_config(cfg, n, part, state):
    if part is None:
        part = singleton_partition(n)
    return PepConfig(alpha=cfg["alpha"], partition=part, m_scale=state.m_scale)


@pytest.mark.parametrize("method", ["SGPR", "T-SGPR", "BT-SGPR", "PEP", "T-PEP"])
def test_fit_stochastic_path(tmp_path, method):
    cfg_path, cfg = _write_config(
        tmp_path,
        method=method,
        alpha=0.5,
        blocks=4,
        trainer="stochastic",
        optimizer="adam",
        epochs=2,
        gradient_mode="analytic",
    )
    assert main(["fit", "--config", cfg_path]) == 0
    report = json.loads((Path(cfg["out"]) / "report.json").read_text())
    assert report["steps"] == 2 * 4  # one step per block per epoch
    assert report["objective_uncollapsed"] <= report["objective"] + 1e-9
    # the reported uncollapsed bound is the method's own at the saved (state, q)
    train, part, state, q = _fitted(cfg)
    if METHODS[method].alpha:
        pep = _pep_config(cfg, train.n, part, state)
        expected = tpep_uncollapsed(train.x, train.y, state, pep, q)
    else:
        expected = vi_uncollapsed(train.x, train.y, state, part, q,
                                  penalty=METHODS[method].penalty)
    assert report["objective_uncollapsed"] == expected.total


@pytest.mark.parametrize(
    "method", ["SGPR", "T-SGPR", "BT-SGPR", "SharedBlock", "Spherical", "PEP", "T-PEP"]
)
def test_fit_collapsed_saves_the_methods_optimal_qu(tmp_path, method):
    cfg_path, cfg = _write_config(tmp_path, method=method, alpha=0.5, blocks=4, epochs=4)
    assert main(["fit", "--config", cfg_path]) == 0
    train, part, state, q = _fitted(cfg)
    if METHODS[method].alpha:
        expected = tpep_optimal_qu(train.x, train.y, state,
                                   _pep_config(cfg, train.n, part, state))
    else:
        expected = optimal_qu(train.x, train.y, state)
    assert np.array_equal(q.mean, expected.mean)
    assert np.array_equal(q.cov_chol.lower, expected.cov_chol.lower)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(trainer="stochastic", blocks=4, epochs=3),
        # one step, so only the trace's value at the last point meets the overflow
        dict(trainer="collapsed", epochs=1),
    ],
)
def test_a_diverging_adam_fit_exits_1_with_an_error_line(tmp_path, capsys, overrides):
    cfg_path, _ = _write_config(
        tmp_path, optimizer="adam", learning_rate=3000, **overrides
    )
    assert main(["fit", "--config", cfg_path]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_configs_exit_2_and_name_the_field(tmp_path, capsys):
    cases = [
        ({"method": "BT-SGPR"}, "blocks"),
        ({"method": "PEP"}, "alpha"),
        ({"method": "Exact"}, "method"),
        ({"method": "GeneralC-Oracle"}, "method"),
        ({"epochs": 0}, "epochs"),
        ({"optimizer": "sgd"}, "optimizer"),
        ({"test_fraction": 1.0}, "test_fraction"),
        ({"num_inducing": 600}, "num_inducing"),  # exceeds the training size
        ({"mystery_knob": 1}, "mystery_knob"),
        # JSON's NaN and Infinity parse as floats, and no field takes them
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"synthetic_noise_std": float("inf")}, "synthetic_noise_std"),
        ({"test_fraction": float("-inf")}, "test_fraction"),
        ({"synthetic_noise_std": 10 ** 400}, "synthetic_noise_std"),  # past float's range
        ({"seed": -1}, "seed"),
    ]
    for overrides, field in cases:
        cfg_path, _ = _write_config(tmp_path, name=f"{field}.json", **overrides)
        assert main(["fit", "--config", cfg_path]) == 2, field
        err = capsys.readouterr().err
        assert field in err, (field, err)


def test_flag_overrides_win_over_config(tmp_path):
    cfg_path, cfg = _write_config(tmp_path, method="SGPR", epochs=4)
    out2 = str(tmp_path / "other")
    assert main(["fit", "--config", cfg_path, "--method", "Spherical",
                 "--out", out2, "--seed", "9"]) == 0
    report = json.loads((Path(out2) / "report.json").read_text())
    assert report["method"] == "Spherical"
    assert report["seed"] == 9


def test_compare_writes_table_and_curves(tmp_path):
    cfg_path, cfg = _write_config(
        tmp_path,
        methods=["SGPR", "Spherical", "T-SGPR", "BT-SGPR"],
        blocks=5,
        epochs=4,
    )
    assert main(["compare", "--config", cfg_path]) == 0
    out = Path(cfg["out"])
    table = json.loads((out / "compare.json").read_text())
    rows = {r["method"]: r for r in table["methods"]}
    assert set(rows) == {"SGPR", "Spherical", "T-SGPR", "BT-SGPR"}

    # the documented ordering holds at the shared initialization
    init = {m: rows[m]["objective_init"] for m in rows}
    assert init["SGPR"] <= init["Spherical"] + 1e-9
    assert init["Spherical"] <= init["T-SGPR"] + 1e-9
    assert init["T-SGPR"] <= init["BT-SGPR"] + 1e-9

    csv_lines = (out / "compare.csv").read_text().splitlines()
    assert len(csv_lines) == 5
    for slug in ("sgpr", "spherical", "t_sgpr", "bt_sgpr"):
        curve = (out / f"curve_{slug}.csv").read_text().splitlines()
        assert curve[0] == "x_grid,mean,lower,upper"
        assert len(curve) > 100


def test_more_blocks_than_training_points_exit_2_and_name_the_field(tmp_path, capsys):
    # 50 points with a fifth held out leave 40 to train on
    cfg_path, _ = _write_config(tmp_path, method="BT-SGPR", blocks=41)
    assert main(["fit", "--config", cfg_path]) == 2
    assert "config field 'blocks': must be at most the training size (40)" in (
        capsys.readouterr().err
    )


def test_a_negative_seed_exits_2_and_names_the_field(tmp_path, capsys):
    cfg_path, _ = _write_config(tmp_path, method="SGPR")
    assert main(["fit", "--config", cfg_path, "--seed", "-1"]) == 2
    assert "config field 'seed'" in capsys.readouterr().err
    cfg_path, _ = _write_config(tmp_path, name="cmp.json", methods=["SGPR", "T-SGPR"], seed=-1)
    assert main(["compare", "--config", cfg_path]) == 2
    assert "config field 'seed'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--seed", "-1"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "non-negative" in err


def test_destandardized_metrics_are_the_original_units_metrics(tmp_path):
    cfg_path, cfg = _write_config(tmp_path, method="SGPR", destandardize_metrics=True)
    assert main(["fit", "--config", cfg_path]) == 0
    report = json.loads((Path(cfg["out"]) / "report.json").read_text())
    assert (report["metrics_on"], report["metrics_scale"]) == ("test", "original")
    full = dict(CONFIG_DEFAULTS, **cfg)
    raw = synthetic_1d(full["synthetic_n"], full["seed"], full["synthetic_noise_std"])
    _, test = split(raw, full["test_fraction"], seed=full["seed"])
    train, scaled = _prepare_data(full)
    state, q = _load_model(str(Path(cfg["out"]) / "model.json"))[:2]
    pred = predict(scaled.x, state, q, include_noise=True)
    s = train.stats
    original = PredictiveGaussian(mean=pred.mean * s.y_std + s.y_mean,
                                  variance=pred.variance * s.y_std ** 2)
    expected = metrics(original, test.y)
    assert_allclose([report["rmse"], report["mean_ll"]],
                    [expected["rmse"], expected["mean_ll"]], rtol=1e-12)


def test_unstandardized_runs_report_metrics_on_the_original_scale(tmp_path):
    cfg_path, cfg = _write_config(tmp_path, method="SGPR", standardize=False,
                                  methods=["SGPR", "T-SGPR"])
    assert main(["fit", "--config", cfg_path]) == 0
    report = json.loads((Path(cfg["out"]) / "report.json").read_text())
    assert report["metrics_scale"] == "original"
    assert main(["compare", "--config", cfg_path]) == 0
    table = json.loads((Path(cfg["out"]) / "compare.json").read_text())
    assert table["metrics_scale"] == "original"


def test_fit_reports_what_compare_reports_for_its_method(tmp_path):
    methods = ["SGPR", "BT-SGPR", "T-PEP"]
    cfg_path, cfg = _write_config(tmp_path, methods=methods, alpha=0.5, blocks=4, epochs=4)
    assert main(["compare", "--config", cfg_path]) == 0
    rows = json.loads((Path(cfg["out"]) / "compare.json").read_text())["methods"]
    for method, row in zip(methods, rows):
        out = str(tmp_path / _method_slug(method))
        assert main(["fit", "--config", cfg_path, "--method", method, "--out", out]) == 0
        report = json.loads((Path(out) / "report.json").read_text())
        for key in ("objective", "rmse", "mean_ll", "sigma2", "kernel_variance", "m",
                    "lengthscales"):
            assert report[key] == row[key], (method, key)


def test_compare_needs_two_methods(tmp_path, capsys):
    cfg_path, _ = _write_config(tmp_path, methods=["SGPR"])
    assert main(["compare", "--config", cfg_path]) == 2
    assert "methods" in capsys.readouterr().err


def test_verify_small_passes_and_tamper_fails(tmp_path, capsys):
    assert main(["verify", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out

    vdir = str(tmp_path / "v")
    assert main(["verify", "--scale", "small", "--tamper-bias", "0.5",
                 "--out", vdir]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "ordering-chain" in out
    payload = json.loads((Path(vdir) / "verify.json").read_text())
    by_name = {r["name"]: r["passed"] for r in payload["results"]}
    assert by_name["ordering-chain"] is False


def test_predict_roundtrip(tmp_path, capsys):
    cfg_path, cfg = _write_config(tmp_path, method="SGPR", epochs=4)
    assert main(["fit", "--config", cfg_path]) == 0
    model = str(Path(cfg["out"]) / "model.json")

    rng = np.random.default_rng(0)
    xs = np.linspace(0.0, 6.0, 12)
    ys = np.sin(2 * xs) + 0.1 * rng.standard_normal(12)
    data = tmp_path / "new.csv"
    data.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(xs, ys)) + "\n")

    pdir = str(tmp_path / "pred")
    assert main(["predict", "--model", model, "--data", str(data),
                 "--out", pdir]) == 0
    lines = (Path(pdir) / "predictions.csv").read_text().splitlines()
    assert lines[0] == "feature_1,mean,variance,lower,upper,target"
    assert len(lines) == 13
    metrics = json.loads((Path(pdir) / "metrics.json").read_text())
    assert "rmse" in metrics and "mean_ll" in metrics
    assert "rmse_original" in metrics  # fit standardized, so both scales appear

    feats = tmp_path / "feats.csv"
    feats.write_text("x\n" + "\n".join(str(a) for a in xs) + "\n")
    p2 = str(tmp_path / "pred2")
    assert main(["predict", "--model", model, "--data", str(feats),
                 "--no-target", "--out", p2]) == 0
    lines2 = (Path(p2) / "predictions.csv").read_text().splitlines()
    assert lines2[0] == "feature_1,mean,variance,lower,upper"
    # same inputs, same model: identical predictions either way
    trimmed = {ln.rsplit(",", 1)[0] for ln in lines[1:]}
    assert trimmed == set(lines2[1:])


def test_predict_names_a_feature_column_the_file_lacks(tmp_path, capsys):
    rng = np.random.default_rng(2)
    table = np.column_stack([rng.uniform(-2, 2, (40, 2)), rng.standard_normal(40)])
    train = tmp_path / "train.csv"
    train.write_text("a,b,y\n" + "\n".join(",".join(map(repr, r)) for r in table.tolist()) + "\n")
    cfg_path, cfg = _write_config(tmp_path, method="SGPR", dataset=str(train), epochs=3)
    assert main(["fit", "--config", cfg_path]) == 0
    capsys.readouterr()
    other = tmp_path / "other.csv"
    other.write_text("a,c,y\n0.5,1.0,0.2\n1.5,0.3,-0.1\n")
    assert main(["predict", "--model", str(Path(cfg["out"]) / "model.json"),
                 "--data", str(other), "--out", str(tmp_path / "p")]) == 1
    assert "no columns named ['b']" in capsys.readouterr().err


def test_predict_rejects_wrong_width(tmp_path, capsys):
    cfg_path, cfg = _write_config(tmp_path, method="SGPR", epochs=3)
    assert main(["fit", "--config", cfg_path]) == 0
    model = str(Path(cfg["out"]) / "model.json")
    bad = tmp_path / "wide.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert main(["predict", "--model", model, "--data", str(bad),
                 "--no-target", "--out", str(tmp_path / "p")]) == 1
    assert "feature columns" in capsys.readouterr().err


def test_predict_reads_the_models_columns_whatever_the_rows_hold(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.uniform(-2.0, 2.0, (60, 2))
    table = np.column_stack([x, np.sin(x).sum(axis=1) + 0.1 * rng.standard_normal(60)])
    train = tmp_path / "train.csv"
    train.write_text("a,b,y\n" + "\n".join(",".join(map(repr, r)) for r in table.tolist()) + "\n")
    cfg_path, cfg = _write_config(tmp_path, method="SGPR", dataset=str(train), epochs=3)
    assert main(["fit", "--config", cfg_path]) == 0
    model = str(Path(cfg["out"]) / "model.json")
    # (a, b, y), three rows with a = 0.5
    rows = [[0.5, -1.0, 0.2], [1.5, 0.3, -0.1], [0.5, 0.7, 1.0], [-1.0, 1.2, 0.4], [0.5, 1.9, 0.0]]

    def predict_at(name, header, rows, *flags):
        path = tmp_path / f"{name}.csv"
        path.write_text(header + "\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n")
        out = tmp_path / name
        assert main(["predict", "--model", model, "--data", str(path), "--out", str(out),
                     *flags]) == 0
        return np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=1, ndmin=2)

    whole = predict_at("whole", "a,b,y", rows)
    assert whole.shape == (5, 7)
    np.testing.assert_allclose(predict_at("one", "a,b,y", rows[:1]), whole[:1], rtol=1e-12)
    same_a = [0, 2, 4]
    np.testing.assert_allclose(predict_at("same_a", "a,b,y", [rows[i] for i in same_a]),
                               whole[same_a], rtol=1e-12)
    # the model's columns are found by name, the target by --target-column
    moved = [[y, b, a] for a, b, y in rows]
    np.testing.assert_allclose(predict_at("moved", "y,b,a", moved, "--target-column", "y"),
                               whole, rtol=1e-12)


def test_fit_rejects_a_non_finite_csv_cell(tmp_path, capsys):
    rng = np.random.default_rng(5)
    table = np.column_stack([rng.uniform(-2, 2, (60, 2)), rng.standard_normal(60)])
    lines = ["a,b,y"] + [",".join(repr(float(v)) for v in row) for row in table]
    lines[8] = "nan" + lines[8][lines[8].index(","):]
    data = tmp_path / "nan.csv"
    data.write_text("\n".join(lines) + "\n")
    cfg_path, _ = _write_config(tmp_path, method="SGPR", dataset=str(data))
    assert main(["fit", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 9, column 1" in err


def test_missing_files_exit_nonzero(tmp_path, capsys):
    assert main(["fit", "--config", str(tmp_path / "nope.json")]) == 2
    assert main(["predict", "--model", str(tmp_path / "no.json"),
                 "--data", str(tmp_path / "no.csv")]) == 1
    capsys.readouterr()


def test_float_formatting_is_full_precision(tmp_path):
    cfg_path, cfg = _write_config(tmp_path, method="SGPR", epochs=3)
    assert main(["fit", "--config", cfg_path]) == 0
    report = json.loads((Path(cfg["out"]) / "report.json").read_text())
    # 17 significant digits survive a JSON round trip exactly
    text = (Path(cfg["out"]) / "report.json").read_text()
    assert repr(report["objective"])[:12] in text


def test_fit_reports_why_lbfgs_stopped_and_reruns_stay_byte_identical(tmp_path, capsys):
    cfg_path, cfg = _write_config(tmp_path, method="BT-SGPR", blocks=5, epochs=8)
    assert main(["fit", "--config", cfg_path]) == 0
    out = Path(cfg["out"])
    first = (out / "report.json").read_bytes()
    report = json.loads(first)
    assert report["lbfgs_function_evals"] >= report["steps"] >= 1
    line = [l for l in capsys.readouterr().out.splitlines() if "L-BFGS-B stopped" in l]
    assert len(line) == 1
    assert f"{report['lbfgs_function_evals']} value-and-gradient evaluations" in line[0]
    assert main(["fit", "--config", cfg_path]) == 0
    assert (out / "report.json").read_bytes() == first


@pytest.mark.parametrize("trainer,steps", [("collapsed", 6), ("stochastic", 12)])
def test_fit_reports_why_adam_stopped_and_keeps_no_lbfgs_count(tmp_path, capsys, trainer,
                                                                steps):
    cfg_path, cfg = _write_config(tmp_path, method="BT-SGPR", blocks=2, trainer=trainer,
                                  optimizer="adam")
    assert main(["fit", "--config", cfg_path]) == 0
    report = json.loads((Path(cfg["out"]) / "report.json").read_text())
    assert report["steps"] == steps
    assert "lbfgs_function_evals" not in report
    out = capsys.readouterr().out.splitlines()
    assert f"Adam stopped: step budget of {steps} steps ran out" in out
    assert not any("L-BFGS-B" in line for line in out)
