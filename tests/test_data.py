"""CSV loading, standardization, splitting, and initialization."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import kmeans_oracle, median_distance_oracle
from blockgp.data import (
    _nearest_center,
    DataFormatError,
    Dataset,
    DegenerateColumnError,
    EmptyDatasetError,
    apply_standardization,
    destandardize,
    init_inducing_kmeans,
    init_inducing_subset,
    init_lengthscales_median,
    initial_state,
    load_csv,
    load_features,
    split,
    standardize,
    synthetic_1d,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_with_and_without_header(tmp_path):
    with_header = _write(tmp_path, "a.csv", "x1,x2,y\n1,2,3\n4,5,6\n")
    without = _write(tmp_path, "b.csv", "1,2,3\n4,5,6\n")
    da = load_csv(with_header)
    db = load_csv(without)
    assert np.array_equal(da.x, db.x)
    assert np.array_equal(da.y, db.y)
    assert da.column_names == ["x1", "x2"]  # feature names, target excluded
    assert db.column_names is None
    assert_allclose(da.y, [3.0, 6.0])


def test_load_csv_target_column_selection(tmp_path):
    path = _write(tmp_path, "c.csv", "a,b,c\n1,2,3\n4,5,6\n")
    data = load_csv(path, target_column="b")
    assert_allclose(data.y, [2.0, 5.0])
    assert_allclose(data.x, [[1.0, 3.0], [4.0, 6.0]])
    with pytest.raises(DataFormatError):
        load_csv(path, target_column="nope")


def test_load_csv_parse_error_names_row_and_column(tmp_path):
    path = _write(tmp_path, "d.csv", "a,b\n1,2\n1,oops\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path)
    msg = str(err.value)
    assert "row 3" in msg and "column 2" in msg and "oops" in msg


def test_csv_errors_name_the_files_line_past_blank_rows(tmp_path):
    bad = _write(tmp_path, "blank.csv", "a,b\n\n1,2\n\n\nx,3\n")
    with pytest.raises(DataFormatError, match="row 6, column 1: cannot parse 'x'"):
        load_csv(bad)
    nonfinite = _write(tmp_path, "blank_inf.csv", "a,b\n \n1,2\n,\n3,inf\n")
    for load in (load_csv, load_features):
        with pytest.raises(DataFormatError, match="row 5, column 2: 'inf' is not a finite"):
            load(nonfinite)
    ragged = _write(tmp_path, "blank_ragged.csv", "\n1,2\n\n3\n")
    with pytest.raises(DataFormatError, match="row 4 has 1 cells"):
        load_features(ragged)


@pytest.mark.parametrize("cell", ["nan", "inf"])
@pytest.mark.parametrize("column", [1, 3])  # a feature, the target
def test_load_csv_rejects_non_finite_cells(tmp_path, cell, column):
    row = ["3", "4", "1.5"]
    row[column - 1] = cell
    text = "a,b,y\n1,0,0\n2,2,0.5\n" + ",".join(row) + "\n4,6,2\n"
    path = _write(tmp_path, "nf.csv", text)
    for load in (load_csv, load_features):
        with pytest.raises(DataFormatError) as err:
            load(path)
        msg = str(err.value)
        assert f"row 4, column {column}" in msg and repr(cell) in msg


def test_load_csv_empty_and_header_only(tmp_path):
    empty = _write(tmp_path, "e.csv", "")
    header_only = _write(tmp_path, "f.csv", "a,b\n")
    with pytest.raises(EmptyDatasetError):
        load_csv(empty)
    with pytest.raises(EmptyDatasetError):
        load_csv(header_only)


def test_load_csv_ragged_rows_rejected(tmp_path):
    path = _write(tmp_path, "g.csv", "1,2,3\n4,5\n")
    with pytest.raises(DataFormatError):
        load_csv(path)


def test_load_csv_drops_constant_columns_with_warning(tmp_path):
    path = _write(tmp_path, "h.csv", "a,b,y\n7,1,0\n7,2,1\n7,3,2\n")
    with pytest.warns(UserWarning):
        data = load_csv(path)
    assert data.x.shape == (3, 1)
    assert_allclose(data.x[:, 0], [1.0, 2.0, 3.0])


def test_load_csv_needs_two_columns(tmp_path):
    path = _write(tmp_path, "i.csv", "1\n2\n")
    with pytest.raises(DataFormatError):
        load_csv(path)


def test_load_features_keeps_every_column(tmp_path):
    path = _write(tmp_path, "j.csv", "u,v\n1,2\n3,4\n")
    x, names = load_features(path)
    assert np.array_equal(x, [[1.0, 2.0], [3.0, 4.0]])
    assert names == ["u", "v"]
    with pytest.raises(EmptyDatasetError):
        load_features(_write(tmp_path, "k.csv", ""))


def test_standardize_hand_values_and_roundtrip():
    data = Dataset(x=np.array([[0.0], [2.0]]), y=np.array([0.0, 2.0]))
    std = standardize(data)
    assert_allclose(std.x[:, 0], [-1.0, 1.0])
    assert_allclose(std.y, [-1.0, 1.0])
    back = destandardize(std)
    assert_allclose(back.x, data.x, atol=1e-12)
    assert_allclose(back.y, data.y, atol=1e-12)


def test_standardize_uses_population_deviation():
    data = Dataset(x=np.array([[1.0], [2.0], [3.0]]), y=np.array([1.0, 2.0, 3.0]))
    std = standardize(data)
    # population std of {1,2,3} is sqrt(2/3), not 1
    assert_allclose(std.y.max(), 1.0 / np.sqrt(2.0 / 3.0), rtol=1e-12)


def test_standardize_rejects_constant_columns():
    flat_x = Dataset(x=np.ones((3, 1)), y=np.array([1.0, 2.0, 3.0]))
    flat_y = Dataset(x=np.arange(3.0)[:, None], y=np.ones(3))
    with pytest.raises(DegenerateColumnError):
        standardize(flat_x)
    with pytest.raises(DegenerateColumnError):
        standardize(flat_y)


def test_apply_standardization_uses_foreign_stats():
    rng = np.random.default_rng(0)
    train = Dataset(x=rng.standard_normal((20, 2)), y=rng.standard_normal(20))
    other = Dataset(x=rng.standard_normal((5, 2)), y=rng.standard_normal(5))
    stats = standardize(train).stats
    held = apply_standardization(other, stats)
    assert_allclose(held.x, (other.x - stats.x_mean) / stats.x_std, rtol=1e-15)
    assert held.stats is stats


def test_apply_standardization_names_a_column_count_mismatch():
    # an (n, 1) x against 3-column statistics used to broadcast to (n, 3)
    rng = np.random.default_rng(0)
    stats = standardize(Dataset(x=rng.standard_normal((20, 3)), y=rng.standard_normal(20))).stats
    narrow = Dataset(x=rng.standard_normal((5, 1)), y=rng.standard_normal(5))
    with pytest.raises(ValueError, match="data has 1 feature columns but the statistics have 3"):
        apply_standardization(narrow, stats)


def test_split_sizes_disjointness_and_determinism():
    rng = np.random.default_rng(1)
    data = Dataset(x=rng.standard_normal((23, 2)), y=rng.standard_normal(23))
    train, test = split(data, 0.3, seed=4)
    assert test.n == int(np.floor(23 * 0.3))
    assert train.n + test.n == 23
    joined = np.vstack([train.x, test.x])
    assert np.unique(joined, axis=0).shape[0] == 23
    again_train, _ = split(data, 0.3, seed=4)
    assert np.array_equal(train.x, again_train.x)
    with pytest.raises(ValueError):
        split(data, 1.0)


def test_split_zero_fraction_keeps_everything():
    data = Dataset(x=np.arange(6.0)[:, None], y=np.arange(6.0))
    train, test = split(data, 0.0)
    assert train.n == 6 and test.n == 0


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(2)
    centers = np.array([[-10.0, 0.0], [0.0, 10.0], [10.0, -10.0]])
    x = np.vstack([c + 0.1 * rng.standard_normal((30, 2)) for c in centers])
    data = Dataset(x=x, y=np.zeros(90))
    z = init_inducing_kmeans(data, 3, seed=0)
    found = z[np.argsort(z[:, 0])]
    expected = centers[np.argsort(centers[:, 0])]
    assert np.abs(found - expected).max() < 0.2


def test_kmeans_with_m_equal_n_returns_the_points():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((7, 2))
    data = Dataset(x=x, y=np.zeros(7))
    z = init_inducing_kmeans(data, 7, seed=0)
    assert np.allclose(np.sort(z, axis=0), np.sort(x, axis=0), atol=1e-12)


def _benchmark_inputs(n, dim):
    """A benchmark workload's standardized training inputs: uniform on
    [-2, 2]^dim from the constant generator perfbench/workloads.py uses."""
    x = np.random.default_rng((20250702, n, dim)).uniform(-2.0, 2.0, size=(n, dim))
    return standardize(Dataset(x=x, y=x[:, 0])).x


def _repeated_rows(rng, distinct, copies, dim):
    x = np.repeat(rng.standard_normal((distinct, dim)), copies, axis=0)
    return x[rng.permutation(x.shape[0])]


# (inputs, num_inducing, bitwise): the benchmark's three training sets with
# their M, random sets over a range of D, duplicate rows, a start with more
# centers than distinct points (k-means++ then repeats a point, and the
# repeat's cluster stays empty) and M = N.  bitwise marks the cases whose
# centers must equal the oracle's exactly; with D = 1 the oracle's column
# mean sums by pairs, bincount in row order.
_KMEANS_CASES = {
    "btsgpr-lbfgs": (lambda: _benchmark_inputs(2000, 4), 32, True),
    "tpep-fine-blocks": (lambda: _benchmark_inputs(1000, 2), 8, True),
    "btsgpr-minibatch": (lambda: _benchmark_inputs(6000, 2), 8, True),
    **{
        f"random-d{d}": (
            lambda d=d: np.random.default_rng(60 + d).standard_normal((500, d)), 24, d > 1
        )
        for d in (1, 2, 4, 9, 12)
    },
    "random-m128": (lambda: np.random.default_rng(68).standard_normal((2000, 4)), 128, True),
    "duplicate-rows": (lambda: _repeated_rows(np.random.default_rng(61), 60, 3, 3), 10, True),
    "empty-cluster": (lambda: _repeated_rows(np.random.default_rng(62), 4, 5, 2), 5, True),
    "m-equals-n": (lambda: np.random.default_rng(63).standard_normal((40, 3)), 40, True),
}


@pytest.mark.parametrize("case", list(_KMEANS_CASES))
def test_kmeans_matches_the_difference_array_oracle(case):
    make, m, bitwise = _KMEANS_CASES[case]
    x = make()
    z = init_inducing_kmeans(Dataset(x=x, y=np.zeros(x.shape[0])), m, seed=0)
    expected, history = kmeans_oracle(x, m, seed=0)
    # every assignment the oracle made, from the centers it made it against
    for centers, assign in history:
        assert np.array_equal(_nearest_center(x, centers), assign)
    assert np.max(np.abs(z - expected)) <= 1e-12 * np.max(np.abs(x))
    if bitwise:
        assert np.array_equal(z, expected)
    if case == "empty-cluster":
        assert np.bincount(history[-1][1], minlength=m).min() == 0


def _traced_peak(fun):
    tracemalloc.start()
    try:
        fun()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kmeans_memory_does_not_grow_with_n_times_m():
    # the (N, M, D) difference array would be 61 MB at N = 2e4 and 307 MB
    # at N = 1e5; what may grow is a few length-N vectors
    peaks, sizes = [], []
    for n in (20_000, 100_000):
        x = np.random.default_rng(64).uniform(-2.0, 2.0, size=(n, 4))
        data = Dataset(x=x, y=np.zeros(n))
        peaks.append(_traced_peak(lambda: init_inducing_kmeans(data, 128, max_iter=2)))
        sizes.append(x.nbytes)
    assert peaks[1] - peaks[0] < sizes[1]


def test_median_lengthscale_memory_stays_under_16_mb():
    # the (1000, 1000, 16) difference array alone would be 122 MB
    x = np.random.default_rng(65).standard_normal((3000, 16))
    data = Dataset(x=x, y=np.zeros(3000))
    assert _traced_peak(lambda: init_lengthscales_median(data)) < 16 * 2**20


def _median_case(case):
    rng = np.random.default_rng(66)
    if case == "below-subsample":
        return rng.standard_normal((400, 3))
    if case == "above-subsample":
        return rng.standard_normal((1500, 3))
    if case == "duplicate-points":
        return _repeated_rows(rng, 150, 2, 3)
    if case == "odd-count":
        return rng.standard_normal((30, 3))  # 435 distances
    return np.tile(rng.standard_normal(3), (30, 1))  # identical points


@pytest.mark.parametrize(
    "case",
    ["below-subsample", "above-subsample", "duplicate-points", "odd-count",
     "identical-points"],
)
def test_median_lengthscale_matches_the_difference_array_oracle(case):
    x = _median_case(case)
    sub = x
    if x.shape[0] > 1000:
        sub = x[np.random.default_rng(0).choice(x.shape[0], 1000, replace=False)]
    med = median_distance_oracle(sub)
    if case == "identical-points":
        assert med == 0.0
        med = 1.0
    params = init_lengthscales_median(Dataset(x=x, y=np.zeros(x.shape[0])))
    assert np.array_equal(params.log_lengthscales, np.full(3, np.log(med)))


def test_median_lengthscale_from_eight_or_more_columns_within_rounding():
    # from D = 8 on numpy sums each squared distance by pairs and pdist in
    # column order, so a distance, and the median, can move by rounding
    d = 12
    x = np.random.default_rng(67).standard_normal((300, d))
    params = init_lengthscales_median(Dataset(x=x, y=np.zeros(300)))
    expected = np.log(median_distance_oracle(x))
    assert_allclose(params.log_lengthscales, expected, rtol=0, atol=d * np.finfo(float).eps)


def test_subset_init_draws_data_rows():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((15, 3))
    data = Dataset(x=x, y=np.zeros(15))
    z = init_inducing_subset(data, 6, seed=1)
    assert z.shape == (6, 3)
    for row in z:
        assert np.any(np.all(np.isclose(x, row), axis=1))
    assert np.array_equal(z, init_inducing_subset(data, 6, seed=1))


def test_median_lengthscale_scales_with_inputs():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 2))
    data = Dataset(x=x, y=rng.standard_normal(40))
    params = init_lengthscales_median(data)
    scaled = init_lengthscales_median(Dataset(x=3.0 * x, y=data.y))
    assert_allclose(scaled.lengthscales, 3.0 * params.lengthscales, rtol=1e-9)
    assert_allclose(params.signal_variance, 1.0, rtol=1e-12)


def test_initial_state_wiring():
    rng = np.random.default_rng(6)
    data = Dataset(x=rng.standard_normal((25, 2)), y=rng.standard_normal(25))
    state = initial_state(data, 5, seed=0)
    assert state.num_inducing == 5
    assert state.log_m_scale is None
    assert_allclose(state.noise.noise_variance, 0.1, rtol=1e-12)
    with_m = initial_state(data, 5, seed=0, with_m=True)
    assert with_m.m_scale == 1.0 and with_m.log_m_scale == 0.0
    km = initial_state(data, 5, seed=0, inducing="kmeans")
    assert km.inducing.shape == (5, 2)
    with pytest.raises(ValueError):
        initial_state(data, 26)
    with pytest.raises(ValueError):
        initial_state(data, 5, inducing="grid")
    for noise_variance in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_variance must be positive and finite"):
            initial_state(data, 5, noise_variance=noise_variance)


def test_kmeans_names_a_negative_or_fractional_max_iter():
    data = Dataset(x=np.random.default_rng(8).standard_normal((30, 2)), y=np.zeros(30))
    for max_iter in (-1, 2.5, True):
        with pytest.raises(ValueError, match="max_iter must be a non-negative integer"):
            init_inducing_kmeans(data, 4, max_iter=max_iter)
    # no Lloyd iteration: the k-means++ seeds are rows of the data
    seeds = init_inducing_kmeans(data, 4, max_iter=0)
    assert all((data.x == row).all(axis=1).any() for row in seeds)


def test_synthetic_1d_reproducible():
    a = synthetic_1d(50, seed=9)
    b = synthetic_1d(50, seed=9)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert a.x.shape == (50, 1)
    assert not np.array_equal(a.y, synthetic_1d(50, seed=10).y)
