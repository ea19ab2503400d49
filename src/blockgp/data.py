"""Datasets: CSV loading, standardization, splits, and initialization.

The CSV reader accepts plain numeric tables with or without a header
row.  By default the last column is the regression target; a named
target column can be picked when a header is present.  Constant feature
columns are dropped (their lengthscales would be unidentifiable) with a
warning.
"""

from __future__ import annotations

import csv
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .kernels import KernelParams, NoiseParam
from .model import ModelState


# Entries in one chunk of k-means distances (2 MB of float64), so the
# set-up's memory does not grow with N times M.
KMEANS_CHUNK_ENTRIES = 2**18

# Lloyd iterations stop once no center moves by this much in any coordinate.
KMEANS_TOL = 1e-6

# The median-distance lengthscale reads at most this many points' distances.
MEDIAN_SUBSAMPLE = 1000


class DataFormatError(ValueError):
    """CSV contents that cannot become a numeric table; says where."""


class EmptyDatasetError(DataFormatError):
    """A CSV with no data rows (or none left after dropping columns)."""


class DegenerateColumnError(ValueError):
    """A constant column where standardization needs spread."""


@dataclass(frozen=True)
class StandardizationStats:
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray
    y: np.ndarray
    column_names: Optional[List[str]] = None
    stats: Optional[StandardizationStats] = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-d, got shape {x.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows, y has {y.shape[0]}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def _looks_like_header(row: List[str]) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def _read_numeric_table(path: str):
    """Shared CSV guts: header autodetect, cell parsing, shape checks.

    The file is read as UTF-8, past a byte-order mark if it starts with
    one.  Blank and whitespace-only rows are skipped.  A cell that does not
    parse, or parses to nan or inf, raises DataFormatError naming its
    row (the file's line number) and column.

    Returns (values, names) with names None for headerless files.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if any(c.strip() for c in row)]
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    names: Optional[List[str]] = None
    if _looks_like_header(rows[0][1]):
        names = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
    if not rows:
        raise EmptyDatasetError(f"{path}: header but no data rows")
    width = len(rows[0][1])
    values = np.empty((len(rows), width))
    for i, (line, row) in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(f"{path}: row {line} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {line}, column {j + 1}: "
                    f"cannot parse {cell.strip()!r} as a number"
                ) from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        line, row = rows[i]
        raise DataFormatError(
            f"{path}: row {line}, column {j + 1}: "
            f"{row[j].strip()!r} is not a finite number"
        )
    if names is not None and len(names) != width:
        raise DataFormatError(
            f"{path}: header has {len(names)} names for {width} columns"
        )
    return values, names


def load_features(path: str) -> Tuple[np.ndarray, Optional[List[str]]]:
    """Read a numeric CSV (optional header) as a plain feature matrix."""
    values, names = _read_numeric_table(path)
    return values, names


def load_csv(path: str, target_column: Optional[str] = None,
             keep_constant: bool = False) -> Dataset:
    """Read a numeric CSV into a Dataset.

    Header row is auto-detected (any non-numeric cell in the first
    row).  The target is the named column if given, else the last one.
    Constant feature columns are dropped with a warning, unless
    keep_constant (inputs to predict at, whose columns are the model's
    whatever their spread).  Malformed or non-finite cells raise
    DataFormatError naming the row and column.
    """
    values, names = _read_numeric_table(path)
    width = values.shape[1]
    if width < 2:
        raise DataFormatError(f"{path}: need at least two columns (features, target)")

    if target_column is not None:
        if names is None:
            raise DataFormatError(
                f"{path}: target column {target_column!r} needs a header row"
            )
        if target_column not in names:
            raise DataFormatError(
                f"{path}: no column named {target_column!r}; have {names}"
            )
        t = names.index(target_column)
    else:
        t = width - 1
    feature_idx = [j for j in range(width) if j != t]
    x = values[:, feature_idx]
    y = values[:, t]
    feature_names = [names[j] for j in feature_idx] if names is not None else None
    if keep_constant:
        return Dataset(x=x, y=y, column_names=feature_names)

    keep = np.ptp(x, axis=0) > 0.0
    if not keep.all():
        dropped = np.flatnonzero(~keep).tolist()
        label = dropped if feature_names is None else [feature_names[j] for j in dropped]
        warnings.warn(f"{path}: dropping constant feature columns {label}")
        x = x[:, keep]
        if feature_names is not None:
            feature_names = [name for name, kept in zip(feature_names, keep) if kept]
    if x.shape[1] == 0:
        raise DataFormatError(f"{path}: all feature columns are constant")
    return Dataset(x=x, y=y, column_names=feature_names)


def standardize(data: Dataset) -> Dataset:
    """Shift and scale to zero mean, unit (population) deviation per column."""
    x_mean = data.x.mean(axis=0)
    x_std = data.x.std(axis=0)
    if np.any(x_std == 0.0):
        raise DegenerateColumnError("cannot standardize a constant feature column")
    y_mean = float(data.y.mean())
    y_std = float(data.y.std())
    if y_std == 0.0:
        raise DegenerateColumnError("cannot standardize a constant target")
    stats = StandardizationStats(x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)
    return replace(
        data,
        x=(data.x - x_mean) / x_std,
        y=(data.y - y_mean) / y_std,
        stats=stats,
    )


def apply_standardization(data: Dataset, stats: StandardizationStats) -> Dataset:
    """Standardize with someone else's statistics (for held-out data)."""
    if data.dim != np.size(stats.x_mean):
        raise ValueError(
            f"data has {data.dim} feature columns but the statistics have "
            f"{np.size(stats.x_mean)}"
        )
    return replace(
        data,
        x=(data.x - stats.x_mean) / stats.x_std,
        y=(data.y - stats.y_mean) / stats.y_std,
        stats=stats,
    )


def destandardize(data: Dataset) -> Dataset:
    """Undo standardize; round-trips to the original values."""
    if data.stats is None:
        raise ValueError("dataset carries no standardization stats")
    s = data.stats
    return replace(data, x=data.x * s.x_std + s.x_mean, y=data.y * s.y_std + s.y_mean, stats=None)


def split(data: Dataset, test_fraction: float, seed: int = 0) -> Tuple[Dataset, Dataset]:
    """Seeded train/test split with floor(N * test_fraction) test points."""
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in [0, 1), got {test_fraction}")
    n_test = int(np.floor(data.n * test_fraction))
    perm = np.random.default_rng(seed).permutation(data.n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    mk = lambda idx: replace(data, x=data.x[idx], y=data.y[idx])
    return mk(train_idx), mk(test_idx)


def init_lengthscales_median(data: Dataset, seed: int = 0) -> KernelParams:
    """Kernel init: every lengthscale at the median pairwise distance.

    Distances come from a seeded subsample of at most MEDIAN_SUBSAMPLE
    points (the full set, hence the exact median, below that size).
    Signal variance starts at 1.  scipy.spatial is imported here, on
    the first call, so loading a saved model never reads it.
    """
    from scipy.spatial.distance import pdist

    if data.n < 2:
        raise ValueError("median-distance init needs at least two points")
    x = data.x
    if x.shape[0] > MEDIAN_SUBSAMPLE:
        idx = np.random.default_rng(seed).choice(x.shape[0], MEDIAN_SUBSAMPLE, replace=False)
        x = x[idx]
    dist = pdist(x)
    # np.median's value from one partition at k: for an even count the
    # lower middle value is the largest entry left of k.  np.median
    # partitions at both middle indices, which is several times slower.
    k = dist.size // 2
    dist.partition(k)
    med = float(dist[k] if dist.size % 2 else (dist[:k].max() + dist[k]) / 2.0)
    if med <= 0.0:
        med = 1.0
    return KernelParams(
        log_lengthscales=np.full(data.dim, np.log(med)),
        log_signal_variance=0.0,
    )


def init_inducing_subset(data: Dataset, num_inducing: int, seed: int = 0) -> np.ndarray:
    """Inducing init: a seeded random subset of the training inputs."""
    if not 1 <= num_inducing <= data.n:
        raise ValueError(f"num_inducing must be in [1, {data.n}], got {num_inducing}")
    idx = np.random.default_rng(seed).choice(data.n, num_inducing, replace=False)
    return data.x[np.sort(idx)].copy()


def _row_chunks(n: int, width: int):
    """Slices of 0..n-1 whose rows hold about KMEANS_CHUNK_ENTRIES entries."""
    step = max(1, KMEANS_CHUNK_ENTRIES // width)
    return (slice(s, s + step) for s in range(0, n, step))


def _sq_dist_to(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distance of every row of x to the point c, a chunk at a time."""
    out = np.empty(x.shape[0])
    for rows in _row_chunks(x.shape[0], x.shape[1]):
        out[rows] = np.sum((x[rows] - c) ** 2, axis=1)
    return out


def _nearest_center(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each row's nearest center (the first one on a tie).

    Takes argmin of ||c||^2 - 2 x.c, which leaves out the ||x||^2 term
    that is the same for every center, a chunk of rows at a time.  It
    rounds differently from summing (x - c)^2, so a near tie could go
    the other way; tests/_oracles.py keeps the direct form to check it.
    """
    # C-ordered, since centers.T is F-ordered: with one BLAS thread on a
    # 2-core Xeon, x @ neg2ct at 6000x2 @ 2x8 took 45 us F-ordered, 14 us
    # C-ordered, with the same bits
    neg2ct = np.ascontiguousarray(-2.0 * centers.T)
    cc = np.einsum("ij,ij->i", centers, centers)
    assign = np.empty(x.shape[0], dtype=np.intp)
    for rows in _row_chunks(x.shape[0], centers.shape[0]):
        d = x[rows] @ neg2ct
        d += cc
        assign[rows] = d.argmin(axis=1)
    return assign


def init_inducing_kmeans(
    data: Dataset, num_inducing: int, seed: int = 0, max_iter: int = 100
) -> np.ndarray:
    """Inducing init: k-means centers of the inputs (k-means++ seeding).

    Lloyd iterations until no center moves by KMEANS_TOL in any
    coordinate, or max_iter; a center that loses all its points stays
    where it is.  Each iteration costs O(NMD) time and holds a few
    length-N vectors next to the inputs, whatever M is.  max_iter 0
    returns the k-means++ seeds.
    """
    if not 1 <= num_inducing <= data.n:
        raise ValueError(f"num_inducing must be in [1, {data.n}], got {num_inducing}")
    integral = isinstance(max_iter, numbers.Integral) and not isinstance(max_iter, bool)
    if not (integral and max_iter >= 0):
        raise ValueError(f"max_iter must be a non-negative integer, got {max_iter!r}")
    x = data.x
    rng = np.random.default_rng(seed)
    centers = np.empty((num_inducing, data.dim))
    centers[0] = x[rng.integers(data.n)]
    d2 = _sq_dist_to(x, centers[0])
    for k in range(1, num_inducing):
        total = d2.sum()
        if total <= 0.0:
            centers[k] = x[rng.integers(data.n)]
        else:
            centers[k] = x[rng.choice(data.n, p=d2 / total)]
        d2 = np.minimum(d2, _sq_dist_to(x, centers[k]))
    for _ in range(max_iter):
        assign = _nearest_center(x, centers)
        counts = np.bincount(assign, minlength=num_inducing)
        filled = counts > 0
        new_centers = centers.copy()
        for j in range(data.dim):
            # bincount adds each cluster's members in row order, the order
            # of a column mean over the members
            sums = np.bincount(assign, weights=x[:, j], minlength=num_inducing)
            new_centers[filled, j] = sums[filled] / counts[filled]
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift < KMEANS_TOL:
            break
    return centers


def initial_state(
    data: Dataset,
    num_inducing: int,
    seed: int = 0,
    inducing: str = "subset",
    noise_variance: float = 0.1,
    with_m: bool = False,
) -> ModelState:
    """Bundle the standard initializers into a ready ModelState.

    Median-distance lengthscales, unit signal variance, noise variance
    0.1, inducing inputs from a random subset or k-means centers, and
    (with with_m) the scalar gap scale starting at 1.  noise_variance
    must be positive and finite.
    """
    if not 0.0 < noise_variance < np.inf:
        raise ValueError(f"noise_variance must be positive and finite, got {noise_variance}")
    kernel = init_lengthscales_median(data, seed=seed)
    if inducing == "subset":
        z = init_inducing_subset(data, num_inducing, seed=seed)
    elif inducing == "kmeans":
        z = init_inducing_kmeans(data, num_inducing, seed=seed)
    else:
        raise ValueError(f"inducing must be 'subset' or 'kmeans', got {inducing!r}")
    return ModelState(
        kernel=kernel,
        noise=NoiseParam(log_noise_variance=float(np.log(noise_variance))),
        inducing=z,
        log_m_scale=0.0 if with_m else None,
    )


def synthetic_1d(n: int, seed: int = 0, noise_std: float = 0.25) -> Dataset:
    """A bumpy 1-d regression set in the spirit of the classic sparse-GP demo."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 6.0, size=n))
    f = np.sin(2.0 * x) + 0.4 * np.cos(5.0 * x) + 0.3 * x
    y = f + noise_std * rng.standard_normal(n)
    return Dataset(x=x[:, None], y=y)
