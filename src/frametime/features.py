"""Differential feature rows and their offline selection.

The online model always carries two frequency terms, the scalable-time
term (the previous frame time times the relative clock step) and the
frequency delta, plus the deltas of a chosen subset of
frequency-independent counters.  build_dataset forms these rows with
estimator.differential_features, in raw units; the online estimators see
them divided by estimator.estimator_units.

Selection runs in two stages on a characterization trace: counters
correlated with the GPU frequency are pruned by Pearson correlation, then
an L1-penalized regression with cross-validation picks the informative
counters among the survivors.  The chosen set is frozen for online use.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .estimator import differential_features
from .trace import (DegenerateDataError, FrozenRecord, SpecMismatchError, Trace,
                    checked_tuple)

PEARSON_THRESHOLD = 0.1  # |r| against the clock at or above which a counter is pruned
CV_FOLDS = 10
ETA_GRID_POINTS = 50
ETA_GRID_RATIO = 1e-4    # smallest penalty of the grid, relative to the all-zero one
# singular values below this share of the largest are rounding left by
# centring, not rank; numpy's default cut (about 1e-15 relative) lets them in
RANK_RTOL = 1e-10


class FeatureSpec(checked_tuple("FeatureSpec", "indep_counter_indices counter_names")):
    """Frozen online feature set: which counters join the frequency terms."""

    __slots__ = ()

    def __new__(cls, indep_counter_indices: tuple[int, ...],
                counter_names: tuple[str, ...] = ()):
        idx = tuple(int(i) for i in indep_counter_indices)
        counter_names = tuple(counter_names)
        if len(set(idx)) != len(idx):
            raise ValueError("counter indices must be unique")
        if any(i < 0 for i in idx):
            raise ValueError("counter indices must be >= 0")
        if counter_names and len(counter_names) != len(idx):
            raise ValueError("counter_names must align with indices")
        return super().__new__(cls, idx, counter_names)

    @property
    def m(self) -> int:
        """Total feature count: two frequency terms plus the counters."""
        return 2 + len(self.indep_counter_indices)


class RegressionDataset(FrozenRecord):
    """Feature rows and frame-time-delta targets from consecutive samples.
    It holds the arrays it is given, and compares by identity."""

    __slots__ = ("h", "targets", "feature_spec")

    def __init__(self, h: np.ndarray,        # (rows, M) feature matrix
                 targets: np.ndarray,        # (rows,) delta frame time, ms
                 feature_spec: FeatureSpec):
        if h.ndim != 2 or h.shape[1] != feature_spec.m:
            raise ValueError("feature matrix width must equal the spec's M")
        if targets.shape != (h.shape[0],):
            raise ValueError("targets must align with feature rows")
        bad = np.flatnonzero(~(np.isfinite(h).all(axis=1) & np.isfinite(targets)))
        if bad.size:
            # row i is the step from trace row i to trace row i + 1
            raise ValueError(f"dataset entries must be finite: not so for trace row "
                             f"{bad[0] + 1}, the step from row {bad[0]}")
        self._init(h=h, targets=targets, feature_spec=feature_spec)

    def __len__(self):
        return self.h.shape[0]


class LassoPath(NamedTuple):
    """Per-penalty results of the cross-validated L1 path, each array one
    entry per eta, as cross_validated_path builds them."""

    etas: np.ndarray          # descending penalty grid
    coefs: np.ndarray         # (len(etas), M), original units
    cv_mean_mse: np.ndarray
    cv_stderr: np.ndarray
    nonzero_counts: np.ndarray
    feature_spec: FeatureSpec  # candidate set the columns refer to


def pearson_prune(trace: Trace) -> list[int]:
    """Indices of counters whose Pearson r against the GPU frequency is
    below PEARSON_THRESHOLD in magnitude.

    Counters tracking the clock get pruned; constant counters carry no
    signal at all and are disqualified too: their r is nan rather than a
    divide error or the rounding residue of centring them, and so is the r
    of a counter whose centred values square to zero.  A trace of fewer
    than two rows or of a single frequency raises DegenerateDataError.
    """
    freqs = trace.freqs
    if len(trace) < 2:
        raise DegenerateDataError(
            f"trace has {len(trace)} rows; correlation with frequency needs at least two")
    if np.ptp(freqs) == 0:
        raise DegenerateDataError(
            "trace spans a single frequency, correlation with frequency is undefined")
    fc = freqs - freqs.mean()
    fnorm = float(np.sqrt(fc @ fc))
    counters = trace.counters
    kept = []
    for j in range(counters.shape[1]):
        xc = counters[:, j] - counters[:, j].mean()
        denom = fnorm * float(np.sqrt(xc @ xc))
        # a column that is not constant may still centre to values whose
        # squares underflow: no measurable variance, so no r either
        r = np.nan if np.ptp(counters[:, j]) == 0 or denom == 0 else float(fc @ xc) / denom
        if np.isfinite(r) and abs(r) < PEARSON_THRESHOLD:
            kept.append(j)
    return kept


def check_spec(trace: Trace, spec: FeatureSpec) -> None:
    """Raise SpecMismatchError for a spec index beyond the trace's
    counters, or a spec name that is not the trace's at that index."""
    names = trace.counter_names
    bad = [i for i in spec.indep_counter_indices if i >= len(names)]
    if bad:
        raise SpecMismatchError(f"feature spec indexes counters {bad} beyond the trace's "
                                f"{len(names)}")
    for i, name in zip(spec.indep_counter_indices, spec.counter_names):
        if names[i] != name:
            raise SpecMismatchError(f"feature spec names counter {i} {name!r}, "
                                    f"the trace names it {names[i]!r}")


def build_dataset(trace: Trace, spec: FeatureSpec) -> RegressionDataset:
    """Differential rows from every consecutive sample pair.

    Row k-1 holds h built from samples (k-1, k) and the target
    t_k - t_{k-1}; the dataset has len(trace) - 1 rows.  Features are in
    raw units here (MHz, counts); online use divides them by
    estimator.estimator_units.

    A trace of fewer than two rows raises DegenerateDataError, then a spec
    that does not fit the trace raises check_spec's SpecMismatchError.
    """
    if len(trace) < 2:
        raise DegenerateDataError("trace too short to form differential rows")
    check_spec(trace, spec)

    t = trace.frame_times
    f = trace.freqs
    x = trace.counters[:, list(spec.indep_counter_indices)]

    # finite fields can still overflow a feature; the dataset check names
    # the first such row instead of numpy warning about it
    with np.errstate(over="ignore", invalid="ignore"):
        h = differential_features(t[:-1], f[:-1], f[1:], x[1:] - x[:-1])
        targets = t[1:] - t[:-1]
    return RegressionDataset(h=h, targets=targets, feature_spec=spec)


# ---------------------------------------------------------------------------
# Exact L1 path and its cross-validation

def _standardize(h: np.ndarray, y: np.ndarray):
    """(X, yc, x_mean, x_std, y_mean): the columns of h centred and scaled
    by their population std (1 where that is 0), and y centred.

    One pass with numpy's own mean and std arithmetic, sum / n and
    sqrt(sum(c * c) / n) with c = h - mean, so x_std is h.std(axis=0) bit
    for bit.  A constant column is then centred on its first value, so it
    is exact zeros even where its mean rounds off that value.
    """
    n = h.shape[0]
    x_mean = h.sum(axis=0) / n
    X = h - x_mean
    x_std = np.sqrt((X * X).sum(axis=0) / n)
    const = (h == h[0]).all(axis=0)
    x_mean[const] = h[0, const]
    X[:, const] = h[:, const] - x_mean[const]
    x_std[x_std == 0] = 1.0
    X /= x_std
    y_mean = y.mean()
    return X, y - y_mean, x_mean, x_std, y_mean


def _raises_rank(R: np.ndarray, active: list[int], j: int) -> bool:
    """Whether column j adds to the numerical rank of the active columns:
    counting singular values above RANK_RTOL of the largest, the block of
    both has more than len(active).  R is the triangular factor of X = QR;
    R[:, S] has the singular values of X[:, S] (Golub & Van Loan, Matrix
    Computations, 5.2) and at most as many rows as X has columns."""
    sv = np.linalg.svd(R[:, active + [j]], compute_uv=False)
    return np.count_nonzero(sv > RANK_RTOL * sv[0]) > len(active)


def _lasso_path(X: np.ndarray, y: np.ndarray, lam_min: float):
    """Knots (lams descending, coefs) of argmin ||y - X a||^2 + eta ||a||_1, lam = eta / 2.

    The LARS homotopy with the lasso modification (Efron, Hastie,
    Johnstone & Tibshirani, Ann. Statist. 2004), in covariance form: from
    the all-zero solution at lam = max |X'y| down to lam_min, the
    coefficients are linear in lam between knots, where one column joins
    or leaves the active set, so interpolating between the knots is exact.
    A column joins only if it raises the numerical rank of the active
    block (singular values above RANK_RTOL of the largest): duplicate and
    constant columns never join, and the active set stops growing at
    rank(X).  The rank tests read the triangular factor of X = QR, taken
    once per path, in place of the tall column blocks of X.

    The products with the Gram matrix, the solve, the QR and the SVDs are
    numpy calls.  Each knot's bookkeeping, a few entries per column, is
    on Python floats, whose operations round as numpy's elementwise ones
    do: each step to a joining column (up, down and their minimum gamma),
    each active column's step to zero (hit), and the signs.  A
    conditional expression computes no quotient it does not use, so none
    divides by zero, and the minimum picks a nan as np.minimum does.
    """
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    if lam_min < 0:
        raise ValueError("eta must be >= 0")
    gram = X.T @ X
    xy = X.T @ y
    R = np.linalg.qr(X, mode="r")
    m = X.shape[1]
    a = np.zeros(m)
    signs = [0.0] * m
    c = xy.tolist()     # correlations with the residual
    lam = float(np.max(np.abs(xy)))
    lams, knots = [lam], [a.copy()]
    active: list[int] = []
    dropped = None
    inf = math.inf
    while lam > lam_min:
        d = np.zeros(m)  # coefficient change per unit decrease of lam
        if active:
            d[active] = np.linalg.solve(gram[active][:, active], [signs[j] for j in active])
        w = (gram @ d).tolist()     # correlation change per unit decrease of lam
        step, join, leave = lam - lam_min, None, None
        inactive = [j for j in range(m) if j not in active]
        up = {j: max(lam - c[j], 0.0) / (1.0 - w[j]) if w[j] < 1 else inf for j in inactive}
        down = {j: max(lam + c[j], 0.0) / (1.0 + w[j]) if w[j] > -1 else inf
                for j in inactive}
        if dropped is not None:
            # it left with |c| = lam and may only come back with the other sign
            (up if signs[dropped] > 0 else down)[dropped] = inf
        gamma = {j: up[j] if up[j] <= down[j] or up[j] != up[j] else down[j]
                 for j in inactive}
        for j in sorted(inactive, key=gamma.__getitem__):
            if gamma[j] >= step:
                break
            if _raises_rank(R, active, j):
                step, join = gamma[j], j
                break
        d_list, a_list = d.tolist(), a.tolist()
        for j in active:
            hit = -a_list[j] / d_list[j] if d_list[j] != 0 else inf
            if 0 < hit < step:
                step, join, leave = hit, None, j
        a += step * d
        lam = lam - step if join is not None or leave is not None else lam_min
        c = (xy - gram @ a).tolist()
        dropped = leave
        if join is not None:
            active.append(join)
            signs[join] = 1.0 if up[join] <= down[join] else -1.0
        if leave is not None:
            active.remove(leave)
            a[leave] = 0.0
        lams.append(lam)
        knots.append(a.copy())
    return np.array(lams), np.array(knots)


def cross_validated_path(dataset: RegressionDataset) -> LassoPath:
    """Held-out MSE with CV_FOLDS contiguous time blocks along a descending
    log grid of ETA_GRID_POINTS penalties (LassoPath.etas), from the smallest
    all-zero penalty of the standardized data down to ETA_GRID_RATIO times it.

    Rows are serially correlated, so folds are contiguous blocks rather
    than shuffled rows; the result is deterministic.  Inputs are
    standardized per fit (the penalty applies to standardized
    coefficients; coefs come back in the original feature units); the
    full data is standardized once, for the grid and its own fit.  Each
    fold and the full data take one exact path, read at every penalty.
    A fold trains on a copy of the rows before and after its test block,
    two slices joined, and tests on the block itself, a slice.  A dataset
    of fewer than CV_FOLDS rows raises DegenerateDataError.
    """
    n = len(dataset)
    if n < CV_FOLDS:
        raise DegenerateDataError(f"dataset has {n} rows, fewer than {CV_FOLDS} folds")
    full = _standardize(dataset.h, dataset.targets)
    eta_max = 2.0 * float(np.max(np.abs(full[0].T @ full[1]))) or 1.0
    etas = np.geomspace(eta_max, eta_max * ETA_GRID_RATIO, ETA_GRID_POINTS)

    def fit(X, yc, x_mean, x_std, y_mean):
        lams, knots = _lasso_path(X, yc, etas[-1] / 2.0)
        a = np.column_stack([np.interp(etas / 2.0, lams[::-1], col[::-1]) for col in knots.T])
        coefs = a / x_std
        return coefs, y_mean - coefs @ x_mean

    coefs_path, _ = fit(*full)
    del full    # so that no fold's standardized copy sits beside it

    # C order whatever the dataset's layout, so that neither the fold copies'
    # layout nor the rounding of their column sums depends on it
    h, y = np.ascontiguousarray(dataset.h), dataset.targets
    bounds = np.linspace(0, n, CV_FOLDS + 1, dtype=int).tolist()
    fold_mse = np.empty((etas.size, CV_FOLDS))
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        train = _standardize(np.concatenate((h[:lo], h[hi:])), np.concatenate((y[:lo], y[hi:])))
        coefs, intercepts = fit(*train)
        err = y[lo:hi, None] - (h[lo:hi] @ coefs.T + intercepts)
        fold_mse[:, k] = np.mean(err * err, axis=0)

    return LassoPath(
        etas=etas,
        coefs=coefs_path,
        cv_mean_mse=fold_mse.mean(axis=1),
        cv_stderr=fold_mse.std(axis=1, ddof=1) / np.sqrt(CV_FOLDS),
        nonzero_counts=np.count_nonzero(coefs_path, axis=1),
        feature_spec=dataset.feature_spec,
    )


def select_features(path: LassoPath, rule: str = "min_mse") -> FeatureSpec:
    """Freeze the online feature set from a fitted path.

    rule "min_mse" picks the penalty with the lowest cross-validated MSE;
    "one_se" the sparsest penalty within one standard error of it.  The
    two frequency terms are structural and always retained, even when the
    penalty shrank them; only counters are subject to the support.
    """
    i_min = int(np.argmin(path.cv_mean_mse))
    if rule == "min_mse":
        chosen = i_min
    elif rule == "one_se":
        limit = path.cv_mean_mse[i_min] + path.cv_stderr[i_min]
        chosen = next(i for i in range(path.etas.size) if path.cv_mean_mse[i] <= limit)
    else:
        raise ValueError(f"unknown rule {rule!r}")

    candidate = path.feature_spec
    keep = [k for k, idx in enumerate(candidate.indep_counter_indices)
            if path.coefs[chosen, 2 + k] != 0.0]
    names = tuple(candidate.counter_names[k] for k in keep) if candidate.counter_names else ()
    return FeatureSpec(
        indep_counter_indices=tuple(candidate.indep_counter_indices[k] for k in keep),
        counter_names=names,
    )


# ---------------------------------------------------------------------------
# Feature spec files

def save_feature_spec(spec: FeatureSpec, path) -> None:
    lines = ["# frame-time feature spec",
             "counter_indices = " + ",".join(str(i) for i in spec.indep_counter_indices)]
    if spec.counter_names:
        lines.append("counter_names = " + ",".join(spec.counter_names))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_feature_spec(path) -> FeatureSpec:
    """The FeatureSpec in a save_feature_spec file, read as UTF-8 with or
    without a byte-order mark.  A ValueError naming the file rejects a bad
    value, a line that sets neither counter_indices nor counter_names, a
    key set twice, and a file without a counter_indices line; an empty
    counter_indices, as saved for no selected counter, is valid."""
    fields = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, equals, value = line.partition("=")
            key = key.strip()
            if not equals or key not in ("counter_indices", "counter_names"):
                raise ValueError(f"feature spec {path}: expected counter_indices = or "
                                 f"counter_names =, got {line!r}")
            if key in fields:
                raise ValueError(f"feature spec {path}: {key} is set twice")
            fields[key] = value.strip()
    if "counter_indices" not in fields:
        raise ValueError(f"feature spec {path}: no counter_indices line")
    raw = fields["counter_indices"]
    try:
        indices = tuple(int(v) for v in raw.split(",") if v.strip() != "")
    except ValueError:
        raise ValueError(f"feature spec {path}: counter_indices must be integers, "
                         f"got {raw!r}") from None
    names = tuple(v.strip() for v in fields.get("counter_names", "").split(",") if v.strip())
    try:
        return FeatureSpec(indep_counter_indices=indices, counter_names=names)
    except ValueError as exc:
        raise ValueError(f"feature spec {path}: {exc}") from None
