"""Differential feature rows and their offline selection.

The online model always carries two frequency terms, the scalable-time
term (the previous frame time times the relative clock step) and the
frequency delta, plus the deltas of a chosen subset of
frequency-independent counters.  differential_features is the one
builder of these rows, in raw units; the online estimators see them in
estimator units, divided by estimator_units.

Selection runs in two stages on a characterization trace: counters
correlated with the GPU frequency are pruned by Pearson correlation, then
an L1-penalized regression with cross-validation picks the informative
counters among the survivors.  The chosen set is frozen for online use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import Trace

DEFAULT_PEARSON_THRESHOLD = 0.1
DEFAULT_FOLDS = 10
# singular values below this share of the largest are rounding left by
# centring, not rank; numpy's default cut (about 1e-15 relative) lets them in
RANK_RTOL = 1e-10

MHZ_PER_GHZ = 1000.0
SCALE_WINDOW = 20   # leading samples whose counter magnitudes fix the scales
SCALE_FLOOR = 1.0


class ZeroFrequencyVarianceError(ValueError):
    """The trace holds a single frequency, correlation with it is undefined."""


@dataclass(frozen=True)
class FeatureSpec:
    """Frozen online feature set: which counters join the frequency terms."""

    indep_counter_indices: tuple[int, ...]
    counter_names: tuple[str, ...] = ()

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indep_counter_indices)
        object.__setattr__(self, "indep_counter_indices", idx)
        object.__setattr__(self, "counter_names", tuple(self.counter_names))
        if len(set(idx)) != len(idx):
            raise ValueError("counter indices must be unique")
        if any(i < 0 for i in idx):
            raise ValueError("counter indices must be >= 0")
        if self.counter_names and len(self.counter_names) != len(idx):
            raise ValueError("counter_names must align with indices")

    @property
    def m(self) -> int:
        """Total feature count: two frequency terms plus the counters."""
        return 2 + len(self.indep_counter_indices)


@dataclass(frozen=True)
class RegressionDataset:
    """Feature rows and frame-time-delta targets from consecutive samples."""

    h: np.ndarray        # (rows, M) feature matrix
    targets: np.ndarray  # (rows,) delta frame time, ms
    feature_spec: FeatureSpec

    def __post_init__(self):
        if self.h.ndim != 2 or self.h.shape[1] != self.feature_spec.m:
            raise ValueError("feature matrix width must equal the spec's M")
        if self.targets.shape != (self.h.shape[0],):
            raise ValueError("targets must align with feature rows")
        bad = np.flatnonzero(~(np.isfinite(self.h).all(axis=1) & np.isfinite(self.targets)))
        if bad.size:
            # row i is the step from trace row i to trace row i + 1
            raise ValueError(f"dataset entries must be finite: not so for trace row "
                             f"{bad[0] + 1}, the step from row {bad[0]}")

    def __len__(self):
        return self.h.shape[0]


@dataclass(frozen=True)
class LassoPath:
    """Per-penalty results of the cross-validated L1 path."""

    etas: np.ndarray          # descending penalty grid
    coefs: np.ndarray         # (len(etas), M), original units
    cv_mean_mse: np.ndarray
    cv_stderr: np.ndarray
    nonzero_counts: np.ndarray
    feature_spec: FeatureSpec  # candidate set the columns refer to

    def __post_init__(self):
        n = self.etas.shape[0]
        if n == 0:
            raise ValueError("empty path")
        for arr in (self.coefs, self.cv_mean_mse, self.cv_stderr, self.nonzero_counts):
            if arr.shape[0] != n:
                raise ValueError("path arrays must align with the eta grid")
        if np.any(self.cv_stderr < 0):
            raise ValueError("std errors must be >= 0")


def frequency_correlations(trace: Trace) -> np.ndarray:
    """Pearson r of each counter against the GPU frequency.

    Constant counters get r = nan rather than a divide error or the
    rounding residue of centring them.
    """
    freqs = trace.freqs
    if len(trace) < 2 or np.ptp(freqs) == 0:
        raise ZeroFrequencyVarianceError(
            "trace spans a single frequency, correlation with frequency is undefined")
    fc = freqs - freqs.mean()
    fnorm = float(np.sqrt(fc @ fc))
    counters = trace.counters
    out = np.empty(counters.shape[1])
    for j in range(counters.shape[1]):
        xc = counters[:, j] - counters[:, j].mean()
        xnorm = float(np.sqrt(xc @ xc))
        out[j] = np.nan if np.ptp(counters[:, j]) == 0 else float(fc @ xc) / (fnorm * xnorm)
    return out


def pearson_prune(trace: Trace, threshold: float = DEFAULT_PEARSON_THRESHOLD) -> list[int]:
    """Indices of counters with |r against frequency| below threshold.

    Counters tracking the clock get pruned; constant counters carry no
    signal at all and are disqualified too.
    """
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0, 1)")
    corr = frequency_correlations(trace)
    return [j for j, r in enumerate(corr) if np.isfinite(r) and abs(r) < threshold]


def differential_features(t_prev, f_prev, f_cur, dx) -> np.ndarray:
    """Raw-unit feature rows [scalable-time term, f_cur - f_prev, dx...].

    The scalable-time term is t_prev (ms) times the relative clock step
    f_prev / f_cur - 1.  Takes one interval (scalars and a counter-delta
    vector) or many (arrays of rows and a rows-by-counters delta matrix);
    frequencies in MHz, counter deltas in counts.
    """
    dx = np.asarray(dx, dtype=float)
    h = np.empty(dx.shape[:-1] + (2 + dx.shape[-1],))
    h[..., 0], h[..., 1] = _frequency_terms(t_prev, f_prev, f_cur)
    h[..., 2:] = dx
    return h


def _frequency_terms(t_prev, f_prev, f_cur):
    """The scalable-time term and the clock step of a raw feature row, on
    arrays or on Python floats."""
    return t_prev * (f_prev / f_cur - 1.0), f_cur - f_prev


def counter_scales(counters) -> np.ndarray:
    """Per-sample counter scales: the running max of |counter|, at least SCALE_FLOOR.

    Row i covers samples 0..i; after the first SCALE_WINDOW samples the
    scales stay frozen, so later counter bursts do not change the units.
    """
    scales = np.maximum(np.maximum.accumulate(np.abs(np.asarray(counters, dtype=float)),
                                              axis=0), SCALE_FLOOR)
    scales[SCALE_WINDOW:] = scales[SCALE_WINDOW - 1:SCALE_WINDOW]
    return scales


def estimator_units(counters) -> np.ndarray:
    """Per-sample divisors [1, MHZ_PER_GHZ, counter scales...] into estimator units.

    Dividing a raw feature row that ends at sample i by row i feeds the
    frequency delta in GHz and each counter delta relative to its scale,
    keeping every entry O(1) so the tiny default ridge weight stays
    numerically benign.
    """
    scales = counter_scales(counters)
    units = np.empty((scales.shape[0], 2 + scales.shape[1]))
    units[:, 0] = 1.0
    units[:, 1] = MHZ_PER_GHZ
    units[:, 2:] = scales
    return units


def build_dataset(trace: Trace, spec: FeatureSpec) -> RegressionDataset:
    """Differential rows from every consecutive sample pair.

    Row k-1 holds h built from samples (k-1, k) and the target
    t_k - t_{k-1}; the dataset has len(trace) - 1 rows.  Features are in
    raw units here (MHz, counts); online use divides them by
    estimator_units.
    """
    if len(trace) < 2:
        raise ValueError("need at least two samples")
    n_counters = len(trace.counter_names)
    bad = [i for i in spec.indep_counter_indices if i >= n_counters]
    if bad:
        raise ValueError(f"counter indices {bad} out of range for {n_counters} counters")

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
    # a constant column centers to exact zeros even where its mean rounds
    x_mean = np.where(np.ptp(h, axis=0) == 0, h[0], h.mean(axis=0))
    x_std = h.std(axis=0)
    x_std = np.where(x_std == 0, 1.0, x_std)
    y_mean = y.mean()
    return (h - x_mean) / x_std, y - y_mean, x_mean, x_std, y_mean


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
    rank(X).
    """
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    if lam_min < 0:
        raise ValueError("eta must be >= 0")
    gram = X.T @ X
    xy = X.T @ y
    m = X.shape[1]
    a = np.zeros(m)
    signs = np.zeros(m)
    c = xy
    lam = float(np.max(np.abs(c)))
    lams, knots = [lam], [a.copy()]
    active: list[int] = []
    dropped = None
    while lam > lam_min:
        d = np.zeros(m)  # coefficient change per unit decrease of lam
        if active:
            d[active] = np.linalg.solve(gram[np.ix_(active, active)], signs[active])
        w = gram @ d     # correlation change per unit decrease of lam
        step, join, leave = lam - lam_min, None, None
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(w < 1, np.maximum(lam - c, 0.0) / (1.0 - w), np.inf)
            down = np.where(w > -1, np.maximum(lam + c, 0.0) / (1.0 + w), np.inf)
            hit = np.where(d != 0, -a / d, np.inf)
        if dropped is not None:
            # it left with |c| = lam and may only come back with the other sign
            (up if signs[dropped] > 0 else down)[dropped] = np.inf
        gamma = np.minimum(up, down)
        for j in sorted(set(range(m)) - set(active), key=gamma.__getitem__):
            if gamma[j] >= step:
                break
            sv = np.linalg.svd(X[:, active + [j]], compute_uv=False)
            if np.count_nonzero(sv > RANK_RTOL * sv[0]) > len(active):
                step, join = gamma[j], j
                break
        for j in active:
            if 0 < hit[j] < step:
                step, join, leave = hit[j], None, j
        a += step * d
        lam = lam - step if join is not None or leave is not None else lam_min
        c = xy - gram @ a
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


def default_eta_grid(dataset: RegressionDataset, n: int = 50, ratio: float = 1e-4) -> np.ndarray:
    """Descending log grid from the smallest all-zero penalty down to ratio times it."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    X, yc, _, _, _ = _standardize(dataset.h, dataset.targets)
    eta_max = 2.0 * float(np.max(np.abs(X.T @ yc)))
    if eta_max == 0:
        eta_max = 1.0
    return np.geomspace(eta_max, eta_max * ratio, n)


def cross_validated_path(dataset: RegressionDataset, etas,
                         folds: int = DEFAULT_FOLDS) -> LassoPath:
    """Held-out MSE along the penalty grid with contiguous time blocks.

    Rows are serially correlated, so folds are contiguous blocks rather
    than shuffled rows; the result is deterministic.  Inputs are
    standardized per fit (the penalty applies to standardized
    coefficients; coefs come back in the original feature units).  Each
    fold and the full data take one exact path, read at every penalty.
    """
    etas = np.sort(np.asarray(etas, dtype=float))[::-1]
    if etas.size == 0:
        raise ValueError("empty eta grid")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    n = len(dataset)
    if n < folds:
        raise ValueError(f"dataset has {n} rows, fewer than {folds} folds")

    def fit(h, y):
        X, yc, x_mean, x_std, y_mean = _standardize(h, y)
        lams, knots = _lasso_path(X, yc, etas[-1] / 2.0)
        a = np.column_stack([np.interp(etas / 2.0, lams[::-1], col[::-1]) for col in knots.T])
        coefs = a / x_std
        return coefs, y_mean - coefs @ x_mean

    bounds = np.linspace(0, n, folds + 1, dtype=int)
    fold_mse = np.empty((etas.size, folds))
    for k in range(folds):
        test = np.zeros(n, dtype=bool)
        test[bounds[k]:bounds[k + 1]] = True
        coefs, intercepts = fit(dataset.h[~test], dataset.targets[~test])
        err = dataset.targets[test, None] - (dataset.h[test] @ coefs.T + intercepts)
        fold_mse[:, k] = np.mean(err * err, axis=0)

    coefs_path, _ = fit(dataset.h, dataset.targets)
    return LassoPath(
        etas=etas,
        coefs=coefs_path,
        cv_mean_mse=fold_mse.mean(axis=1),
        cv_stderr=fold_mse.std(axis=1, ddof=1) / np.sqrt(folds),
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
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    raw = fields.get("counter_indices", "")
    indices = tuple(int(v) for v in raw.split(",") if v.strip() != "")
    names = tuple(v.strip() for v in fields.get("counter_names", "").split(",") if v.strip())
    return FeatureSpec(indep_counter_indices=indices, counter_names=names)
