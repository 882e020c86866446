import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frametime.features import (RANK_RTOL, FeatureSpec, LassoPath, RegressionDataset,
                                ZeroFrequencyVarianceError, _lasso_path, _raises_rank,
                                _standardize, build_dataset, cross_validated_path,
                                differential_features,
                                load_feature_spec, pearson_prune,
                                save_feature_spec, select_features)
from frametime.trace import (AffineMap, CounterModel, FrequencyTable, Trace,
                             WorkloadSpec, generate_runtime)
from scenarios import reference_standardize


def make_trace(frame_times, freqs, counters, table=None):
    table = table or FrequencyTable(tuple(sorted(set(freqs))))
    counters = np.atleast_2d(np.asarray(counters, dtype=float))
    n = len(frame_times)
    names = tuple(f"c{i}" for i in range(counters.shape[1]))
    return Trace(0.05 * np.arange(n), frame_times, np.full(n, 3), freqs, counters,
                 names, table)


def synthetic_dataset(rng, n=200, m_counters=3, coef=None, noise=0.0):
    spec = FeatureSpec(tuple(range(m_counters)))
    h = rng.normal(size=(n, spec.m))
    coef = np.asarray(coef) if coef is not None else rng.normal(size=spec.m)
    y = h @ coef + noise * rng.normal(size=n)
    return RegressionDataset(h=h, targets=y, feature_spec=spec), coef


def lasso_at(ds, eta):
    """Original-unit coefficients at one penalty: the path's last knot, lam = eta / 2."""
    X, yc, _, x_std, _ = _standardize(ds.h, ds.targets)
    _, knots = _lasso_path(X, yc, eta / 2.0)
    return knots[-1] / x_std


# KKT residuals are checked relative to max |X'y|, the largest lam of the path
KKT_RTOL = 1e-9


class TestPearsonPrune:
    def test_proportional_counter_excluded(self):
        freqs = [200.0, 311.0, 400.0, 511.0] * 5
        prop = [f * 2.0 for f in freqs]
        indep = [7.0, 9.0, 8.0, 7.5] * 5
        trace = make_trace(np.ones(20), freqs, np.column_stack([prop, indep]))
        assert pearson_prune(trace) == [1]

    @pytest.mark.parametrize("level", [5.0, 0.1, 1 / 3, 3.7])
    def test_constant_counter_disqualified_not_crash(self, level):
        # over 20 rows, 0.1, 1/3 and 3.7 do not centre to exact zeros
        freqs = [200.0, 400.0] * 10
        const = np.full(20, level)
        trace = make_trace(np.ones(20), freqs, const[:, None])
        assert pearson_prune(trace) == []

    def test_single_frequency_errors(self):
        table = FrequencyTable((200.0, 400.0))
        trace = make_trace(np.ones(6), [200.0] * 6, np.arange(6.0)[:, None], table)
        with pytest.raises(ZeroFrequencyVarianceError):
            pearson_prune(trace)

    def test_oracle_indep_counter_kept(self, char_workload, sweep_table):
        from frametime.trace import generate_characterization
        clean = replace(char_workload, noise_sigma=0.0)
        trace = generate_characterization(clean, sweep_table, range(1, 17), 1, seed=0)
        kept = pearson_prune(trace)
        assert kept == [2, 3, 4, 5]


class TestBuildDataset:
    def test_direct_substitution(self):
        trace = make_trace([10.0, 11.0], [400.0, 444.0], [[3.0], [5.0]],
                           FrequencyTable((400.0, 444.0)))
        ds = build_dataset(trace, FeatureSpec((0,)))
        assert len(ds) == 1
        assert ds.h[0, 0] == pytest.approx(10.0 * (400.0 / 444.0 - 1.0))
        assert ds.h[0, 0] == pytest.approx(-0.991, abs=1e-3)
        assert ds.h[0, 1] == pytest.approx(44.0)
        assert ds.h[0, 2] == pytest.approx(2.0)
        assert ds.targets[0] == pytest.approx(1.0)

    def test_stationary_rows_are_zero(self):
        trace = make_trace([8.0, 8.0, 8.0], [400.0] * 3, [[2.0], [2.0], [2.0]],
                           FrequencyTable((200.0, 400.0)))
        ds = build_dataset(trace, FeatureSpec((0,)))
        assert np.allclose(ds.h, 0.0)
        assert np.allclose(ds.targets, 0.0)

    def test_fully_scalable_oracle_identity(self, small_table):
        # with no unscalable part, target equals h0 exactly (Eq-style identity)
        spec = WorkloadSpec((5.0,) * 12, AffineMap(0.5, 1.0), AffineMap(0.0, 0.0),
                            200.0, indep_counters=(
                                CounterModel("u", AffineMap(1.0, 0.0)),),
                            noise_sigma=0.0)
        freqs = [200.0, 400.0, 600.0, 200.0, 600.0, 400.0] * 2
        trace = generate_runtime(spec, small_table, freqs, seed=0)
        ds = build_dataset(trace, FeatureSpec((0,)))
        assert np.allclose(ds.targets, ds.h[:, 0], atol=1e-12)

    def test_shifted_trace_recomputation_identity(self):
        rng = np.random.default_rng(2)
        freqs = [200.0, 311.0, 400.0, 311.0, 200.0, 400.0]
        t = rng.uniform(5, 15, 6)
        x = rng.uniform(0, 100, (6, 2))
        table = FrequencyTable((200.0, 311.0, 400.0))
        shift = 3.7
        ds = build_dataset(make_trace(t + shift, freqs, x, table), FeatureSpec((0, 1)))
        f = np.array(freqs)
        expect_h0 = (t + shift)[:-1] * (f[:-1] / f[1:] - 1.0)
        expect_target = np.diff(t + shift)
        assert np.allclose(ds.h[:, 0], expect_h0)
        assert np.allclose(ds.targets, expect_target)

    @pytest.mark.parametrize("row, column", [(1, 2), (2, None)],
                             ids=["nan_feature", "inf_target"])
    def test_non_finite_entry_rejected(self, row, column):
        # the estimator steps check nothing, so this is where a non-finite
        # feature or target stops; the message names the trace row
        h, targets = np.ones((3, 3)), np.ones(3)
        if column is None:
            targets[row] = np.inf
        else:
            h[row, column] = np.nan
        with pytest.raises(ValueError, match=f"not so for trace row {row + 1},"):
            RegressionDataset(h=h, targets=targets, feature_spec=FeatureSpec((0,)))

    def test_needs_two_samples(self):
        trace = make_trace([1.0], [200.0], [[1.0]], FrequencyTable((200.0, 400.0)))
        with pytest.raises(ValueError):
            build_dataset(trace, FeatureSpec((0,)))

    def test_constant_frequency_rows_use_counters_only(self, simple_workload, small_table):
        trace = generate_runtime(simple_workload, small_table,
                                 [400.0] * len(simple_workload.complexity_schedule), seed=0)
        ds = build_dataset(trace, FeatureSpec((0,)))
        assert np.allclose(ds.h[:, 0], 0.0)
        assert np.allclose(ds.h[:, 1], 0.0)


class TestDifferentialFeatures:
    def test_rows_equal_single_intervals_bitwise(self):
        rng = np.random.default_rng(21)
        t = rng.uniform(1, 30, size=12)
        f = rng.choice([200.0, 311.0, 400.0, 511.0], size=12)
        dx = rng.normal(size=(11, 3)) * 100.0
        rows = differential_features(t[:-1], f[:-1], f[1:], dx)
        assert rows.shape == (11, 5)
        for i in range(11):
            assert np.array_equal(rows[i], differential_features(t[i], f[i], f[i + 1], dx[i]))


@st.composite
def standardize_inputs(draw):
    """(h, y): columns that spread at one magnitude from 1e-300 to 1e300,
    that hold one value, or that mix 0.0 with -0.0; n from 1 up."""
    n = draw(st.integers(1, 30))
    rows = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["spread", "constant", "zeros"]))
        if kind == "spread":
            scale = 10.0 ** draw(st.integers(-300, 300))
            columns.append([v * scale for v in draw(rows)])
        elif kind == "constant":
            columns.append([draw(st.floats(-1e300, 1e300))] * n)
        else:
            columns.append(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n,
                                         max_size=n)))
    h = np.ascontiguousarray(np.array(columns).T)
    return (np.asfortranarray(h) if draw(st.booleans()) else h), np.array(draw(rows))


class TestStandardize:
    @settings(max_examples=200, deadline=None)
    @given(standardize_inputs())
    @example((np.full((3, 1), 0.1), np.zeros(3)))      # the mean, 0.10000000000000002
    @example((np.array([[0.0, -0.0], [-0.0, -0.0], [0.0, -0.0]]), np.ones(3)))
    @example((np.array([[1e300, 1e-300, 5.0]]), np.array([2.0])))
    @example((np.array([[1e300, -1e-300], [-1e300, 1e-300], [1e300, 3e-300]]),
              np.array([1e300, -1e300, 0.5])))
    def test_equals_reference_bitwise(self, case):
        h, y = case
        with np.errstate(all="ignore"):
            got, want = _standardize(h, y), reference_standardize(h, y)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


class TestLassoFit:
    def test_eta_zero_matches_least_squares(self):
        rng = np.random.default_rng(0)
        ds, _ = synthetic_dataset(rng, n=150, noise=0.05)
        coefs = lasso_at(ds, 0.0)
        # reference: least squares with intercept, slopes compared
        X = np.column_stack([ds.h, np.ones(len(ds))])
        ref = np.linalg.lstsq(X, ds.targets, rcond=None)[0][:-1]
        assert np.allclose(coefs, ref, rtol=1e-6, atol=1e-9)

    def test_huge_eta_all_zero(self):
        rng = np.random.default_rng(1)
        ds, _ = synthetic_dataset(rng, n=100, noise=0.05)
        grid = cross_validated_path(ds).etas
        assert np.count_nonzero(lasso_at(ds, grid[0] * 1.01)) == 0

    def test_support_recovery_against_subset_regression(self):
        rng = np.random.default_rng(4)
        spec = FeatureSpec((0, 1, 2))   # M = 5
        h = rng.normal(size=(300, 5))
        y = 3.0 * h[:, 0] - 2.0 * h[:, 2] + 0.01 * rng.normal(size=300)
        ds = RegressionDataset(h=h, targets=y, feature_spec=spec)

        # independent oracle: exhaustive 2-subset least squares
        best, best_sse = None, np.inf
        for pair in itertools.combinations(range(5), 2):
            Xs = h[:, pair]
            coef, *_ = np.linalg.lstsq(Xs, y, rcond=None)
            sse = float(np.sum((y - Xs @ coef) ** 2))
            if sse < best_sse:
                best, best_sse = pair, sse
        assert best == (0, 2)

        # moderate penalty zeroes the inactive features
        grid = cross_validated_path(ds).etas
        coefs = lasso_at(ds, grid[12])
        assert set(np.flatnonzero(coefs)) == {0, 2}

    @pytest.mark.parametrize("case", ["plain", "duplicate", "constant", "wide"])
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), p=st.integers(1, 7))
    @example(seed=5597396, n=3, p=1)    # centring leaves a rounding-level third direction
    def test_kkt_at_every_grid_eta(self, case, seed, n, p):
        rng = np.random.default_rng(seed)
        if case == "wide":      # more features than rows
            p = n + 1 + p
        else:
            n += p + 1
        h = rng.normal(size=(n, p))
        if case == "duplicate":
            h = np.column_stack([h, h[:, -1]])
        if case == "constant":
            h = np.column_stack([h, np.full(n, 3.7)])
        beta = rng.normal(size=h.shape[1]) * (rng.random(h.shape[1]) < 0.5)
        X, y, _, _, _ = _standardize(h, h @ beta + rng.normal(size=n))

        lam_max = float(np.max(np.abs(X.T @ y)))
        lams = lam_max * np.append(np.geomspace(1.5, 1e-4, 25), 0.0)
        knot_lams, knots = _lasso_path(X, y, 0.0)
        tol = KKT_RTOL * lam_max
        for lam in lams:    # eta = 2 lam, read off the knots as selection does
            a = np.array([np.interp(lam, knot_lams[::-1], col[::-1]) for col in knots.T])
            grad = X.T @ (y - X @ a)
            active = a != 0
            assert np.all(np.abs(grad[~active]) <= lam + tol)
            assert np.all(np.abs(grad[active] - lam * np.sign(a[active])) <= tol)
            assert np.count_nonzero(a) <= np.linalg.matrix_rank(X)
            if case == "duplicate":
                assert a[-1] == 0 or a[-2] == 0
            if case == "constant":
                assert a[-1] == 0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), p=st.integers(1, 3))
    @example(seed=0, n=4, p=3)      # fewer rows than the six columns: R is 4 x 6
    def test_rank_rule_on_r_matches_x(self, seed, n, p):
        # for every column subset S, the last column raises the rank of the
        # others as read from R exactly when X[:, S] has full numerical rank;
        # X holds a duplicate, a constant and a column collinear with another
        # to within 1e-12 to 1e-7, on both sides of the cut
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(n, p))
        h = np.column_stack([h, h[:, 0], np.full(n, 3.7),
                             h[:, -1] + 10.0 ** rng.uniform(-12, -7) * rng.normal(size=n)])
        X = _standardize(h, np.zeros(n))[0]
        R = np.linalg.qr(X, mode="r")
        for size in range(1, X.shape[1] + 1):
            for S in itertools.combinations(range(X.shape[1]), size):
                sv = np.linalg.svd(X[:, S], compute_uv=False)
                if np.any((sv > 0.1 * RANK_RTOL * sv[0]) & (sv < 10 * RANK_RTOL * sv[0])):
                    continue    # too near the cut for rounding to settle either way
                full = np.count_nonzero(sv > RANK_RTOL * sv[0]) == size
                assert _raises_rank(R, list(S[:-1]), S[-1]) == full

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            _lasso_path(np.zeros((0, 3)), np.zeros(0), 0.5)
        ds, _ = synthetic_dataset(np.random.default_rng(0))
        with pytest.raises(ValueError):
            lasso_at(ds, -1.0)


class TestCrossValidation:
    def test_path_shapes_and_determinism(self):
        rng = np.random.default_rng(6)
        ds, _ = synthetic_dataset(rng, n=120, noise=0.2)
        a = cross_validated_path(ds)
        b = cross_validated_path(ds)
        assert np.array_equal(a.cv_mean_mse, b.cv_mean_mse)
        assert np.array_equal(a.coefs, b.coefs)
        assert np.all(a.cv_stderr >= 0)
        assert a.etas[0] > a.etas[-1]

    def test_min_mse_eta_not_above_one_se_eta(self):
        rng = np.random.default_rng(7)
        ds, _ = synthetic_dataset(rng, n=200, noise=0.5)
        path = cross_validated_path(ds)
        i_min = int(np.argmin(path.cv_mean_mse))
        limit = path.cv_mean_mse[i_min] + path.cv_stderr[i_min]
        i_1se = next(i for i in range(path.etas.size) if path.cv_mean_mse[i] <= limit)
        assert path.etas[i_1se] >= path.etas[i_min]

    def test_one_se_support_not_larger(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            ds, _ = synthetic_dataset(rng, n=150, noise=1.0)
            path = cross_validated_path(ds)
            n_min = select_features(path, "min_mse").m
            n_1se = select_features(path, "one_se").m
            assert n_1se <= n_min

    def test_more_features_than_rows_support_bounded_by_rank(self):
        rng = np.random.default_rng(10)
        ds, _ = synthetic_dataset(rng, n=12, m_counters=10, noise=0.1)   # M = 12
        path = cross_validated_path(ds)
        assert np.all(np.isfinite(path.cv_mean_mse))
        assert np.max(path.nonzero_counts) <= np.linalg.matrix_rank(ds.h - ds.h.mean(0))

    def test_too_few_rows(self):
        rng = np.random.default_rng(9)
        ds, _ = synthetic_dataset(rng, n=5)
        with pytest.raises(ValueError):
            cross_validated_path(ds)


class TestSelectFeatures:
    def test_singleton_path(self):
        spec = FeatureSpec((4, 9))
        path = LassoPath(etas=np.array([1.0]),
                         coefs=np.array([[0.5, 0.0, 1.0, 0.0]]),
                         cv_mean_mse=np.array([0.1]), cv_stderr=np.array([0.0]),
                         nonzero_counts=np.array([2]), feature_spec=spec)
        chosen = select_features(path, "min_mse")
        assert chosen.indep_counter_indices == (4,)
        assert chosen.m == 3

    def test_frequency_terms_always_retained(self):
        spec = FeatureSpec((0,))
        path = LassoPath(etas=np.array([1.0]),
                         coefs=np.array([[0.0, 0.0, 0.0]]),
                         cv_mean_mse=np.array([0.1]), cv_stderr=np.array([0.0]),
                         nonzero_counts=np.array([0]), feature_spec=spec)
        chosen = select_features(path, "min_mse")
        assert chosen.m == 2
        assert chosen.indep_counter_indices == ()

    def test_spec_file_round_trip(self, tmp_path):
        spec = FeatureSpec((2, 3), ("geometry_batches", "shader_slots"))
        path = tmp_path / "features.spec"
        save_feature_spec(spec, path)
        assert load_feature_spec(path) == spec

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            FeatureSpec((1, 1))
        with pytest.raises(ValueError):
            FeatureSpec((-1,))
        assert FeatureSpec(()).m == 2
