import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frametime.estimator import (DCD_STEP_AMPLITUDE, arlms_init, arlms_update,
                                 batch_ridge_solve, dcd_rls_init, dcd_rls_update,
                                 op_count, rls_init, rls_update)
from frametime.features import (SCALE_WINDOW, counter_scales, differential_features,
                                estimator_units)


class TestRlsInit:
    def test_default_initialization(self):
        state = rls_init(4, mu=1e-14)
        assert np.array_equal(state.a, np.ones(4))
        assert np.allclose(state.P, np.eye(4) * 1e14)
        assert state.lam == 1.0

    def test_unit_case(self):
        state = rls_init(1, mu=1.0)
        assert state.P.shape == (1, 1) and state.P[0, 0] == 1.0
        assert state.a[0] == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rls_init(4, mu=0.0)
        with pytest.raises(ValueError):
            rls_init(4, lam=0.0)
        with pytest.raises(ValueError):
            rls_init(4, lam=1.5)
        with pytest.raises(ValueError):
            rls_init(0)


class TestRlsUpdate:
    def test_zero_regressor(self):
        state = rls_init(3, mu=1.0, lam=0.5)
        new = rls_update(state, np.zeros(3), 2.0)
        assert np.array_equal(new.a, state.a)
        assert np.allclose(new.P, state.P / 0.5)

    def test_exact_recovery_noiseless_stream(self):
        rng = np.random.default_rng(1)
        a_star = np.array([1.0, -0.5, 2.0, 0.25])
        state = rls_init(4)
        for _ in range(50):
            h = rng.normal(size=4)
            state = rls_update(state, h, float(h @ a_star))
        assert np.max(np.abs(state.a - a_star)) < 1e-4

    def test_matches_batch_ridge_along_stream(self):
        rng = np.random.default_rng(2)
        m, mu = 3, 0.7
        a_init = rng.normal(size=m)
        state = rls_init(m, mu=mu, lam=1.0, a_init=a_init)
        H, d = [], []
        for _ in range(40):
            h = rng.normal(size=m)
            y = float(rng.normal())
            H.append(h)
            d.append(y)
            state = rls_update(state, h, y)
            ref = batch_ridge_solve(np.array(H), np.array(d), mu, a_init)
            assert np.max(np.abs(state.a - ref)) / max(np.max(np.abs(ref)), 1e-12) < 1e-8

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(3)
        state = rls_init(5, mu=1e-14)
        for _ in range(100):
            h = rng.normal(size=5) * rng.uniform(0.1, 10)
            state = rls_update(state, h, float(rng.normal()))
            assert np.max(np.abs(state.P - state.P.T)) < 1e-9

    def test_covariance_positive_definite_at_moderate_mu(self):
        # at the tiny production mu, P starts at 1e14*I and float64 keeps
        # only ~1e14*eps absolute resolution through the rank-one update,
        # so positivity is asserted where P is representable; coefficient
        # correctness at tiny mu is covered by the closed-form comparison
        rng = np.random.default_rng(3)
        state = rls_init(5, mu=1.0)
        for _ in range(100):
            h = rng.normal(size=5) * rng.uniform(0.1, 10)
            state = rls_update(state, h, float(rng.normal()))
            assert np.all(np.diag(state.P) > 0)
            np.linalg.cholesky(state.P)

    def test_non_finite_input_rejected(self):
        state = rls_init(2, mu=1.0)
        with pytest.raises(ValueError):
            rls_update(state, np.array([np.nan, 1.0]), 1.0)
        with pytest.raises(ValueError):
            rls_update(state, np.array([1.0, 1.0]), float("inf"))

    def test_error_is_exact_difference(self):
        # the innovation the gain multiplies is exactly actual - h'a
        rng = np.random.default_rng(4)
        state = rls_init(3, mu=1.0)
        for _ in range(20):
            h = rng.normal(size=3)
            actual = float(rng.normal())
            Ph = state.P @ h
            gain = Ph / (float(h @ Ph) + state.lam)
            want = state.a + gain * (actual - float(h @ state.a))
            state = rls_update(state, h, actual)
            assert np.array_equal(state.a, want)

    def test_objective_optimality_vs_competitors(self):
        # at lambda=1 the running coefficients minimize the ridge cost on
        # the rows seen so far, so any competitor scores no better
        rng = np.random.default_rng(5)
        m, mu = 3, 0.5
        a_init = np.ones(m)
        state = rls_init(m, mu=mu, lam=1.0, a_init=a_init)
        H, d = [], []

        def cost(a):
            resid = np.array(d) - np.array(H) @ a
            return float(mu * (a - a_init) @ (a - a_init) + resid @ resid)

        for k in range(30):
            h = rng.normal(size=m)
            y = float(rng.normal())
            H.append(h)
            d.append(y)
            state = rls_update(state, h, y)
            if k % 7 == 0:
                for _ in range(5):
                    rival = state.a + rng.normal(size=m) * 0.1
                    assert cost(state.a) <= cost(rival) + 1e-9


class TestDcdRls:
    def test_matches_exact_rls_with_large_budget(self):
        rng = np.random.default_rng(6)
        a_star = np.array([0.8, -0.3, 1.5, 0.2])
        r = rls_init(4, mu=1.0)
        d = dcd_rls_init(4, mu=1.0, nu=1000, mb=32)
        for _ in range(200):
            h = rng.normal(size=4)
            y = float(h @ a_star) + 0.05 * float(rng.normal())
            r = rls_update(r, h, y)
            d = dcd_rls_update(d, h, y)
        assert np.max(np.abs(r.a - d.a)) < 1e-3

    def test_zero_regressor_leaves_coefficients(self):
        state = dcd_rls_init(3, mu=1.0)
        new = dcd_rls_update(state, np.zeros(3), 5.0)
        assert np.array_equal(new.a, state.a)

    def test_discrepancy_non_increasing_in_nu(self):
        a_star = np.array([0.8, -0.3, 1.5, 0.2])
        totals = []
        for nu in (1, 4, 16, 64):
            rng = np.random.default_rng(7)
            r = rls_init(4, mu=1.0)
            d = dcd_rls_init(4, mu=1.0, nu=nu, mb=16)
            total = 0.0
            for _ in range(200):
                h = rng.normal(size=4)
                y = float(h @ a_star) + 0.05 * float(rng.normal())
                total += abs(float(h @ r.a) - float(h @ d.a))
                r = rls_update(r, h, y)
                d = dcd_rls_update(d, h, y)
            totals.append(total)
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(0.9, 1.0), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8),
           n=st.integers(1, 40), mu=st.sampled_from([1e-14, 1.0]))
    def test_correlation_matrix_symmetric(self, lam, seed, m, n, mu):
        # exactly: the coordinate ladder reads row j of R as its column j
        rng = np.random.default_rng(seed)
        state = dcd_rls_init(m, mu=mu, lam=lam)
        for h, d in zip(rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4, size=m),
                        rng.normal(size=n)):
            state = dcd_rls_update(state, h, d)
            assert np.array_equal(state.R, state.R.T)

    def test_non_finite_rejected(self):
        state = dcd_rls_init(2, mu=1.0)
        with pytest.raises(ValueError):
            dcd_rls_update(state, np.array([1.0, np.inf]), 0.0)


class TestArLms:
    def test_constant_stream_converges(self):
        state = arlms_init()
        pred = 0.0
        for _ in range(200):
            state, pred = arlms_update(state, 8.0)
        assert pred == pytest.approx(8.0, rel=1e-3)

    def test_no_prediction_before_history_full(self):
        state = arlms_init(order=10)
        preds = []
        for k in range(12):
            state, p = arlms_update(state, 5.0)
            preds.append(p)
        assert all(p == 0.0 for p in preds[:9])
        assert preds[10] != 0.0 or preds[11] != 0.0

    def test_rls_predicts_from_second_sample_arlms_does_not(self):
        # step stream: adaptive model with features reacts immediately
        rng = np.random.default_rng(9)
        h_stream = rng.normal(size=(15, 2))
        a_star = np.array([2.0, -1.0])
        r = rls_init(2, mu=1e-14)
        r = rls_update(r, h_stream[0], float(h_stream[0] @ a_star))
        second = float(h_stream[1] @ r.a)
        assert second != 0.0
        ar = arlms_init(order=10)
        for k in range(9):
            ar, p = arlms_update(ar, 5.0 + k)
            assert p == 0.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            arlms_init(order=0)
        with pytest.raises(ValueError):
            arlms_init(step_size=2.5)
        state = arlms_init()
        with pytest.raises(ValueError):
            arlms_update(state, -1.0)


def reference_rls(a, P, h, d, lam):
    """The covariance-form update written as plain numpy, every operation kept."""
    err = float(d) - float(h @ a)
    Ph = P @ h
    G = Ph / (float(h @ Ph) + lam)
    P = (P - np.outer(G, Ph)) / lam
    P = (P + P.T) / 2.0
    return a + G * err, P


def reference_dcd(a, R, beta, h, d, lam, nu, mb):
    """The DCD-RLS update with its coordinate ladder on numpy arrays."""
    err = float(d) - float(h @ a)
    R = lam * R + np.outer(h, h)
    r = lam * beta + err * h
    da = np.zeros_like(r)
    alpha, level = DCD_STEP_AMPLITUDE, 1
    diag = np.diag(R)
    for _ in range(nu):
        j = int(np.argmax(np.abs(r)))
        while abs(r[j]) <= (alpha / 2.0) * diag[j]:
            level += 1
            if level > mb:
                return a + da, R, r
            alpha /= 2.0
        step = math.copysign(alpha, r[j])
        da[j] += step
        r = r - step * R[:, j]
    return a + da, R, r


class TestUpdatesMatchReferenceForms:
    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(0.9, 1.0), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6),
           n=st.integers(1, 40), nu=st.integers(1, 6), halves=st.booleans())
    @example(lam=1.0, seed=0, m=4, n=40, nu=4, halves=False)
    @example(lam=1.0, seed=0, m=4, n=40, nu=4, halves=True)
    def test_bitwise_for_forgetting_factors(self, lam, seed, m, n, nu, halves):
        # lam == 1.0 skips the division and scaling by lam; below it they run.
        # Entries on a grid of halves tie the DCD residuals, where the first
        # largest one must lead.
        rng = np.random.default_rng(seed)
        if halves:
            H, D = rng.integers(-2, 3, size=(n, m)) / 2.0, rng.integers(-2, 3, size=n) / 2.0
        else:
            H, D = rng.normal(size=(n, m)), rng.normal(size=n)
        rls, dcd = rls_init(m, lam=lam), dcd_rls_init(m, lam=lam, nu=nu)
        a, P = rls.a, rls.P
        b, R, beta = dcd.a, dcd.R, dcd.beta
        for h, d in zip(H, D):
            rls, dcd = rls_update(rls, h, d), dcd_rls_update(dcd, h, d)
            a, P = reference_rls(a, P, h, d, lam)
            b, R, beta = reference_dcd(b, R, beta, h, d, lam, nu, dcd.mb)
            assert np.array_equal(rls.a, a) and np.array_equal(rls.P, P)
            assert (np.array_equal(dcd.a, b) and np.array_equal(dcd.R, R)
                    and np.array_equal(dcd.beta, beta))


class TestBatchRidge:
    def test_large_mu_returns_a_init(self):
        rng = np.random.default_rng(10)
        H = rng.normal(size=(50, 3))
        d = rng.normal(size=50)
        a_init = np.array([1.0, 2.0, -3.0])
        a = batch_ridge_solve(H, d, 1e12, a_init)
        assert np.allclose(a, a_init, atol=1e-6)

    def test_small_mu_matches_ols(self):
        rng = np.random.default_rng(11)
        H = rng.normal(size=(80, 3))
        d = H @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=80)
        a = batch_ridge_solve(H, d, 1e-10, np.zeros(3))
        ols = np.linalg.lstsq(H, d, rcond=None)[0]
        assert np.allclose(a, ols, atol=1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            batch_ridge_solve(np.zeros((0, 2)), np.zeros(0), 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            batch_ridge_solve(np.zeros((3, 2)), np.zeros(3), 0.0, np.zeros(2))


class TestOpCount:
    def test_reference_values(self):
        assert op_count(10, "rls") == 282
        assert op_count(10, "dcd_rls") == 170
        assert op_count(4, "rls") == 66

    def test_domain(self):
        with pytest.raises(ValueError):
            op_count(0, "rls")
        with pytest.raises(ValueError):
            op_count(4, "kalman")


class TestFeatureScaler:
    """Scaling into estimator units: features.counter_scales and estimator_units."""

    def test_scales_fixed_after_window(self):
        counters = np.zeros((SCALE_WINDOW + 5, 2))
        counters[:3] = [[10.0, 1.0], [20.0, 2.0], [5.0, 8.0]]
        counters[SCALE_WINDOW:] = 1000.0
        scales = counter_scales(counters)
        assert np.array_equal(scales[:3], [[10.0, 1.0], [20.0, 2.0], [20.0, 8.0]])
        assert np.array_equal(scales[SCALE_WINDOW - 1], [20.0, 8.0])
        assert np.all(scales[SCALE_WINDOW:] == scales[SCALE_WINDOW - 1])

    def test_feature_layout_and_units(self):
        # one interval, 400 -> 444 MHz: raw units, then the frequency delta in GHz
        h = differential_features(10.0, 400.0, 444.0, [10.0, -5.0])
        assert h[0] == pytest.approx(-0.991, abs=1e-3)
        assert h[1] == 44.0
        assert np.array_equal(h[2:], [10.0, -5.0])
        units = estimator_units([[100.0, 50.0]])
        assert np.array_equal(units, [[1.0, 1000.0, 100.0, 50.0]])
        assert h / units[0] == pytest.approx([h[0], 0.044, 0.1, -0.1])

    def test_floor_prevents_divide_by_zero(self):
        assert np.array_equal(counter_scales([[0.0], [0.5]]), [[1.0], [1.0]])
        h = differential_features(0.0, 400.0, 400.0, [3.0]) / estimator_units([[0.0]])[0]
        assert h[2] == 3.0
