import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from frametime.cli import run_replay
from frametime.estimator import (ARLMS_ORDER, DEFAULT_LAMBDA, SCALE_WINDOW, arlms_step,
                                 counter_scales, dcd_rls_init, dcd_step,
                                 differential_features, estimator_units, rls_init,
                                 rls_step)
from frametime.trace import DegenerateDataError, FrequencyTable, Trace
from scenarios import batch_ridge_solve, op_count, reference_dcd, reference_rls

# mu values whose P = I/mu, or its doubling in (P + P')/2, is not finite,
# or which make P zero so that the estimator never learns
BAD_MU = [math.nan, math.inf, 1e-310, 1e-308, np.float64(1e-310)]


def one_clock_trace(frame_times):
    """A trace at one clock with one constant counter."""
    n = len(frame_times)
    return Trace(0.05 * np.arange(n), frame_times, np.full(n, 3), np.full(n, 400.0),
                 np.ones((n, 1)), ("c0",), FrequencyTable((200.0, 400.0)))


class TestRlsInit:
    def test_default_initialization(self):
        a, P = rls_init(4, mu=1e-14)
        assert np.array_equal(a, np.ones(4))
        assert np.allclose(P, np.eye(4) * 1e14)
        assert DEFAULT_LAMBDA == 1.0

    def test_unit_case(self):
        a, P = rls_init(1, mu=1.0)
        assert P.shape == (1, 1) and P[0, 0] == 1.0
        assert a[0] == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rls_init(4, mu=0.0)
        with pytest.raises(ValueError):
            rls_init(0)
        for mu in BAD_MU:
            with pytest.raises(ValueError, match="mu must be finite"):
                rls_init(4, mu=mu)
        for init in (rls_init, dcd_rls_init):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match="a_init must be finite"):
                    init(2, a_init=[1.0, bad])

    def test_tiny_accepted_mu_keeps_p_finite(self):
        # 1e-308 is rejected above: 1/mu is finite there, but 2/mu is not
        _, P = rls_init(2, mu=1e-307)
        assert np.isfinite(P).all() and np.isfinite(2.0 * P).all()


class TestRlsUpdate:
    def test_zero_regressor(self):
        a, P = rls_init(3, mu=1.0)
        a1, P1, _ = rls_step(a, P, np.zeros(3), 2.0, lam=0.5)
        assert np.array_equal(a1, a)
        assert np.allclose(P1, P / 0.5)

    def test_exact_recovery_noiseless_stream(self):
        rng = np.random.default_rng(1)
        a_star = np.array([1.0, -0.5, 2.0, 0.25])
        a, P = rls_init(4)
        for _ in range(50):
            h = rng.normal(size=4)
            a, P, _ = rls_step(a, P, h, float(h @ a_star))
        assert np.max(np.abs(a - a_star)) < 1e-4

    def test_matches_batch_ridge_along_stream(self):
        rng = np.random.default_rng(2)
        m, mu = 3, 0.7
        a_init = rng.normal(size=m)
        a, P = rls_init(m, mu=mu, a_init=a_init)
        H, d = [], []
        for _ in range(40):
            h = rng.normal(size=m)
            y = float(rng.normal())
            H.append(h)
            d.append(y)
            a, P, _ = rls_step(a, P, h, y, lam=1.0)
            ref = batch_ridge_solve(np.array(H), np.array(d), mu, a_init)
            assert np.max(np.abs(a - ref)) / max(np.max(np.abs(ref)), 1e-12) < 1e-8

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(3)
        a, P = rls_init(5, mu=1e-14)
        for _ in range(100):
            h = rng.normal(size=5) * rng.uniform(0.1, 10)
            a, P, _ = rls_step(a, P, h, float(rng.normal()))
            assert np.max(np.abs(P - P.T)) < 1e-9

    def test_covariance_positive_definite_at_moderate_mu(self):
        # at the tiny production mu, P starts at 1e14*I and float64 keeps
        # only ~1e14*eps absolute resolution through the rank-one update,
        # so positivity is asserted where P is representable; coefficient
        # correctness at tiny mu is covered by the closed-form comparison
        rng = np.random.default_rng(3)
        a, P = rls_init(5, mu=1.0)
        for _ in range(100):
            h = rng.normal(size=5) * rng.uniform(0.1, 10)
            a, P, _ = rls_step(a, P, h, float(rng.normal()))
            assert np.all(np.diag(P) > 0)
            np.linalg.cholesky(P)

    def test_error_is_exact_difference(self):
        # the innovation the gain multiplies is exactly actual - h'a, and
        # h'a is the prediction the step returns
        rng = np.random.default_rng(4)
        a, P = rls_init(3, mu=1.0)
        for _ in range(20):
            h = rng.normal(size=3)
            actual = float(rng.normal())
            Ph = P @ h
            gain = Ph / (float(h @ Ph) + 1.0)
            want = a + gain * (actual - float(h @ a))
            prior = float(h @ a)
            a, P, pred = rls_step(a, P, h, actual)
            assert np.array_equal(a, want) and pred == prior

    def test_objective_optimality_vs_competitors(self):
        # at lambda=1 the running coefficients minimize the ridge cost on
        # the rows seen so far, so any competitor scores no better
        rng = np.random.default_rng(5)
        m, mu = 3, 0.5
        a_init = np.ones(m)
        a, P = rls_init(m, mu=mu, a_init=a_init)
        H, d = [], []

        def cost(a):
            resid = np.array(d) - np.array(H) @ a
            return float(mu * (a - a_init) @ (a - a_init) + resid @ resid)

        for k in range(30):
            h = rng.normal(size=m)
            y = float(rng.normal())
            H.append(h)
            d.append(y)
            a, P, _ = rls_step(a, P, h, y, lam=1.0)
            if k % 7 == 0:
                for _ in range(5):
                    rival = a + rng.normal(size=m) * 0.1
                    assert cost(a) <= cost(rival) + 1e-9


class TestDcdRls:
    def test_matches_exact_rls_with_large_budget(self):
        rng = np.random.default_rng(6)
        a_star = np.array([0.8, -0.3, 1.5, 0.2])
        a, P = rls_init(4, mu=1.0)
        b, R, beta = dcd_rls_init(4, mu=1.0)
        for _ in range(200):
            h = rng.normal(size=4)
            y = float(h @ a_star) + 0.05 * float(rng.normal())
            a, P, _ = rls_step(a, P, h, y)
            b, R, beta, _ = dcd_step(b, R, beta, h, y, nu=1000, mb=32)
        assert np.max(np.abs(a - b)) < 1e-3

    def test_zero_regressor_leaves_coefficients(self):
        a, R, beta = dcd_rls_init(3, mu=1.0)
        b, _, _, _ = dcd_step(a, R, beta, np.zeros(3), 5.0)
        assert np.array_equal(b, a)

    def test_discrepancy_non_increasing_in_nu(self):
        a_star = np.array([0.8, -0.3, 1.5, 0.2])
        totals = []
        for nu in (1, 4, 16, 64):
            rng = np.random.default_rng(7)
            a, P = rls_init(4, mu=1.0)
            b, R, beta = dcd_rls_init(4, mu=1.0)
            total = 0.0
            for _ in range(200):
                h = rng.normal(size=4)
                y = float(h @ a_star) + 0.05 * float(rng.normal())
                total += abs(float(h @ a) - float(h @ b))
                a, P, _ = rls_step(a, P, h, y)
                b, R, beta, _ = dcd_step(b, R, beta, h, y, nu=nu, mb=16)
            totals.append(total)
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(0.9, 1.0), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8),
           n=st.integers(1, 40), mu=st.sampled_from([1e-14, 1.0]))
    def test_correlation_matrix_symmetric(self, lam, seed, m, n, mu):
        # exactly: the coordinate ladder reads row j of R as its column j
        rng = np.random.default_rng(seed)
        a, R, beta = dcd_rls_init(m, mu=mu)
        for h, d in zip(rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4, size=m),
                        rng.normal(size=n).tolist()):
            a, R, beta, _ = dcd_step(a, R, beta, h, d, lam=lam)
            assert np.array_equal(np.array(R), np.array(R).T)

    def test_domain_errors(self):
        for mu in [0.0, -1.0, *BAD_MU]:
            with pytest.raises(ValueError, match="mu must be finite"):
                dcd_rls_init(4, mu=mu)


class TestArLms:
    def test_constant_stream_converges(self):
        t = np.full(200, 8.0)
        w = np.zeros(ARLMS_ORDER)
        for hist, t_k in zip(sliding_window_view(t, ARLMS_ORDER), t[ARLMS_ORDER:].tolist()):
            w, _ = arlms_step(w, hist, t_k)
        assert float(w @ t[:ARLMS_ORDER]) == pytest.approx(8.0, rel=1e-3)

    def test_no_prediction_before_history_full(self):
        # replay predicts interval k only from the ARLMS_ORDER frame times
        # before it; the first prediction comes from the zero start weights
        with pytest.raises(DegenerateDataError, match="too short for the AR baseline"):
            run_replay(one_clock_trace([5.0] * ARLMS_ORDER), None, "arlms")
        rows = run_replay(one_clock_trace([5.0] * (ARLMS_ORDER + 2)), None, "arlms").rows
        assert rows.k.tolist() == [ARLMS_ORDER, ARLMS_ORDER + 1]
        assert rows.t_pred[0] == 0.0 and rows.t_pred[1] != 0.0

    def test_rls_predicts_from_second_sample_arlms_does_not(self):
        # step stream: adaptive model with features reacts immediately
        rng = np.random.default_rng(9)
        h_stream = rng.normal(size=(15, 2))
        a_star = np.array([2.0, -1.0])
        a, P = rls_init(2, mu=1e-14)
        a, P, _ = rls_step(a, P, h_stream[0], float(h_stream[0] @ a_star))
        second = float(h_stream[1] @ a)
        assert second != 0.0
        rows = run_replay(one_clock_trace(5.0 + np.arange(15.0)), None, "arlms").rows
        assert rows.k[0] == ARLMS_ORDER


def same_bits(x, y) -> bool:
    """Bitwise equality, which tells -0.0 from +0.0 where == does not."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestUpdatesMatchReferenceForms:
    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(0.9, 1.0), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6),
           n=st.integers(1, 40), nu=st.integers(1, 6), halves=st.booleans(),
           zeros=st.lists(st.booleans(), max_size=40))
    @example(lam=1.0, seed=0, m=4, n=40, nu=4, halves=False, zeros=[])
    @example(lam=1.0, seed=0, m=4, n=40, nu=4, halves=True, zeros=[])
    @example(lam=1.0, seed=0, m=4, n=40, nu=4, halves=False, zeros=[True] * 40)
    @example(lam=1.0, seed=0, m=4, n=40, nu=4, halves=False, zeros=[False, True])
    @example(lam=1.0, seed=115, m=4, n=40, nu=4, halves=False, zeros=[False, True])
    @example(lam=1.0, seed=89, m=4, n=1, nu=5, halves=False, zeros=[])
    def test_bitwise_for_forgetting_factors(self, lam, seed, m, n, nu, halves, zeros):
        # lam == 1.0 skips the division and scaling by lam, and dcd's
        # correlation and residual updates on a zero row, where a full rls
        # step must give its state back; below it they run.  Row i is all
        # zeros, some of them -0.0, where zeros[i] holds, so zero rows come
        # first, where P is still I/mu, as well as later.  Entries on a grid
        # of halves tie the DCD residuals, where the first largest one must
        # lead, and zero some entries of a row but not all.  The last three
        # examples: a zero row after a dcd step that made all nu updates,
        # whose carried residual then moves a at levels 7 to 11; a zero row
        # after a step that exhausted the ladder; and a step whose last
        # update is at level mb.
        rng = np.random.default_rng(seed)
        if halves:
            H, D = rng.integers(-2, 3, size=(n, m)) / 2.0, rng.integers(-2, 3, size=n) / 2.0
        else:
            H, D = rng.normal(size=(n, m)), rng.normal(size=n)
        for i, zero in enumerate(zeros[:n]):
            if zero:
                H[i] = np.where(rng.random(m) < 0.5, -0.0, 0.0)
        a, P = rls_init(m)
        b, R, beta = dcd_rls_init(m)
        ref_a, ref_P = a, P
        ref_b, ref_R, ref_beta = b, np.array(R), np.array(beta)
        for h, d in zip(H, D.tolist()):
            a, P, _ = rls_step(a, P, h, d, lam)
            b, R, beta, _ = dcd_step(b, R, beta, h, d, lam, nu)
            ref_a, ref_P = reference_rls(ref_a, ref_P, h, d, lam)
            # the paper's ladder depth, which dcd_step takes by default
            ref_b, ref_R, ref_beta = reference_dcd(ref_b, ref_R, ref_beta, h, d, lam, nu, 16)
            assert same_bits(a, ref_a) and same_bits(P, ref_P)
            assert same_bits(b, ref_b) and same_bits(R, ref_R) and same_bits(beta, ref_beta)


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
        for mu in (math.nan, math.inf):
            with pytest.raises(ValueError, match="mu must be finite"):
                batch_ridge_solve(np.ones((3, 2)), np.ones(3), mu, np.zeros(2))


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
    """Scaling into estimator units: estimator.counter_scales and estimator_units."""

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
