import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frametime.features import differential_features, estimator_units
from frametime.model import candidate_delta, frequency_sensitivity, three_point_derivative
from frametime.trace import FrequencyTable


MINNOW = FrequencyTable((200.0, 311.0, 355.0, 400.0, 444.0, 489.0, 511.0))
PAIR = FrequencyTable((400.0, 444.0))


def derivative_at(coeffs, prev_t, f_k, table):
    """(dtf_df, one_sided) of a single coefficient row at one frequency."""
    dtf, one_sided = frequency_sensitivity(np.asarray([coeffs], dtype=float),
                                           [prev_t], [f_k], table)
    return float(dtf[0]), bool(one_sided[0])


class TestCandidateDelta:
    def test_identity_frequency_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=4)
            f = float(rng.uniform(100, 600))
            assert candidate_delta(a[0], a[1], float(rng.uniform(0, 30)), f, f) == 0.0

    def test_worked_step_up(self):
        delta = candidate_delta(1.0, 0.0, 10.0, 400.0, 444.0)
        assert delta == pytest.approx(10.0 * (400.0 / 444.0 - 1.0))
        assert delta < 0

    def test_frequency_term_in_ghz(self):
        assert candidate_delta(0.0, 2.0, 10.0, 400.0, 444.0) == pytest.approx(2.0 * 0.044)

    @settings(max_examples=200, deadline=None)
    @given(a0=st.floats(-1e3, 1e3), a1=st.floats(-1e3, 1e3), t=st.floats(0.0, 1e3),
           f_k=st.floats(1.0, 5e3),
           levels=st.lists(st.floats(1.0, 5e3), min_size=1, max_size=12))
    def test_floats_equal_arrays_bitwise(self, a0, a1, t, f_k, levels):
        # the rls governor asks one row on Python floats, replay and
        # sensitivity ask arrays of rows
        on_floats = [candidate_delta(a0, a1, t, f_k, f) for f in levels]
        on_arrays = candidate_delta(np.full(len(levels), a0), np.array(a1), np.array(t),
                                     f_k, np.array(levels))
        assert np.array(on_floats).tobytes() == on_arrays.tobytes()


class TestPredictFrameTime:
    """The feature vector a frame-time prediction h'a is made from."""

    def test_feature_vector_units(self):
        # 400 -> 444 MHz after a 10 ms frame, one counter delta already at its scale
        h = differential_features(10.0, 400.0, 444.0, [0.25]) / estimator_units([[1.0]])[0]
        assert h[0] == pytest.approx(10.0 * (400.0 / 444.0 - 1.0))
        assert h[1] == pytest.approx(0.044)
        assert h[2] == 0.25
        # the what-if delta is the frequency part of h'a
        a = [0.7, -1.3, 2.0]
        assert (candidate_delta(a[0], a[1], 10.0, 400.0, 444.0)
                == pytest.approx(h[0] * a[0] + h[1] * a[1]))


class TestTwoPointSensitivity:
    def test_flat_model_zero(self):
        dtf, one_sided = derivative_at([0.0, 0.0, 0.0], 10.0, 400.0, PAIR)
        assert dtf == 0.0
        assert one_sided

    def test_sign_negative_for_scalable_up_step(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a0 = float(rng.uniform(0.1, 1.5))
            a1 = float(rng.uniform(-1.0, 0.0))
            dtf, _ = derivative_at([a0, a1], float(rng.uniform(1, 30)), 400.0, PAIR)
            assert dtf < 0

    def test_equal_frequencies_rejected(self):
        # the secant spans two distinct table levels, never a zero width
        with pytest.raises(ValueError):
            FrequencyTable((400.0, 400.0))
        with pytest.raises(ValueError):
            derivative_at([1.0, 0.0], 10.0, 420.0, PAIR)

    def test_matches_analytic_on_converged_model(self):
        # oracle t(f) = s*ref/f + u; converged coefficients a0 = s*ref/(f_k*t)
        s, u, ref, f_k, f_new = 12.0, 2.0, 200.0, 400.0, 444.0
        t_k = s * ref / f_k + u
        dtf, _ = derivative_at([s * ref / f_k / t_k, 0.0], t_k, f_k, PAIR)
        analytic = -s * ref / (f_k * f_new)
        assert dtf == pytest.approx(analytic, rel=1e-12)


class TestThreePointDerivative:
    def test_quadratic_exact_unequal_spacing(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b, c = rng.normal(size=3)
            f = float(rng.uniform(300, 500))
            df1 = float(rng.uniform(10, 60))
            df2 = float(rng.uniform(10, 60))
            t = lambda x: a * x * x + b * x + c
            got = three_point_derivative(t(f - df1), t(f), t(f + df2), df1, df2)
            want = 2 * a * f + b
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_equal_spacing_reduces_to_central_difference_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            t_lo, t_mid, t_hi = rng.normal(size=3)
            d = float(rng.uniform(5, 50))
            assert three_point_derivative(t_lo, t_mid, t_hi, d, d) == (t_hi - t_lo) / (2 * d)

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            three_point_derivative(1.0, 2.0, 3.0, 0.0, 10.0)


class TestLagrangeSensitivity:
    def test_uneven_spacing_at_489(self):
        # neighbors of 489 are 444 and 511: spacings 45 below, 22 above
        a = np.array([1.0, 0.0])
        prev_t = 10.0
        dtf, one_sided = derivative_at(a, prev_t, 489.0, MINNOW)
        assert not one_sided
        df1, df2 = 489.0 - 444.0, 511.0 - 489.0
        assert (df1, df2) == (45.0, 22.0)
        t_mid = prev_t
        t_lo = t_mid + candidate_delta(a[0], a[1], prev_t, 489.0, 444.0)
        t_hi = t_mid + candidate_delta(a[0], a[1], prev_t, 489.0, 511.0)
        want = three_point_derivative(t_lo, t_mid, t_hi, df1, df2)
        assert dtf == want

    def test_boundary_falls_back_to_secant(self):
        a = np.array([1.0, 0.0])
        for f, neighbor in ((200.0, 311.0), (511.0, 489.0)):
            dtf, one_sided = derivative_at(a, 10.0, f, MINNOW)
            assert one_sided
            assert dtf == candidate_delta(a[0], a[1], 10.0, f, neighbor) / (neighbor - f)

    def test_equal_spacing_matches_central_difference(self):
        table = FrequencyTable((300.0, 400.0, 500.0))
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=2)
            prev_t = float(rng.uniform(1, 30))
            dtf, _ = derivative_at(a, prev_t, 400.0, table)
            t_lo = prev_t + candidate_delta(a[0], a[1], prev_t, 400.0, 300.0)
            t_hi = prev_t + candidate_delta(a[0], a[1], prev_t, 400.0, 500.0)
            assert dtf == (t_hi - t_lo) / 200.0

    def test_quadratic_model_recovered_through_deltas(self):
        # feed candidate deltas from a quadratic frame-time curve and check
        # the derivative at the middle frequency is exact
        a2, a1_, a0_ = 3e-5, -0.05, 25.0
        t = lambda f: a2 * f * f + a1_ * f + a0_
        f_k = 444.0
        lower, upper = 400.0, 489.0
        t_lo, t_mid, t_hi = t(lower), t(f_k), t(upper)
        got = three_point_derivative(t_lo, t_mid, t_hi, f_k - lower, upper - f_k)
        assert got == pytest.approx(2 * a2 * f_k + a1_, rel=1e-12)


@st.composite
def sensitivity_rows(draw):
    """A random table plus coefficient rows, prev_t values and table positions."""
    n_levels = draw(st.integers(2, 9))
    gaps = draw(st.lists(st.sampled_from([11.0, 22.0, 34.0, 44.5, 45.0, 111.0]),
                         min_size=n_levels - 1, max_size=n_levels - 1))
    table = FrequencyTable(tuple(200.0 + np.cumsum([0.0] + gaps)))
    n = draw(st.integers(1, 16))
    m = draw(st.integers(2, 5))
    coef = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    a = np.array(draw(st.lists(coef, min_size=n * m, max_size=n * m))).reshape(n, m)
    prev_t = draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n))
    levels = draw(st.lists(st.integers(0, n_levels - 1), min_size=n, max_size=n))
    return table, a, np.array(prev_t), np.array([table.freqs_mhz[i] for i in levels])


class TestFrequencySensitivity:
    @settings(max_examples=200, deadline=None)
    @given(sensitivity_rows())
    def test_rows_match_scalar_forms_bitwise(self, case):
        table, a, prev_t, f_k = case
        dtf, one_sided = frequency_sensitivity(a, prev_t, f_k, table)
        for row, t, f, got, side in zip(a, prev_t.tolist(), f_k.tolist(), dtf, one_sided):
            i = table.index(f)
            lower = table.freqs_mhz[i - 1] if i > 0 else None  # no wrap to the top
            upper = table.freqs_mhz[i + 1] if i + 1 < len(table) else None
            if lower is None or upper is None:
                f_new = upper if lower is None else lower
                want = candidate_delta(row[0], row[1], t, f, f_new) / (f_new - f)
            else:
                a0, a1 = row[0], row[1]
                want = three_point_derivative(t + candidate_delta(a0, a1, t, f, lower), t,
                                              t + candidate_delta(a0, a1, t, f, upper),
                                              f - lower, upper - f)
            assert side == (lower is None or upper is None)
            assert got == want


class TestSensitivityTrend:
    def test_magnitude_flattens_with_frequency_on_oracle_model(self):
        # frame time s*ref/f + u has a derivative whose magnitude shrinks
        # as f grows; a converged model must reproduce that flattening
        s, u, ref = 15.0, 1.0, 200.0
        interior = np.array(MINNOW.freqs_mhz[1:-1])
        dtf, _ = frequency_sensitivity([0.8, 0.5], s * ref / interior + u, interior, MINNOW)
        mags = np.abs(dtf)
        assert all(b <= a for a, b in zip(mags, mags[1:]))
