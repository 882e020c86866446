import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frametime.estimator import MHZ_PER_GHZ, differential_features, estimator_units
from frametime.model import candidate_delta, frequency_sensitivity, what_if
from frametime.trace import FrequencyTable


MINNOW = FrequencyTable((200.0, 311.0, 355.0, 400.0, 444.0, 489.0, 511.0))
PAIR = FrequencyTable((400.0, 444.0))


def derivative_at(coeffs, base, f_k):
    """dtf_df of a single coefficient row at one frequency."""
    return float(frequency_sensitivity(np.asarray([coeffs], dtype=float),
                                       np.array([base]), np.array([f_k]))[0])


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


class TestClosedFormDerivative:
    def test_flat_model_zero(self):
        assert derivative_at([0.0, 0.0, 0.0], 10.0, 400.0) == 0.0

    def test_sign_negative_for_scalable_up_step(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a0 = float(rng.uniform(0.1, 1.5))
            a1 = float(rng.uniform(-1.0, 0.0))
            assert derivative_at([a0, a1], float(rng.uniform(1, 30)), 400.0) < 0

    def test_equal_frequencies_rejected(self):
        # the what-ifs beside the derivative span distinct table levels, and
        # a clock off the table has none
        with pytest.raises(ValueError):
            FrequencyTable((400.0, 400.0))
        with pytest.raises(ValueError):
            what_if(np.array([1.0, 0.0]), 10.0, 420.0, PAIR, 1)

    def test_matches_analytic_on_converged_model(self):
        # oracle t(f) = s*ref/f + u; converged coefficients a0 = s*ref/(f_k*t)
        s, u, ref, f_k = 12.0, 2.0, 200.0, 400.0
        t_k = s * ref / f_k + u
        dtf = derivative_at([s * ref / f_k / t_k, 0.0], t_k, f_k)
        assert dtf == pytest.approx(-s * ref / (f_k * f_k), rel=1e-12)


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
        # the closed form on a replay's coefficient rows equals the one a
        # caller writes on Python floats, row by row
        _, a, base, f_k = case
        dtf = frequency_sensitivity(a, base, f_k)
        on_floats = [-row[0] * t / f + row[1] / MHZ_PER_GHZ
                     for row, t, f in zip(a.tolist(), base.tolist(), f_k.tolist())]
        assert np.array(on_floats).tobytes() == dtf.tobytes()
        assert np.float64(on_floats[0]).tobytes() == frequency_sensitivity(
            a[0], base[0], f_k[0]).tobytes()


class TestWhatIf:
    @settings(max_examples=100, deadline=None)
    @given(sensitivity_rows(), st.integers(1, 10))
    def test_every_jump_matches_scalar_delta(self, case, jumps):
        table, a, base, f_k = case
        level, valid, delta = what_if(a, base, f_k, table, jumps)
        assert level.shape == valid.shape == delta.shape == (jumps, 2, len(a))
        levels = table.freqs_mhz
        for i, (row, t, f) in enumerate(zip(a.tolist(), base.tolist(), f_k.tolist())):
            at = levels.index(f)
            for j in range(jumps):
                for side, step in enumerate((j + 1, -j - 1)):
                    on_table = 0 <= at + step < len(levels)
                    assert valid[j, side, i] == on_table
                    if on_table:
                        assert level[j, side, i] == at + step
                        want = candidate_delta(row[0], row[1], t, f, levels[at + step])
                        assert np.float64(want).tobytes() == delta[j, side, i].tobytes()


class TestSensitivityTrend:
    def test_magnitude_flattens_with_frequency_on_oracle_model(self):
        # frame time s*ref/f + u has a derivative whose magnitude shrinks
        # as f grows; a converged model must reproduce that flattening
        s, u, ref = 15.0, 1.0, 200.0
        freqs = np.array(MINNOW.freqs_mhz)
        dtf = frequency_sensitivity(np.array([0.8, 0.5]), s * ref / freqs + u, freqs)
        mags = np.abs(dtf)
        assert all(b <= a for a, b in zip(mags, mags[1:]))
