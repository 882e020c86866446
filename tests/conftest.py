import numpy as np
import pytest

from frametime.trace import (AffineMap, CounterModel, FrequencyTable,
                             WorkloadSpec, generate_characterization)
from scenarios import shipped


@pytest.fixture(scope="session")
def sweep_table():
    return shipped("characterization").freq_table


@pytest.fixture(scope="session")
def char_workload():
    return shipped("characterization").workload


@pytest.fixture(scope="session")
def small_sweep(char_workload, sweep_table):
    """Small noiseless sweep shared by parse/feature tests."""
    spec = char_workload._replace(noise_sigma=0.0)
    return generate_characterization(spec, sweep_table, range(1, 9), 2, seed=11)


@pytest.fixture
def simple_workload():
    """Two-counter affine workload for targeted analytic checks."""
    return WorkloadSpec(
        complexity_schedule=(10.0,) * 20,
        scalable_ms=AffineMap(0.2, 1.0),
        unscalable_ms=AffineMap(0.05, 0.5),
        ref_freq_mhz=200.0,
        dep_counters=(CounterModel("busy", AffineMap(10.0, 100.0)),),
        indep_counters=(CounterModel("units", AffineMap(5.0, 20.0)),),
        noise_sigma=0.0,
    )


@pytest.fixture
def small_table():
    return FrequencyTable((200.0, 400.0, 600.0))


def random_trace(rng, n_samples=6, n_counters=3):
    """Random valid trace for round-trip style properties.

    Timestamps are sorted draws, since a trace's timestamps must increase.
    """
    from frametime.trace import Trace
    freqs = (200.0, 311.0, 400.0)
    return Trace(
        timestamps=np.sort(rng.uniform(0, 100, n_samples)),
        frame_times=rng.uniform(0, 30, n_samples),
        frame_counts=rng.integers(0, 4, n_samples),
        freqs=rng.choice(freqs, n_samples),
        counters=rng.uniform(0, 1e5, (n_samples, n_counters)),
        counter_names=tuple(f"c{i}" for i in range(n_counters)),
        freq_table=FrequencyTable(freqs),
    )
