"""Adaptive GPU frame-time modeling and DVFS governor simulation.

The pipeline: synthesize or parse characterization traces (trace), pick
the online feature set offline (features), learn the differential
frame-time model online (estimator), evaluate what-if deltas and frequency
sensitivity (model), and drive energy-minimizing frequency decisions
under a frame-rate constraint (governor).  The cli module ties the
stages together.
"""

from .estimator import (ArLmsState, DcdRlsState, RlsState, arlms_init, arlms_update,
                        batch_ridge_solve, dcd_rls_init, dcd_rls_update, op_count,
                        rls_init, rls_update)
from .features import (FeatureSpec, LassoPath, RegressionDataset, build_dataset,
                       counter_scales, cross_validated_path, default_eta_grid,
                       differential_features, estimator_units, pearson_prune,
                       select_features)
from .governor import (GovernorConfig, PolicyResult, PowerModel, interval_energy,
                       ondemand_policy_step, oracle_policy, rls_policy_step, simulate)
from .model import candidate_delta, frequency_sensitivity, three_point_derivative
from .trace import (DEFAULT_FREQ_TABLE, AffineMap, CounterModel, FrequencyTable,
                    HashNoiseMap, PiecewiseLinearMap, Trace, TraceParseError,
                    WorkloadSpec, generate_characterization, generate_runtime,
                    oracle_counters, oracle_frame_time, parse_trace, serialize_trace)

__version__ = "0.1.0"
