"""Adaptive GPU frame-time modeling and DVFS governor simulation.

The pipeline: synthesize or parse characterization traces (trace), pick
the online feature set offline (features), learn the differential
frame-time model online (estimator), evaluate what-if deltas and frequency
sensitivity (model), and drive energy-minimizing frequency decisions
under a frame-rate constraint (governor).  The cli module ties the
stages together.
"""

__version__ = "0.1.0"
