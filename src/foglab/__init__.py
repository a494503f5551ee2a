"""Fog parameter estimation from landmark observation sequences.

The package estimates the scattering coefficient, atmospheric-light radiance
and per-landmark clear radiances jointly from distance-radiance observations,
with sequential baselines, a camera-response calibration pipeline and a
synthetic-scene simulator for controlled experiments.
"""

from .errors import (DataError, DegenerateDataError, MapFormatError,
                     NotEnoughDataError, NumericError)
from .estimator import (EstimatorConfig, EstimatorState, FogEstimate,
                        derive_bounds, estimate, should_update)
from .localmap import (LocalMapGraph, Observation, ObservationSet,
                       generate_dr_pairs, load_map, save_map)
from .metrics import MetricsReport, compute_metrics
from .optimizer import ResidualProblem, SolveReport, solve
from .photometry import (CalibrationSeries, ChannelGammaMaps, GammaMap,
                         compress, expand, fit_gamma_map)
from .scattering import (FogParams, IntensityFogParams, beta_from_visibility,
                         predict_radiance, synthesize_fog_image,
                         synthesize_fog_pixel, transmission, visibility_from_beta)
from .simulator import NoiseSpec, SceneSpec, gamma_bias_experiment, generate_scene

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
