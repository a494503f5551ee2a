"""Simultaneous fog parameter estimation from landmark observations.

Given per-landmark sequences of (distance, radiance) pairs, jointly estimate
the scattering coefficient beta, the atmospheric-light radiance l_inf and
one clear radiance lc per landmark by bounded robust least squares on

    residual = L_obs - [(lc - l_inf) * exp(-beta * d) + l_inf]

The solve runs in two stages: a Huber stage over all observations with
confidence weights w = |lc_ref - l_inf_ref| * (inlier_count + 1), then a
square-loss stage restricted to the stage-1 inliers with uniform weights.
Weights are fixed before each stage-1 solve and never change inside a solve.
Box bounds come from per-landmark radiance-over-distance slopes, and
initialization reuses previous estimates when the caller keeps state across
updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateDataError, MapFormatError, NotEnoughDataError, parse_number
from .localmap import ObservationSet, sort_pairs
from .optimizer import ResidualProblem, SolveReport, solve
from .photometry import GammaMap, check_channel, compress, expand
from .scattering import visibility_from_beta

DEFAULT_BETA_BOUNDS = (0.001, 0.2)
# geometric-mean-flavored midpoint of the default beta range, used cold
DEFAULT_BETA_INIT = 0.014


@dataclass(frozen=True)
class EstimatorConfig:
    xi_f: int = 4                       # min frames per landmark
    xi_k: int = 15                      # min qualifying landmarks per estimate
    eta: float = 2.0                    # intensity-per-meter slope threshold
    delta: float = 5.0                  # Huber width, in intensity levels
    beta_bounds: tuple[float, float] = DEFAULT_BETA_BOUNDS
    two_stage: bool = True
    uniform_weights: bool = False

    def __post_init__(self):
        if self.xi_f < 2:
            raise ValueError("xi_f must be at least 2")
        if self.xi_k < 1:
            raise ValueError("xi_k must be at least 1")
        if not (0 < self.beta_bounds[0] < self.beta_bounds[1]):
            raise ValueError("beta bounds must satisfy 0 < lower < upper")
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not self.eta > 0:
            raise ValueError("eta must be positive")


@dataclass
class FogEstimate:
    beta: float
    l_inf: float
    lc: dict[int, float]

    @property
    def visibility(self) -> float:
        return visibility_from_beta(self.beta)


INLIER_COUNT_DTYPE = np.dtype([("frame", np.int64), ("landmark", np.int64),
                               ("count", np.int64)])


@dataclass
class EstimatorState:
    """Carried across sequential updates by one caller: ``previous``, the
    last estimate, and ``inlier_counts``, an array of ``INLIER_COUNT_DTYPE``
    with one row per sighting (``frame``, ``landmark``) that was a stage-1
    inlier and ``count``, in how many updates; unique, sorted by the pair."""

    previous: Optional[FogEstimate] = None
    inlier_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(0, INLIER_COUNT_DTYPE))


@dataclass
class Bounds:
    """The box over [beta, l_inf, lc...] the solver clips to, lc in obs.landmark_ids order."""

    lower: np.ndarray
    upper: np.ndarray

    @property
    def beta(self) -> tuple[float, float]:
        return float(self.lower[0]), float(self.upper[0])


@dataclass
class EstimateResult:
    estimate: FogEstimate
    bounds: Bounds
    stage1: SolveReport
    stage2: Optional[SolveReport]
    inlier_fraction: float
    degraded: bool = False


def derive_bounds(obs: ObservationSet, gmap: GammaMap,
                  eta: float = EstimatorConfig.eta,
                  beta_bounds: tuple[float, float] = DEFAULT_BETA_BOUNDS) -> Bounds:
    """Box bounds from per-landmark intensity-over-distance slopes.

    A landmark whose intensity climbs with distance faster than ``eta``
    levels per meter is darker than the fog: its clear radiance is capped by
    the radiance seen at the nearest range, and the radiance at the farthest
    range is a lower-bound candidate for l_inf (the median of the candidates
    is used, an underestimate by construction). A steep negative slope bounds
    the clear radiance from below the same way. Flat landmarks get the
    neutral range of the gamma map.
    """
    lo_all, hi_all = gmap.radiance_range
    # each landmark's nearest row, then each one's farthest: one array, so
    # that the clamp and the gamma-map call below are one numpy call each
    ends = np.concatenate((obs.near, obs.far))
    ends_l = obs.radiance[ends]
    far_l = ends_l[obs.near.size:]
    near_d, far_d = obs.distance[ends].reshape(2, -1)
    # noise can push observed radiances slightly out of the map's range;
    # clamp so the box stays ordered
    ends_c = np.minimum(np.maximum(ends_l, lo_all), hi_all)
    near_c, far_c = ends_c.reshape(2, -1)
    near_i, far_i = compress(gmap, ends_c).reshape(2, -1)
    spread = far_d - near_d
    rise = far_i - near_i
    slope = np.divide(rise, spread, out=np.zeros_like(rise), where=spread > 0)
    steep = slope > eta
    lo = np.where(slope < -eta, near_c, lo_all)
    hi = np.where(steep, near_c, hi_all)
    candidates = far_c[steep]
    if candidates.size:
        # A steep-slope landmark's far-range radiance sits below the haze
        # level, so the typical far-range radiance caps the bound; without
        # the cap a handful of gross outliers (the only points that can look
        # steep once everything is fog-washed) can squeeze the box above the
        # true value.
        l_inf_lo = min(_median(candidates), _median(far_l))
    else:
        l_inf_lo = lo_all
    return Bounds(lower=np.concatenate(([beta_bounds[0], l_inf_lo], lo)),
                  upper=np.concatenate(([beta_bounds[1], hi_all], hi)))


def initialize(obs: ObservationSet, state: EstimatorState, bounds: Bounds) -> np.ndarray:
    """Initial parameter vector [beta, l_inf, lc...], projected into bounds.

    Previous estimates are reused where available; otherwise beta starts at
    DEFAULT_BETA_INIT, l_inf at the median far-range radiance and each lc at
    the radiance observed at the nearest range.
    """
    ids = obs.landmark_ids
    prev = state.previous
    x = np.empty(2 + len(ids))
    if prev is None:
        x[0], x[1] = DEFAULT_BETA_INIT, _median(obs.radiance[obs.far])
        x[2:] = obs.radiance[obs.near]
    else:
        x[0], x[1] = prev.beta, prev.l_inf
        x[2:] = [prev.lc.get(n, L) for n, L in zip(ids, obs.radiance[obs.near].tolist())]
    return np.minimum(np.maximum(x, bounds.lower), bounds.upper)


def _median(a: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array of finite values, bit for bit:
    one partition, then the middle element or the mean of the two."""
    h = a.size // 2
    if a.size % 2:
        return float(np.partition(a, h)[h])
    p = np.partition(a, (h - 1, h))
    return float((p[h - 1] + p[h]) / 2.0)


def compute_weights(obs: ObservationSet, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Stage-1 confidence weights, one per observation row, from the
    contrast |lc - l_inf| of each landmark in the parameter vector ``x`` and
    each row's inlier count ``counts``."""
    contrast = np.abs(x[2:] - x[1])
    return contrast[obs.slot] * (counts + 1)


def _join_inlier_counts(table: np.ndarray, obs: ObservationSet):
    """``(pairs, row_pair, current)``: every (frame, landmark) pair of
    ``table`` or ``obs`` once, sorted, with its count in ``table`` (0 if
    absent); the index into ``pairs`` of each row of ``obs``; and which
    pairs have their frame in ``obs``. One sort of both serves the join."""
    frame = np.concatenate((table["frame"], obs.frame))
    landmark = np.concatenate((table["landmark"], obs.landmark))
    order, same_frame, same_pair = sort_pairs(frame, landmark)
    first = ~same_pair
    pair_of = np.empty(frame.size, dtype=np.intp)
    pair_of[order] = first.cumsum() - 1
    pairs = np.zeros(np.count_nonzero(first), INLIER_COUNT_DTYPE)
    pairs["frame"], pairs["landmark"] = frame[order][first], landmark[order][first]
    pairs["count"][pair_of[:table.size]] = table["count"]
    row_pair = pair_of[table.size:]
    frame_rank = ((~same_frame).cumsum() - 1)[first]   # of each pair's frame
    current = np.zeros(pairs.size, dtype=bool)
    current[frame_rank[row_pair]] = True               # frames with observation rows
    return pairs, row_pair, current[frame_rank]


def huber_delta_radiance(gmap: GammaMap, delta_intensity: float) -> float:
    """Huber width mapped from intensity levels to the radiance domain,
    measured across the middle of the intensity range."""
    mid = 127.5
    lo, hi = expand(gmap, [mid - delta_intensity / 2.0, mid + delta_intensity / 2.0]).tolist()
    return hi - lo


def _fog_problem(n_params: int, d: np.ndarray, L: np.ndarray, slot: np.ndarray,
                 **fields) -> ResidualProblem:
    """The fog model over the given observation rows, in the optimizer's
    slot form: (beta, l_inf) are global and row i depends on the one local
    parameter lc[slot[i]]. ``fields`` are the remaining ResidualProblem
    fields (weights, Huber width, bounds)."""
    lc = slot + 2
    # The solver evaluates the Jacobian at the trial point it just accepted,
    # so residual and Jacobian share exp(-beta d). The key is beta's value:
    # a caller may pass the same array again after editing it in place.
    cached = [math.nan, None]

    def transmission(beta: float) -> np.ndarray:
        if beta != cached[0]:
            cached[:] = beta, np.exp(-beta * d)
        return cached[1]

    def residual(x: np.ndarray) -> np.ndarray:
        t = transmission(float(x[0]))
        return L - ((x[lc] - x[1]) * t + x[1])

    def jacobian(x: np.ndarray) -> np.ndarray:
        t = transmission(float(x[0]))
        J = np.empty((d.size, 3))
        np.multiply(d, x[lc] - x[1], out=J[:, 0])
        J[:, 0] *= t
        np.subtract(t, 1.0, out=J[:, 1])
        np.negative(t, out=J[:, 2])
        return J
    return ResidualProblem(n_params, residual, jacobian, slot=slot, **fields)


def residual_and_jacobian(params: np.ndarray, obs: ObservationSet):
    """Residual vector and dense Jacobian of the fog model at ``params``.

    ``params`` is [beta, l_inf, lc...] with clear radiances in sorted
    landmark id order; rows follow the observation rows, sorted by distance
    within each landmark.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (2 + len(obs.landmark_ids),):
        raise ValueError("params must be [beta, l_inf] plus one lc per landmark")
    problem = _fog_problem(params.size, obs.distance, obs.radiance, obs.slot)
    return problem.residual(params), problem.dense_jacobian(params)


def estimate(obs: ObservationSet, gmap: GammaMap, state: EstimatorState,
             config: EstimatorConfig = EstimatorConfig()) -> EstimateResult:
    """Two-stage bounded robust solve for (beta, l_inf, lc...).

    Raises NotEnoughDataError when fewer than ``xi_k`` landmarks qualify and
    DegenerateDataError when no landmark has any distance spread. An empty
    stage-1 inlier set skips stage 2 and flags the result as degraded.
    Stage-1 weights read each row's ``count`` in ``state.inlier_counts``
    (0 if its (frame, landmark) pair is absent; see :class:`EstimatorState`);
    then each stage-1 inlier row adds one to its pair's ``count`` (a repeated
    pair once per row), and pairs whose frame is not in ``obs`` are dropped.
    """
    ids = obs.landmark_ids
    if len(ids) < config.xi_k:
        raise NotEnoughDataError(
            f"{len(ids)} qualifying landmarks, xi_k={config.xi_k} required")
    if np.logical_and.reduce(obs.distance[obs.far] == obs.distance[obs.near]):
        raise DegenerateDataError("no landmark has distance spread; beta is unidentifiable")

    bounds = derive_bounds(obs, gmap, config.eta, config.beta_bounds)
    x0 = initialize(obs, state, bounds)
    pairs, row_pair, current = _join_inlier_counts(state.inlier_counts, obs)
    # the confidence weights read the contrasts of the start vector: the
    # previous estimate where available, this update's initialization otherwise
    if config.uniform_weights:
        w = np.ones(obs.n_observations)
    else:
        w = compute_weights(obs, x0, pairs["count"][row_pair])

    delta_l = huber_delta_radiance(gmap, config.delta)
    stage1 = solve(
        _fog_problem(x0.size, obs.distance, obs.radiance, obs.slot, weights=w,
                     huber_delta=delta_l, lower=bounds.lower, upper=bounds.upper),
        x0)

    inlier = np.abs(stage1.residuals) <= delta_l
    # bincount, not fancy +=, so a pair with two inlier rows counts twice
    pairs["count"] += np.bincount(row_pair[inlier], minlength=pairs.size)
    state.inlier_counts = pairs[current & (pairs["count"] > 0)]

    stage2 = None
    degraded = False
    final = stage1.params
    if config.two_stage:
        if not inlier.any():
            degraded = True
        else:
            stage2 = solve(
                _fog_problem(x0.size, obs.distance[inlier], obs.radiance[inlier],
                             obs.slot[inlier], lower=bounds.lower, upper=bounds.upper),
                stage1.params)
            final = stage2.params

    result = FogEstimate(
        beta=float(final[0]), l_inf=float(final[1]),
        lc=dict(zip(ids, final[2:].tolist())))
    state.previous = result
    return EstimateResult(estimate=result, bounds=bounds,
                          stage1=stage1, stage2=stage2,
                          inlier_fraction=np.count_nonzero(inlier) / inlier.size,
                          degraded=degraded)


# --- estimate stream records -------------------------------------------------

RECORD_FIELDS = ("frame", "channel", "beta", "l_inf", "visibility",
                 "inlier_fraction", "stage1_cost", "stage2_cost", "degraded")


def format_estimate_record(frame: int, channel: str, result: EstimateResult) -> str:
    """One key=value line per update, as ``foglab estimate`` writes it;
    :func:`parse_estimate_record` reads it back."""
    est = result.estimate
    s2 = result.stage2.cost if result.stage2 is not None else math.nan
    vals = (frame, channel, est.beta, est.l_inf, est.visibility,
            result.inlier_fraction, result.stage1.cost, s2, int(result.degraded))
    return " ".join(f"{k}={v}" for k, v in zip(RECORD_FIELDS, vals))


def _record_value(key: str, val: str):
    """One field's value, in the grammar :func:`format_estimate_record`
    writes; ValueError otherwise."""
    if key == "channel":
        return check_channel(val)
    if key in ("frame", "degraded"):
        value = parse_number(val, int)
        if key == "degraded" and value not in (0, 1):
            raise ValueError(f"degraded is 0 or 1, got {value}")
        return value
    value = parse_number(val)
    if key == "inlier_fraction" and not 0.0 <= value <= 1.0:
        raise ValueError(f"inlier_fraction lies in [0, 1], got {value}")
    return value


def parse_estimate_record(line: str) -> dict:
    out: dict = {}
    for token in line.split():
        if "=" not in token:
            raise MapFormatError(f"bad record token {token!r}")
        key, val = token.split("=", 1)
        if key not in RECORD_FIELDS:
            raise MapFormatError(f"unknown record field {key!r}")
        if key in out:
            raise MapFormatError(f"repeated record field {key!r}")
        try:
            out[key] = _record_value(key, val)
        except ValueError as exc:
            raise MapFormatError(f"bad record field {key!r}: {exc}") from exc
    missing = [k for k in RECORD_FIELDS if k not in out]
    if missing:
        raise MapFormatError(f"record missing fields {missing}")
    return out
