"""Bipartite local map between frames and landmarks.

Each edge records one sighting of a landmark from a frame: the distance in
meters and the observed 8-bit intensities (1 value for gray maps, 3 for
color). From a graph we derive per-landmark distance-radiance observation
sets: landmarks seen from at least ``xi_f`` frames qualify, and an estimate
is attempted only when at least ``xi_k`` landmarks qualify.

The serialized form is line oriented (see docs/file_formats.md):

    localmap <n_frames> <n_landmarks> <n_edges> <n_channels>
    frame <id> [x y z]
    landmark <id> [x y z]
    edge <frame> <landmark> <distance> <i ...>
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import MapFormatError
from .photometry import ChannelGammaMaps, GammaMap, expand
from .scattering import LUMA_WEIGHTS


class Edge(NamedTuple):
    distance: float
    intensities: tuple[float, ...]


class Observation(NamedTuple):
    frame: int
    distance: float
    radiance: float


@dataclass(frozen=True)
class SelectionThresholds:
    """Minimum frames per landmark (xi_f) and landmarks per estimate (xi_k)."""

    xi_f: int = 4
    xi_k: int = 15

    def __post_init__(self):
        if self.xi_f < 2:
            raise ValueError("xi_f must be at least 2")
        if self.xi_k < 1:
            raise ValueError("xi_k must be at least 1")


@dataclass
class LocalMapGraph:
    n_channels: int = 1
    frames: dict[int, tuple[float, float, float] | None] = field(default_factory=dict)
    landmarks: dict[int, tuple[float, float, float] | None] = field(default_factory=dict)
    edges: dict[tuple[int, int], Edge] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_channels not in (1, 3):
            raise ValueError("n_channels must be 1 or 3")

    def add_frame(self, frame: int, position=None) -> None:
        self.frames.setdefault(frame, tuple(position) if position is not None else None)

    def add_landmark(self, landmark: int, position=None) -> None:
        self.landmarks.setdefault(landmark, tuple(position) if position is not None else None)

    def add_edge(self, frame: int, landmark: int, distance: float, intensities) -> None:
        key = (frame, landmark)
        if key in self.edges:
            raise ValueError(f"duplicate edge for frame {frame}, landmark {landmark}")
        if not (math.isfinite(distance) and distance > 0):
            raise ValueError("edge distance must be positive and finite")
        vals = tuple(float(v) for v in intensities)
        if len(vals) != self.n_channels:
            raise ValueError(f"expected {self.n_channels} intensities, got {len(vals)}")
        if any(not (0.0 <= v <= 255.0) for v in vals):
            raise ValueError("intensities must lie in [0, 255]")
        self.add_frame(frame)
        self.add_landmark(landmark)
        self.edges[key] = Edge(float(distance), vals)

    def landmark_degree(self, landmark: int) -> int:
        return sum(1 for (_, n) in self.edges if n == landmark)

    def frame_subset(self, frame_ids) -> "LocalMapGraph":
        """Restriction to the given frames, e.g. the prefix of a stream.

        Landmark entries are kept as-is; per-landmark observation minimums
        are enforced later by generate_dr_pairs.
        """
        keep = set(frame_ids)
        return LocalMapGraph(
            n_channels=self.n_channels,
            frames={m: p for m, p in self.frames.items() if m in keep},
            landmarks=dict(self.landmarks),
            edges={k: e for k, e in self.edges.items() if k[0] in keep})


class ObservationSet:
    """Distance-radiance observations, one row per sighting, in read-only
    columns sorted by (landmark, distance, frame) and validated when built.

    ``slot`` indexes ``landmark_ids``; ``near`` and ``far`` are the first and
    last row of each landmark's block. ``ObservationSet(groups)`` flattens
    ``{landmark: [Observation, ...]}``; :meth:`from_columns` takes arrays.
    """

    def __init__(self, groups: dict[int, tuple[Observation, ...]]):
        rows = [(o.frame, n, o.distance, o.radiance)
                for n, group in groups.items() for o in group]
        frame, landmark, distance, radiance = zip(*rows) if rows else ((),) * 4
        self._build(frame, landmark, distance, radiance)

    @classmethod
    def from_columns(cls, frame, landmark, distance, radiance) -> "ObservationSet":
        obs = cls.__new__(cls)
        obs._build(frame, landmark, distance, radiance)
        return obs

    def _build(self, frame, landmark, distance, radiance) -> None:
        frame = np.asarray(frame, dtype=np.int64)
        landmark = np.asarray(landmark, dtype=np.int64)
        distance = np.asarray(distance, dtype=float)
        radiance = np.asarray(radiance, dtype=float)
        if not (frame.shape == landmark.shape == distance.shape == radiance.shape
                == (frame.size,)):
            raise ValueError("observation columns must be 1-D and equally long")
        if not (np.all(np.isfinite(distance)) and np.all(distance > 0)):
            raise ValueError("observation distances must be positive and finite")
        if not np.all(np.isfinite(radiance)):
            raise ValueError("observation radiances must be finite")
        order = np.lexsort((frame, distance, landmark))
        self.frame, self.landmark = frame[order], landmark[order]
        self.distance, self.radiance = distance[order], radiance[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = self.landmark[1:] != self.landmark[:-1]
        self.slot = np.cumsum(first) - 1
        self.near = np.flatnonzero(first)
        self.far = np.flatnonzero(np.roll(first, -1))
        for col in (self.frame, self.landmark, self.distance, self.radiance,
                    self.slot, self.near, self.far):
            col.flags.writeable = False

    @property
    def landmark_ids(self) -> list[int]:
        return self.landmark[self.near].tolist()

    @property
    def n_observations(self) -> int:
        return self.distance.size

    @property
    def groups(self) -> dict[int, tuple[Observation, ...]]:
        """Per-landmark view of the rows, nearest first."""
        rows = zip(self.frame.tolist(), self.distance.tolist(), self.radiance.tolist())
        obs = [Observation(*row) for row in rows]
        return {n: tuple(obs[s:e + 1]) for n, s, e in
                zip(self.landmark_ids, self.near.tolist(), self.far.tolist())}


def generate_dr_pairs(graph: LocalMapGraph, gmap: GammaMap | ChannelGammaMaps,
                      channel: str = "gray",
                      thresholds: SelectionThresholds = SelectionThresholds()) -> ObservationSet:
    """Expand one channel of the graph into per-landmark (d, L) observations.

    Landmarks seen from fewer than ``thresholds.xi_f`` frames are dropped.
    Intensities are converted to radiances through the channel's gamma map;
    for color graphs the gray channel is the luma combination of r, g, b
    taken before expansion.
    """
    if isinstance(gmap, ChannelGammaMaps):
        gmap = gmap.for_channel(channel)
    keys = np.array(list(graph.edges), dtype=np.int64).reshape(-1, 2)
    distance = np.array([e.distance for e in graph.edges.values()])
    values = np.array([e.intensities for e in graph.edges.values()]).reshape(
        -1, graph.n_channels)
    if graph.n_channels == 1:
        intensity = values[:, 0]
    elif channel == "gray":
        w = LUMA_WEIGHTS
        intensity = w[0] * values[:, 0] + w[1] * values[:, 1] + w[2] * values[:, 2]
    else:
        intensity = values[:, {"r": 0, "g": 1, "b": 2}[channel]]
    _, slot, counts = np.unique(keys[:, 1], return_inverse=True, return_counts=True)
    keep = counts[slot] >= thresholds.xi_f
    return ObservationSet.from_columns(keys[keep, 0], keys[keep, 1], distance[keep],
                                       expand(gmap, intensity[keep]))


def check_sufficiency(obs: ObservationSet,
                      thresholds: SelectionThresholds = SelectionThresholds()) -> bool:
    """True when enough landmarks qualify for a joint estimate."""
    return len(obs.landmark_ids) >= thresholds.xi_k


def save_map(graph: LocalMapGraph, path) -> None:
    ids = sorted(set(graph.frames) | {m for (m, _) in graph.edges})
    lids = sorted(set(graph.landmarks) | {n for (_, n) in graph.edges})
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"localmap {len(ids)} {len(lids)} {len(graph.edges)} {graph.n_channels}\n")
        for m in ids:
            pos = graph.frames.get(m)
            tail = "" if pos is None else " " + " ".join(repr(float(x)) for x in pos)
            fh.write(f"frame {m}{tail}\n")
        for n in lids:
            pos = graph.landmarks.get(n)
            tail = "" if pos is None else " " + " ".join(repr(float(x)) for x in pos)
            fh.write(f"landmark {n}{tail}\n")
        for (m, n) in sorted(graph.edges):
            e = graph.edges[(m, n)]
            vals = " ".join(repr(v) for v in e.intensities)
            fh.write(f"edge {m} {n} {e.distance!r} {vals}\n")


def _parse_position(parts: list[str], lineno: int):
    if not parts:
        return None
    if len(parts) != 3:
        raise MapFormatError("positions take exactly 3 coordinates", lineno)
    try:
        return tuple(float(x) for x in parts)
    except ValueError as exc:
        raise MapFormatError(f"bad coordinate: {exc}", lineno) from exc


def load_map(path) -> LocalMapGraph:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()

    header = None
    graph = None
    counts = (0, 0, 0)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "localmap" or len(parts) != 5:
                raise MapFormatError("expected header: localmap F K E C", lineno)
            try:
                nf, nk, ne, nc = (int(x) for x in parts[1:])
            except ValueError as exc:
                raise MapFormatError(f"bad header count: {exc}", lineno) from exc
            if nc not in (1, 3):
                raise MapFormatError("channel count must be 1 or 3", lineno)
            header = (nf, nk, ne)
            graph = LocalMapGraph(n_channels=nc)
            continue
        kind = parts[0]
        try:
            if kind == "frame":
                graph.frames[int(parts[1])] = _parse_position(parts[2:], lineno)
            elif kind == "landmark":
                graph.landmarks[int(parts[1])] = _parse_position(parts[2:], lineno)
            elif kind == "edge":
                if len(parts) != 4 + graph.n_channels:
                    raise MapFormatError(
                        f"edge takes frame, landmark, distance and {graph.n_channels} "
                        "intensities", lineno)
                graph.add_edge(int(parts[1]), int(parts[2]), float(parts[3]),
                               [float(v) for v in parts[4:]])
            else:
                raise MapFormatError(f"unknown record {kind!r}", lineno)
        except MapFormatError:
            raise
        except ValueError as exc:
            raise MapFormatError(str(exc), lineno) from exc
    if graph is None:
        raise MapFormatError("empty file: missing localmap header")
    counts = (len(graph.frames), len(graph.landmarks), len(graph.edges))
    if counts != header:
        raise MapFormatError(
            f"header promises frames/landmarks/edges {header}, file holds {counts}")
    return graph
