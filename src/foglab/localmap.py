"""Bipartite local map between frames and landmarks.

Each edge records one sighting of a landmark from a frame: the distance in
meters and the observed 8-bit intensities (1 value for gray maps, 3 for
color). From a graph we derive per-landmark distance-radiance observation
sets of one channel; only landmarks seen from at least ``xi_f`` frames
qualify.

The serialized form is line oriented (see docs/file_formats.md):

    localmap <n_frames> <n_landmarks> <n_edges> <n_channels>
    frame <id> [x y z]
    landmark <id> [x y z]
    edge <frame> <landmark> <distance> <i ...>
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import MapFormatError
from .photometry import CHANNEL_NAMES, GammaMap, check_channel, expand
from .scattering import LUMA_WEIGHTS


class Observation(NamedTuple):
    frame: int
    distance: float
    radiance: float


def _edge_dtype(n_channels: int) -> np.dtype:
    return np.dtype([("frame", np.int64), ("landmark", np.int64), ("distance", float),
                     ("intensity", float, (n_channels,))])


class EdgeError(ValueError):
    """An invalid edge; ``row`` is its index in the columns it was given in."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


@dataclass
class LocalMapGraph:
    """Frames and landmarks, each with an optional position, and the edges.

    ``edges`` is one structured array with fields ``frame``, ``landmark``,
    ``distance`` and ``intensity`` (``(E, n_channels)``): one row per
    sighting, in (frame, landmark) order. Graphs with edges are built by
    :meth:`from_edges`, which validates the whole table at once.
    """

    n_channels: int = 1
    frames: dict[int, tuple[float, float, float] | None] = field(default_factory=dict)
    landmarks: dict[int, tuple[float, float, float] | None] = field(default_factory=dict)
    edges: np.ndarray | None = None

    def __post_init__(self):
        if self.n_channels not in (1, 3):
            raise ValueError("n_channels must be 1 or 3")
        if self.edges is None:
            self.edges = np.zeros(0, _edge_dtype(self.n_channels))

    @classmethod
    def from_edges(cls, frame, landmark, distance, intensity, n_channels: int = 1,
                   frames=None, landmarks=None) -> "LocalMapGraph":
        """Graph of the given edges; endpoints missing from ``frames`` or
        ``landmarks`` are registered without a position.

        ``intensity`` is ``(E, n_channels)``. Raises :class:`EdgeError` for
        the first row, in the order given, that repeats an earlier
        (frame, landmark) pair, has a distance that is not positive and
        finite, or has an intensity outside [0, 255].
        """
        n_edges = np.size(frame)
        intensity = np.asarray(intensity, dtype=float)
        if intensity.shape != (n_edges, n_channels):
            raise ValueError(f"expected {n_channels} intensities per edge, got an "
                             f"array of shape {intensity.shape}")
        table = np.empty(n_edges, _edge_dtype(n_channels))
        table["frame"], table["landmark"] = frame, landmark
        table["distance"], table["intensity"] = distance, intensity
        order = np.lexsort((table["landmark"], table["frame"]))
        table = table[order]
        frame, landmark = table["frame"], table["landmark"]
        distance, intensity = table["distance"], table["intensity"]
        # the sort is stable, so a repeated pair sorts after its first sighting
        repeat = np.zeros(n_edges, dtype=bool)
        repeat[1:] = (frame[1:] == frame[:-1]) & (landmark[1:] == landmark[:-1])
        problems = (
            (repeat, "duplicate of an earlier edge"),
            (~(np.isfinite(distance) & (distance > 0)), "distance must be positive and finite"),
            (~np.all((intensity >= 0) & (intensity <= 255), axis=1),
             "intensities must lie in [0, 255]"))
        bad = np.logical_or.reduce([mask for mask, _ in problems])
        if bad.any():
            k = np.flatnonzero(bad)[np.argmin(order[bad])]
            message = next(message for mask, message in problems if mask[k])
            raise EdgeError(f"edge at frame {frame[k]}, landmark {landmark[k]}: {message}",
                            int(order[k]))
        return cls(n_channels,
                   {**dict.fromkeys(np.unique(frame).tolist()), **(frames or {})},
                   {**dict.fromkeys(np.unique(landmark).tolist()), **(landmarks or {})},
                   table)

    def frame_subset(self, frame_ids) -> "LocalMapGraph":
        """Restriction to the given frames, e.g. the prefix of a stream.

        Landmark entries are kept as-is; per-landmark observation minimums
        are enforced later by generate_dr_pairs.
        """
        keep = set(frame_ids)
        return LocalMapGraph(
            self.n_channels, {m: p for m, p in self.frames.items() if m in keep},
            dict(self.landmarks), self.edges[np.isin(self.edges["frame"], list(keep))])


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


def generate_dr_pairs(graph: LocalMapGraph, gmap: GammaMap, channel: str = "gray",
                      xi_f: int = 4) -> ObservationSet:
    """Expand one channel of the graph into per-landmark (d, L) observations.

    Landmarks seen from fewer than ``xi_f`` frames are dropped. Intensities
    are converted to radiances through ``gmap``, the channel's gamma map; for
    color graphs the gray channel is the luma combination of r, g, b taken
    before expansion. A gray graph has no other channel: asking it for r, g
    or b raises ValueError, as does a name not in ``CHANNEL_NAMES``.
    """
    position = CHANNEL_NAMES.index(check_channel(channel))
    edges = graph.edges
    values = edges["intensity"]
    if graph.n_channels == 1:
        if position:
            raise ValueError(f"channel {channel!r} needs a color map; this map is gray")
        intensity = values[:, 0]
    elif position == 0:
        w = LUMA_WEIGHTS
        intensity = w[0] * values[:, 0] + w[1] * values[:, 1] + w[2] * values[:, 2]
    else:
        intensity = values[:, position - 1]
    _, slot, counts = np.unique(edges["landmark"], return_inverse=True, return_counts=True)
    keep = counts[slot] >= xi_f
    return ObservationSet.from_columns(edges["frame"][keep], edges["landmark"][keep],
                                       edges["distance"][keep], expand(gmap, intensity[keep]))


def save_map(graph: LocalMapGraph, path) -> None:
    edges = graph.edges
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"localmap {len(graph.frames)} {len(graph.landmarks)} {len(edges)} "
                 f"{graph.n_channels}\n")
        for kind, nodes in (("frame", graph.frames), ("landmark", graph.landmarks)):
            for k in sorted(nodes):
                pos = nodes[k]
                tail = "" if pos is None else " " + " ".join(repr(float(x)) for x in pos)
                fh.write(f"{kind} {k}{tail}\n")
        for m, n, d, vals in zip(edges["frame"].tolist(), edges["landmark"].tolist(),
                                 edges["distance"].tolist(), edges["intensity"].tolist()):
            fh.write(f"edge {m} {n} {d!r} {' '.join(map(repr, vals))}\n")


def _numbers(tokens: list[str], convert, what: str, lineno: int) -> list:
    """``convert`` of each token. Python's ``_`` digit groups are refused, as
    ``np.loadtxt`` refuses them in edge records, so the file has one grammar."""
    try:
        for token in tokens:
            if "_" in token:
                raise ValueError(f"'_' in {token!r}")
        return [convert(token) for token in tokens]
    except ValueError as exc:
        raise MapFormatError(f"bad {what}: {exc}", lineno) from exc


def _parse_position(parts: list[str], lineno: int):
    if not parts:
        return None
    if len(parts) != 3:
        raise MapFormatError("positions take exactly 3 coordinates", lineno)
    position = tuple(_numbers(parts, float, "coordinate", lineno))
    if not all(np.isfinite(position)):
        raise MapFormatError("coordinates must be finite", lineno)
    return position


_ID_RANGE = np.iinfo(np.int64)


def _parse_id(token: str, kind: str, lineno: int) -> int:
    [value] = _numbers([token], int, f"{kind} id", lineno)
    if not _ID_RANGE.min <= value <= _ID_RANGE.max:
        raise MapFormatError(f"id {value} does not fit in 64 bits", lineno)
    return value


def _edge_syntax(n_channels: int) -> str:
    return (f"edge takes integer frame and landmark ids, a distance and {n_channels} "
            "intensities")


def _parse_edges(fields: list[str], linenos: list[int], n_channels: int) -> np.ndarray:
    """Edge table of the edge records' fields (all tokens after ``edge``), in
    one ``np.loadtxt`` call.

    Values are not checked here (see :meth:`LocalMapGraph.from_edges`). A
    wrong field count or a token that is not a number of its field's type
    raises :class:`MapFormatError` naming the first line that holds one.
    """
    dtype = _edge_dtype(n_channels)
    if not fields:
        return np.zeros(0, dtype)           # np.loadtxt warns on empty input

    def parse(chunk):
        return np.loadtxt(chunk, dtype=dtype, ndmin=1)

    try:
        return parse(fields)
    except ValueError:
        pass
    # Bisect for the first bad record. Records parse independently, so a
    # chunk fails exactly when it holds a bad one; fields[:lo] parse and
    # fields[lo:hi] hold a bad record.
    lo, hi = 0, len(fields)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(fields[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    raise MapFormatError(_edge_syntax(n_channels), linenos[lo])


def load_map(path) -> LocalMapGraph:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()

    header = None
    frames, landmarks = {}, {}
    edge_fields, edge_lines = [], []
    try:
        for lineno, raw in enumerate(lines, start=1):
            text = raw.split("#", 1)[0]
            record = text.split(None, 1)
            if not record:
                continue
            if record[0] == "edge" and len(record) == 2 and header is not None:
                edge_fields.append(record[1])
                edge_lines.append(lineno)
                continue
            kind, *parts = text.split()
            if header is None:
                if kind != "localmap" or len(parts) != 4:
                    raise MapFormatError("expected header: localmap F K E C", lineno)
                nf, nk, ne, nc = _numbers(parts, int, "header count", lineno)
                if nc not in (1, 3):
                    raise MapFormatError("channel count must be 1 or 3", lineno)
                header = (nf, nk, ne)
            elif kind == "edge":
                raise MapFormatError(_edge_syntax(nc), lineno)
            elif kind in ("frame", "landmark"):
                if not parts:
                    raise MapFormatError(f"{kind} takes an id", lineno)
                table = frames if kind == "frame" else landmarks
                key = _parse_id(parts[0], kind, lineno)
                position = _parse_position(parts[1:], lineno)
                if key in table:
                    raise MapFormatError(f"repeated {kind} {key}", lineno)
                table[key] = position
            else:
                raise MapFormatError(f"unknown record {kind!r}", lineno)
    except MapFormatError:
        if header is not None:
            # a bad record on an earlier edge line is reported first
            _parse_edges(edge_fields, edge_lines, nc)
        raise
    if header is None:
        raise MapFormatError("empty file: missing localmap header")
    edges = _parse_edges(edge_fields, edge_lines, nc)
    try:
        graph = LocalMapGraph.from_edges(edges["frame"], edges["landmark"], edges["distance"],
                                         edges["intensity"], nc, frames, landmarks)
    except EdgeError as exc:
        raise MapFormatError(str(exc), edge_lines[exc.row]) from exc
    counts = (len(graph.frames), len(graph.landmarks), len(graph.edges))
    if counts != header:
        raise MapFormatError(
            f"header promises frames/landmarks/edges {header}, file holds {counts}")
    return graph
