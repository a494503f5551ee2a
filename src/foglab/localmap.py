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

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import MapFormatError, parse_number, read_ascii
from .photometry import CHANNEL_NAMES, GammaMap, check_channel, expand
from .scattering import luma

DEFAULT_XI_F = 4                    # min frames per landmark; EstimatorConfig's default
_ID_MIN, _ID_MAX = -2 ** 63, 2 ** 63 - 1         # np.int64's range


class Observation(NamedTuple):
    frame: int
    distance: float
    radiance: float


def _edge_dtype(n_channels: int) -> np.dtype:
    return np.dtype([("frame", np.int64), ("landmark", np.int64), ("distance", float),
                     ("intensity", float, (n_channels,))])


def sort_pairs(frame: np.ndarray, landmark: np.ndarray):
    """Stable sort of rows by (frame, landmark): the order (``slice(None)``
    if they are in order already) and masks over the sorted rows of those
    that repeat the previous row's frame, and its (frame, landmark) pair."""
    # in order: frames never fall, and where a frame repeats its landmark
    # does not fall. Rows in landmark order, such as an ObservationSet's,
    # already fail the cheaper frame test.
    order = slice(None)
    if not (np.logical_and.reduce(frame[:-1] <= frame[1:])
            and np.logical_and.reduce((frame[:-1] < frame[1:])
                                      | (landmark[:-1] <= landmark[1:]))):
        order = np.lexsort((landmark, frame))
    frame, landmark = frame[order], landmark[order]
    same_frame = np.zeros(frame.size, dtype=bool)
    same_frame[1:] = frame[1:] == frame[:-1]
    same_pair = same_frame.copy()
    same_pair[1:] &= landmark[1:] == landmark[:-1]
    return order, same_frame, same_pair


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
        return cls._from_table(table, frames, landmarks)

    @classmethod
    def _from_table(cls, table: np.ndarray, frames=None, landmarks=None) -> "LocalMapGraph":
        """:meth:`from_edges` of an edge table of ``_edge_dtype``, which the
        graph takes over; rows are sorted only when out of order."""
        order, same_frame, repeat = sort_pairs(table["frame"], table["landmark"])
        table = table[order]
        frame, landmark = table["frame"], table["landmark"]
        distance, intensity = table["distance"], table["intensity"]
        problems = (
            (repeat, "duplicate of an earlier edge"),
            (~(np.isfinite(distance) & (distance > 0)), "distance must be positive and finite"),
            (~np.all((intensity >= 0) & (intensity <= 255), axis=1),
             "intensities must lie in [0, 255]"))
        bad = np.logical_or.reduce([mask for mask, _ in problems])
        if bad.any():
            given = np.arange(frame.size)[order]
            k = np.flatnonzero(bad)[np.argmin(given[bad])]
            message = next(message for mask, message in problems if mask[k])
            raise EdgeError(f"edge at frame {frame[k]}, landmark {landmark[k]}: {message}",
                            int(given[k]))
        return cls(table.dtype["intensity"].shape[0],
                   {**dict.fromkeys(frame[~same_frame].tolist()), **(frames or {})},
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
        # NaN fails every test; the size guards keep empty columns valid
        if distance.size and not (np.minimum.reduce(distance) > 0
                                  and np.maximum.reduce(distance) < np.inf):
            raise ValueError("observation distances must be positive and finite")
        if radiance.size and not (np.minimum.reduce(radiance) > -np.inf
                                  and np.maximum.reduce(radiance) < np.inf):
            raise ValueError("observation radiances must be finite")
        order = np.lexsort((frame, distance, landmark))
        self.frame, self.landmark = frame[order], landmark[order]
        self.distance, self.radiance = distance[order], radiance[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = self.landmark[1:] != self.landmark[:-1]
        self.slot = first.cumsum() - 1
        self.near = np.flatnonzero(first)
        # a block ends where the next one starts, the last at the last row
        self.far = np.empty_like(self.near)
        self.far[:-1] = self.near[1:] - 1
        self.far[-1:] = order.size - 1
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
                      xi_f: int = DEFAULT_XI_F) -> ObservationSet:
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
        intensity = luma(values)
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
    """:func:`parse_number` of each token."""
    try:
        return [parse_number(token, convert) for token in tokens]
    except ValueError as exc:
        raise MapFormatError(f"bad {what}: {exc}", lineno) from exc


def _parse_node(kind: str, parts: list[str], lineno: int) -> tuple:
    """(id, position or None) of a ``frame`` or ``landmark`` record's fields
    (the tokens after ``kind``)."""
    if not parts:
        raise MapFormatError(f"{kind} takes an id", lineno)
    [key] = _numbers(parts[:1], int, f"{kind} id", lineno)
    if not _ID_MIN <= key <= _ID_MAX:
        raise MapFormatError(f"id {key} does not fit in 64 bits", lineno)
    if len(parts) == 1:
        return key, None
    if len(parts) != 4:
        raise MapFormatError("positions take exactly 3 coordinates", lineno)
    position = tuple(_numbers(parts[1:], float, "coordinate", lineno))
    if not all(map(math.isfinite, position)):
        raise MapFormatError("coordinates must be finite", lineno)
    return key, position


def _parse_edge(parts: list[str], n_channels: int, lineno: int) -> tuple:
    """Row of ``_edge_dtype(n_channels)`` of an edge record's fields (the
    tokens after ``edge``). Values are not checked here (see
    :meth:`LocalMapGraph.from_edges`)."""
    try:
        if len(parts) != 3 + n_channels:
            raise ValueError(f"{len(parts)} fields")
        frame, landmark = (parse_number(token, int) for token in parts[:2])
        if not (_ID_MIN <= frame <= _ID_MAX and _ID_MIN <= landmark <= _ID_MAX):
            raise ValueError("id beyond 64 bits")
        distance, *intensity = (parse_number(token) for token in parts[2:])
    except ValueError as exc:
        raise MapFormatError(f"edge takes integer frame and landmark ids, a distance and "
                             f"{n_channels} intensities", lineno) from exc
    return frame, landmark, distance, intensity


def _bulk_graph(lines: list[str], n_channels: int, frames, landmarks):
    """Graph of the edge records in ``lines``, parsed in one ``np.loadtxt``
    call, or None unless every record there is a well-formed, valid edge."""
    edge_dtype = _edge_dtype(n_channels)
    # U5, not U4, so that "edges" is not truncated to "edge"
    dtype = np.dtype([("kind", "U5"), *((name, edge_dtype.fields[name][0])
                                        for name in edge_dtype.names)])
    try:
        rows = np.loadtxt(lines, dtype=dtype, ndmin=1)
    except ValueError:
        return None
    if not np.all(rows["kind"] == "edge"):
        return None
    try:
        return LocalMapGraph._from_table(rows[list(edge_dtype.names)].astype(edge_dtype),
                                         frames, landmarks)
    except EdgeError:
        return None


def load_map(path) -> LocalMapGraph:
    """Read a ``.map`` file (docs/file_formats.md).

    One loop reads the records in order and raises :class:`MapFormatError`
    with the line of the first bad one; edge values are checked after it,
    over the whole table. At the first ``edge`` record the rest of the file
    is first tried in one ``np.loadtxt`` call, which gives the graph when it
    holds only valid edge records, as every file :func:`save_map` writes does.
    """
    source = read_ascii(path)
    lines = source.split("\n")

    header = None
    frames, landmarks = {}, {}
    rows, row_lines = [], []
    graph = None
    for lineno, raw in enumerate(lines, start=1):
        record = raw.split("#", 1)[0].split()
        if not record:
            continue
        kind, *parts = record
        if header is None:
            if kind != "localmap" or len(parts) != 4:
                raise MapFormatError("expected header: localmap F K E C", lineno)
            nf, nk, ne, nc = _numbers(parts, int, "header count", lineno)
            if nc not in (1, 3):
                raise MapFormatError("channel count must be 1 or 3", lineno)
            header = (nf, nk, ne)
        elif kind == "edge":
            # numpy's fixed-width strings drop a NUL that ends a keyword
            if not rows and "\0" not in source:
                graph = _bulk_graph(lines[lineno - 1:], nc, frames, landmarks)
                if graph is not None:
                    break
            rows.append(_parse_edge(parts, nc, lineno))
            row_lines.append(lineno)
        elif kind in ("frame", "landmark"):
            table = frames if kind == "frame" else landmarks
            key, position = _parse_node(kind, parts, lineno)
            if key in table:
                raise MapFormatError(f"repeated {kind} {key}", lineno)
            table[key] = position
        else:
            raise MapFormatError(f"unknown record {kind!r}", lineno)
    if header is None:
        raise MapFormatError("empty file: missing localmap header")
    if graph is None:
        try:
            graph = LocalMapGraph._from_table(np.array(rows, _edge_dtype(nc)),
                                              frames, landmarks)
        except EdgeError as exc:
            raise MapFormatError(str(exc), row_lines[exc.row]) from exc
    counts = (len(graph.frames), len(graph.landmarks), len(graph.edges))
    if counts != header:
        raise MapFormatError(
            f"header promises frames/landmarks/edges {header}, file holds {counts}")
    return graph
