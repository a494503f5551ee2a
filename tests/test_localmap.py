"""Local map graph, landmark selection, and the line-oriented map format."""

import numpy as np
import pytest

from foglab.errors import MapFormatError, NotEnoughDataError
from foglab.estimator import EstimatorConfig, EstimatorState, estimate
from foglab.localmap import (EdgeError, LocalMapGraph, ObservationSet, Observation,
                             generate_dr_pairs, load_map, save_map)
from foglab.photometry import CHANNEL_NAMES, GammaMap
from foglab.scattering import transmission


def graph_of(edges, n_channels=1):
    """Graph from (frame, landmark, distance, intensities) rows."""
    frame, landmark, distance, intensity = zip(*edges)
    return LocalMapGraph.from_edges(frame, landmark, distance, intensity, n_channels)


def small_graph():
    """4 frames; landmarks 2-4 seen from all of them, 1 from two, 5 from three."""
    return graph_of(
        [(m, n, 10.0 + 5.0 * m + n, [100.0 + n]) for m in range(4) for n in (2, 3, 4)]
        + [(0, 1, 8.0, [90.0]), (1, 1, 9.0, [91.0])]
        + [(m, 5, 30.0 + m, [120.0]) for m in (0, 2, 3)])


def test_landmark_selection_by_frame_count():
    g = small_graph()
    obs = generate_dr_pairs(g, GammaMap.identity())
    assert obs.landmark_ids == [2, 3, 4]          # only the fully tracked ones
    assert obs.n_observations == 12
    relaxed = generate_dr_pairs(g, GammaMap.identity(), xi_f=2)
    assert relaxed.landmark_ids == [1, 2, 3, 4, 5]


def test_selection_boundary_is_inclusive():
    g = small_graph()
    obs = generate_dr_pairs(g, GammaMap.identity(), xi_f=3)
    assert 5 in obs.groups          # exactly 3 sightings, xi_f=3 keeps it
    assert 1 not in obs.groups      # 2 sightings < 3


def test_identity_map_keeps_intensities():
    obs = generate_dr_pairs(small_graph(), GammaMap.identity())
    assert all(o.radiance == 100.0 + n for n in obs.groups for o in obs.groups[n])


UNSORTED_GROUPS = {
    7: (Observation(3, 20.0, 50.0), Observation(1, 10.0, 60.0),
        Observation(0, 20.0, 55.0), Observation(2, 15.0, 58.0)),
    2: (Observation(0, 30.0, 9.0), Observation(1, 12.0, 8.0)),
}


def test_observations_sorted_by_distance_then_frame():
    g = graph_of([(3, 7, 20.0, [50.0]), (1, 7, 10.0, [60.0]),
                  (0, 7, 20.0, [55.0]), (2, 7, 15.0, [58.0])])
    from_graph = generate_dr_pairs(g, GammaMap.identity(), xi_f=4)
    for obs in (from_graph, ObservationSet(UNSORTED_GROUPS)):
        seq = obs.groups[7]
        assert [(o.distance, o.frame) for o in seq] == [(10.0, 1), (15.0, 2),
                                                        (20.0, 0), (20.0, 3)]
        rows = list(zip(obs.landmark.tolist(), obs.distance.tolist(),
                        obs.frame.tolist()))
        assert rows == sorted(rows)
        ids = obs.landmark_ids
        assert obs.slot.tolist() == [ids.index(n) for n, _, _ in rows]
        assert {n: set(obs.groups[n]) for n in ids} == \
            {n: set(UNSORTED_GROUPS[n]) for n in ids}
    assert ObservationSet(UNSORTED_GROUPS).landmark_ids == [2, 7]


@pytest.mark.parametrize("distance, radiance", [
    (10.0, float("nan")), (10.0, float("inf")), (0.0, 100.0),
    (float("inf"), 100.0), (-5.0, 100.0)])
def test_observations_are_validated_when_built(distance, radiance):
    with pytest.raises(ValueError, match="distances|radiances"):
        ObservationSet({0: (Observation(0, 10.0, 100.0),
                            Observation(1, distance, radiance))})
    with pytest.raises(ValueError, match="distances|radiances"):
        ObservationSet.from_columns([0], [0], [distance], [radiance])


def test_gamma_map_applied_to_intensities():
    g = graph_of([(m, 0, 10.0 + m, [100.0]) for m in range(4)])
    gmap = GammaMap(alpha=0.01, gamma=2.0, zeta=0.5)
    obs = generate_dr_pairs(g, gmap, xi_f=4)
    assert all(o.radiance == pytest.approx(100.5) for o in obs.groups[0])


def test_color_graph_channels_and_luma():
    g = graph_of([(m, 0, 10.0 + m, [100.0, 200.0, 50.0]) for m in range(4)], 3)
    ident = GammaMap.identity()
    assert generate_dr_pairs(g, ident, "r", 4).groups[0][0].radiance == 100.0
    assert generate_dr_pairs(g, ident, "g", 4).groups[0][0].radiance == 200.0
    assert generate_dr_pairs(g, ident, "b", 4).groups[0][0].radiance == 50.0
    luma = generate_dr_pairs(g, ident, "gray", 4).groups[0][0].radiance
    assert luma == pytest.approx(0.299 * 100.0 + 0.587 * 200.0 + 0.114 * 50.0)


def test_gray_graph_has_no_color_channels():
    g = graph_of([(m, 0, 10.0 + m, [100.0]) for m in range(4)])
    for channel in ("r", "g", "b"):
        with pytest.raises(ValueError, match="needs a color map; this map is gray"):
            generate_dr_pairs(g, GammaMap.identity(), channel)
    color = graph_of([(m, 0, 10.0 + m, [100.0, 200.0, 50.0]) for m in range(4)], 3)
    for graph in (g, color):
        for channel in ("red", "R", ""):
            with pytest.raises(ValueError) as info:
                generate_dr_pairs(graph, GammaMap.identity(), channel)
            assert str(info.value) == \
                f"unknown channel {channel!r}; expected one of {CHANNEL_NAMES}"


def fog_graph(n_landmarks, beta=0.05, l_inf=200.0):
    """Noiseless fog over 4 frames; every landmark is seen from all of them."""
    lcs = np.linspace(20.0, 150.0, n_landmarks)
    rows = []
    for n, lc in enumerate(lcs):
        for m, d in enumerate((8.0 + n, 25.0 + n, 45.0 + n, 70.0 + n)):
            t = float(transmission(beta, d))
            rows.append((m, n, d, [lc * t + l_inf * (1.0 - t)]))
    return graph_of(rows)


def test_check_sufficiency_threshold():
    # estimate owns xi_k: 15 qualifying landmarks are enough, 14 are not
    ident = GammaMap.identity()
    fifteen = generate_dr_pairs(fog_graph(15), ident)
    assert len(estimate(fifteen, ident, EstimatorState()).estimate.lc) == 15
    fourteen = generate_dr_pairs(fog_graph(14), ident)
    with pytest.raises(NotEnoughDataError, match="14 qualifying landmarks, xi_k=15"):
        estimate(fourteen, ident, EstimatorState())
    assert len(estimate(fourteen, ident, EstimatorState(),
                        EstimatorConfig(xi_k=14)).estimate.lc) == 14
    with pytest.raises(NotEnoughDataError, match="0 qualifying landmarks"):
        estimate(ObservationSet({}), ident, EstimatorState())


def test_thresholds_validation():
    with pytest.raises(ValueError, match="xi_f must be at least 2"):
        EstimatorConfig(xi_f=1)
    with pytest.raises(ValueError, match="xi_k must be at least 1"):
        EstimatorConfig(xi_k=0)
    EstimatorConfig(xi_f=2, xi_k=1)


def test_edge_table_validation():
    good = [(2, 0, 4.0, [3.0]), (0, 0, 5.0, [1.0])]
    for edge, match in [((0, 0, 6.0, [2.0]), "duplicate"),
                        ((0, 1, 0.0, [1.0]), "distance"),
                        ((0, 1, float("nan"), [1.0]), "distance"),
                        ((0, 1, 5.0, [256.0]), "intensities"),
                        ((0, 1, 5.0, [-1.0]), "intensities")]:
        with pytest.raises(EdgeError, match=match) as info:
            graph_of(good + [edge, (3, 3, -1.0, [1.0])])
        assert info.value.row == 2      # the first bad row, in the order given
    with pytest.raises(ValueError, match="intensities"):
        graph_of([(0, 1, 5.0, [1.0, 2.0])])


def test_edge_table_registers_endpoints_and_sorts_rows():
    g = LocalMapGraph.from_edges([7, 2, 7], [9, 9, 4], [5.0, 6.0, 7.0],
                                 [[1.0], [2.0], [3.0]], frames={7: (1.0, 2.0, 3.0)})
    assert g.frames == {2: None, 7: (1.0, 2.0, 3.0)}
    assert g.landmarks == {4: None, 9: None}
    assert g.edges["frame"].tolist() == [2, 7, 7]
    assert g.edges["landmark"].tolist() == [9, 4, 9]
    assert g.edges["intensity"].tolist() == [[2.0], [3.0], [1.0]]


def test_channel_count_validation():
    with pytest.raises(ValueError):
        LocalMapGraph(n_channels=2)


def test_frame_subset():
    g = small_graph()
    sub = g.frame_subset([0, 1])
    assert sorted(sub.frames) == [0, 1]
    assert set(sub.edges["frame"].tolist()) == {0, 1}
    assert sub.landmarks == g.landmarks
    # prefix too short for xi_f=4: nothing qualifies
    assert generate_dr_pairs(sub, GammaMap.identity()).groups == {}
    # original graph untouched
    assert len(g.edges) == 17


def test_empty_graph_yields_no_observations():
    obs = generate_dr_pairs(LocalMapGraph(), GammaMap.identity())
    assert obs.groups == {} and obs.n_observations == 0
    with pytest.raises(NotEnoughDataError, match="0 qualifying landmarks"):
        estimate(obs, GammaMap.identity(), EstimatorState())


def test_save_load_round_trip(tmp_path):
    g = small_graph()
    g.frames[0] = (1.0, 2.5, -3.0)
    g.landmarks[2] = (0.125, 0.0, 9.75)
    path = tmp_path / "map.txt"
    save_map(g, path)
    loaded = load_map(path)
    assert loaded.n_channels == g.n_channels
    assert loaded.frames == g.frames
    assert loaded.landmarks == g.landmarks
    assert np.array_equal(loaded.edges, g.edges)


def test_save_load_round_trip_color(tmp_path):
    g = graph_of([(m, 0, 12.0 + m, [10.0, 20.0, 30.0]) for m in range(4)], 3)
    path = tmp_path / "map.txt"
    save_map(g, path)
    assert np.array_equal(load_map(path).edges, g.edges)


EXAMPLE_MAP = """\
localmap 2 2 4 1
frame 0 0.0 0.0 0.0
frame 1 4.0 0.0 0.0
landmark 7
landmark 9
edge 0 7 52.0 141.0
edge 0 9 38.5 97.0
edge 1 7 48.0 138.0
edge 1 9 34.5 92.0
"""


def test_save_map_writes_the_documented_example(tmp_path):
    # rows given out of order; the file lists them by (frame, landmark)
    g = LocalMapGraph.from_edges([1, 0, 1, 0], [9, 9, 7, 7], [34.5, 38.5, 48.0, 52.0],
                                 [[92.0], [97.0], [138.0], [141.0]],
                                 frames={1: (4.0, 0.0, 0.0), 0: (0.0, 0.0, 0.0)})
    path = tmp_path / "map.txt"
    save_map(g, path)
    assert path.read_text() == EXAMPLE_MAP


def test_load_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("# a map\n\nlocalmap 1 1 1 1\nframe 0\nlandmark 3 # inline\n"
                    "edge 0 3 5.0 100.0\n")
    g = load_map(path)
    assert g.edges["distance"].tolist() == [5.0]


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "map.txt"
    too_big = "99999999999999999999999"     # beyond int64
    for bad_line in ("edge 0 3 -5.0 100.0", "edge 0 3 5.0 256", "edge 0 3 5.0 nan",
                     "edge 0 3 5.0 1 2", f"edge 0 {too_big} 10.0 100",
                     f"edge -{too_big} 3 10.0 100", f"frame {too_big}",
                     f"landmark -{too_big}", "frame 0 4 5 6", "landmark 3"):
        path.write_text("localmap 2 2 3 1\nframe 0\nlandmark 3\nedge 1 2 9.0 7.0\n"
                        f"# a comment\n{bad_line}\nedge 1 3 4.0 300\n")
        with pytest.raises(MapFormatError, match="^line 6: "):
            load_map(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("notamap 1 1 1 1\n")
    with pytest.raises(MapFormatError, match="line 1"):
        load_map(path)
    path.write_text("localmap 1 1 1 2\n")
    with pytest.raises(MapFormatError, match="channel count"):
        load_map(path)


def test_load_rejects_count_mismatch(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("localmap 2 1 1 1\nframe 0\nlandmark 3\nedge 0 3 5.0 100.0\n")
    with pytest.raises(MapFormatError, match="promises"):
        load_map(path)


def test_load_rejects_duplicate_edge(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("localmap 1 1 2 1\nframe 0\nlandmark 3\n"
                    "edge 0 3 5.0 100.0\nedge 0 3 6.0 90.0\n")
    with pytest.raises(MapFormatError, match="line 5"):
        load_map(path)


def test_load_rejects_unknown_record(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("localmap 0 0 0 1\nvertex 0\n")
    with pytest.raises(MapFormatError, match="unknown record"):
        load_map(path)


def test_load_rejects_record_without_id(tmp_path):
    path = tmp_path / "map.txt"
    for kind in ("frame", "landmark"):
        path.write_text(f"localmap 1 1 0 1\nframe 0\nlandmark 3\n{kind}\n")
        with pytest.raises(MapFormatError, match=f"line 4: {kind} takes an id"):
            load_map(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(MapFormatError, match="empty"):
        load_map(path)


def test_load_rejects_bad_position(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("localmap 1 0 0 1\nframe 0 1.0 2.0\n")
    with pytest.raises(MapFormatError, match="line 2"):
        load_map(path)
