"""Local map graph, landmark selection, and the line-oriented map format."""

import pytest

from foglab.errors import MapFormatError
from foglab.localmap import (LocalMapGraph, ObservationSet, Observation,
                             SelectionThresholds, check_sufficiency,
                             generate_dr_pairs, load_map, save_map)
from foglab.photometry import ChannelGammaMaps, GammaMap


def small_graph():
    """4 frames; landmarks 2-4 seen from all of them, 1 from two, 5 from three."""
    g = LocalMapGraph()
    for m in range(4):
        for n in (2, 3, 4):
            g.add_edge(m, n, distance=10.0 + 5.0 * m + n, intensities=[100.0 + n])
    g.add_edge(0, 1, 8.0, [90.0])
    g.add_edge(1, 1, 9.0, [91.0])
    for m in (0, 2, 3):
        g.add_edge(m, 5, 30.0 + m, [120.0])
    return g


def test_landmark_selection_by_frame_count():
    g = small_graph()
    obs = generate_dr_pairs(g, GammaMap.identity())
    assert obs.landmark_ids == [2, 3, 4]          # only the fully tracked ones
    assert obs.n_observations == 12
    relaxed = generate_dr_pairs(g, GammaMap.identity(),
                                thresholds=SelectionThresholds(xi_f=2, xi_k=1))
    assert relaxed.landmark_ids == [1, 2, 3, 4, 5]


def test_selection_boundary_is_inclusive():
    g = small_graph()
    obs = generate_dr_pairs(g, GammaMap.identity(),
                            thresholds=SelectionThresholds(xi_f=3, xi_k=1))
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
    g = LocalMapGraph()
    g.add_edge(3, 7, 20.0, [50.0])
    g.add_edge(1, 7, 10.0, [60.0])
    g.add_edge(0, 7, 20.0, [55.0])
    g.add_edge(2, 7, 15.0, [58.0])
    from_graph = generate_dr_pairs(g, GammaMap.identity(),
                                   thresholds=SelectionThresholds(xi_f=4, xi_k=1))
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
    g = LocalMapGraph()
    for m in range(4):
        g.add_edge(m, 0, 10.0 + m, [100.0])
    gmap = GammaMap(alpha=0.01, gamma=2.0, zeta=0.5)
    obs = generate_dr_pairs(g, gmap, thresholds=SelectionThresholds(xi_f=4, xi_k=1))
    assert all(o.radiance == pytest.approx(100.5) for o in obs.groups[0])


def test_color_graph_channels_and_luma():
    g = LocalMapGraph(n_channels=3)
    for m in range(4):
        g.add_edge(m, 0, 10.0 + m, [100.0, 200.0, 50.0])
    maps = ChannelGammaMaps(gray=GammaMap.identity(), r=GammaMap.identity(),
                            g=GammaMap.identity(), b=GammaMap.identity())
    th = SelectionThresholds(xi_f=4, xi_k=1)
    assert generate_dr_pairs(g, maps, "r", th).groups[0][0].radiance == 100.0
    assert generate_dr_pairs(g, maps, "g", th).groups[0][0].radiance == 200.0
    assert generate_dr_pairs(g, maps, "b", th).groups[0][0].radiance == 50.0
    luma = generate_dr_pairs(g, maps, "gray", th).groups[0][0].radiance
    assert luma == pytest.approx(0.299 * 100.0 + 0.587 * 200.0 + 0.114 * 50.0)


def test_check_sufficiency_threshold():
    def obs_with(k):
        return ObservationSet({n: (Observation(0, 1.0, 1.0),) for n in range(k)})
    th = SelectionThresholds(xi_f=4, xi_k=15)
    assert check_sufficiency(obs_with(15), th)
    assert not check_sufficiency(obs_with(14), th)
    assert not check_sufficiency(ObservationSet({}), th)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        SelectionThresholds(xi_f=1)
    with pytest.raises(ValueError):
        SelectionThresholds(xi_k=0)


def test_add_edge_validation():
    g = LocalMapGraph()
    g.add_edge(0, 0, 5.0, [1.0])
    with pytest.raises(ValueError, match="duplicate"):
        g.add_edge(0, 0, 6.0, [2.0])
    with pytest.raises(ValueError, match="distance"):
        g.add_edge(0, 1, 0.0, [1.0])
    with pytest.raises(ValueError, match="distance"):
        g.add_edge(0, 1, float("nan"), [1.0])
    with pytest.raises(ValueError, match="intensities"):
        g.add_edge(0, 1, 5.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        g.add_edge(0, 1, 5.0, [256.0])
    with pytest.raises(ValueError):
        g.add_edge(0, 1, 5.0, [-1.0])


def test_add_edge_registers_endpoints():
    g = LocalMapGraph()
    g.add_edge(7, 9, 5.0, [1.0])
    assert 7 in g.frames and 9 in g.landmarks
    assert g.landmark_degree(9) == 1


def test_channel_count_validation():
    with pytest.raises(ValueError):
        LocalMapGraph(n_channels=2)


def test_frame_subset():
    g = small_graph()
    sub = g.frame_subset([0, 1])
    assert sorted(sub.frames) == [0, 1]
    assert all(m in (0, 1) for (m, _) in sub.edges)
    assert sub.landmarks == g.landmarks
    # prefix too short for xi_f=4: nothing qualifies
    assert generate_dr_pairs(sub, GammaMap.identity()).groups == {}
    # original graph untouched
    assert len(g.edges) == 17


def test_empty_graph_yields_no_observations():
    obs = generate_dr_pairs(LocalMapGraph(), GammaMap.identity())
    assert obs.groups == {} and obs.n_observations == 0
    assert not check_sufficiency(obs)


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
    assert loaded.edges == g.edges


def test_save_load_round_trip_color(tmp_path):
    g = LocalMapGraph(n_channels=3)
    for m in range(4):
        g.add_edge(m, 0, 12.0 + m, [10.0, 20.0, 30.0])
    path = tmp_path / "map.txt"
    save_map(g, path)
    assert load_map(path).edges == g.edges


def test_load_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("# a map\n\nlocalmap 1 1 1 1\nframe 0\nlandmark 3 # inline\n"
                    "edge 0 3 5.0 100.0\n")
    g = load_map(path)
    assert g.edges[(0, 3)].distance == 5.0


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("localmap 1 1 1 1\nframe 0\nlandmark 3\nedge 0 3 -5.0 100.0\n")
    with pytest.raises(MapFormatError, match="line 4"):
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
