"""Fleet topology and diversity scoring."""

from __future__ import annotations

import pytest

from repro.chaos.topology import FleetTopology, diversity_score


@pytest.fixture
def topo() -> FleetTopology:
    return FleetTopology(zones=2, racks_per_zone=3, machines_per_rack=2)


class TestFleetTopology:
    def test_shape(self, topo):
        assert topo.racks == 6
        assert topo.m == 12

    def test_depth_first_contiguous_ids(self, topo):
        assert topo.rack_members(0) == (0, 1)
        assert topo.rack_members(5) == (10, 11)
        assert [topo.zone_of(i) for i in range(topo.m)] == [0] * 6 + [1] * 6

    def test_tree_lookups(self, topo):
        assert topo.rack_of(0) == 0
        assert topo.rack_of(11) == 5
        assert topo.zone_of(5) == 0
        assert topo.zone_of(6) == 1

    def test_spans(self, topo):
        assert topo.racks_spanned([0, 1]) == 1
        assert topo.racks_spanned([0, 2, 4]) == 3
        assert topo.zones_spanned([0, 11]) == 2

    @pytest.mark.parametrize("kwargs", [
        {"zones": 0},
        {"racks_per_zone": 0},
        {"machines_per_rack": -1},
    ])
    def test_rejects_degenerate_shapes(self, kwargs):
        with pytest.raises(ValueError):
            FleetTopology(**kwargs)

    def test_machine_bounds_checked(self, topo):
        with pytest.raises(ValueError):
            topo.rack_of(12)
        with pytest.raises(ValueError):
            topo.rack_members(6)

    def test_as_dict_round_trips_shape(self, topo):
        d = topo.as_dict()
        assert d["machines"] == topo.m
        assert d["racks"] == topo.racks


class TestDiversityScore:
    def test_rack_confined_group_scores_zero(self, topo):
        # Both replicas share rack 0: zero spread.
        assert diversity_score(topo, [(0, 1)]) == 0.0

    def test_fully_spread_group_scores_one(self, topo):
        assert diversity_score(topo, [(0, 2, 4)]) == 1.0

    def test_singletons_score_zero(self, topo):
        # A single replica has nothing to spread.
        assert diversity_score(topo, [(0,), (5,)]) == 0.0

    def test_contiguous_service_groups(self):
        # The service's ls_group[k=2] on 1x4x2: each 4-machine group
        # spans 2 of its possible 4 racks -> (2-1)/(4-1).
        topo = FleetTopology(zones=1, racks_per_zone=4, machines_per_rack=2)
        groups = [(0, 1, 2, 3), (4, 5, 6, 7)]
        assert diversity_score(topo, groups) == pytest.approx(1 / 3)

    def test_zone_level(self, topo):
        assert diversity_score(topo, [(0, 6)], level="zone") == 1.0
        assert diversity_score(topo, [(0, 1)], level="zone") == 0.0

    def test_rejects_bad_level_and_empty(self, topo):
        with pytest.raises(ValueError):
            diversity_score(topo, [(0, 1)], level="datacenter")
        with pytest.raises(ValueError):
            diversity_score(topo, [])
        with pytest.raises(ValueError):
            diversity_score(topo, [()])
