"""Chaos soak harness: schedules, capacity bound, determinism, survival.

The acceptance properties this file pins:

* same config => byte-identical availability-curve CSV and the same
  decision digest (the soak determinism contract);
* one full rack down => the service keeps admitting and placing onto
  surviving replicas, availability stays at/above the replication-implied
  lower bound, and nothing is shed (degraded-mode survival).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import repro.chaos.soak as soak_module
from repro.chaos.policy import HealthState, HealthTracker
from repro.chaos.soak import (
    ChaosAction,
    ChaosSchedule,
    SoakConfig,
    capacity_bound,
    run_soak,
    run_soak_live,
)
from repro.chaos.topology import FleetTopology
from repro.cli import main
from repro.service.protocol import AdmissionError, TaskState
from repro.service.scheduler import ServiceScheduler


@pytest.fixture
def topo() -> FleetTopology:
    return FleetTopology(zones=1, racks_per_zone=4, machines_per_rack=2)


class TestChaosAction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosAction(-1.0, (0,))
        with pytest.raises(ValueError):
            ChaosAction(0.0, ())
        with pytest.raises(ValueError):
            ChaosAction(0.0, (0,), downtime=0.0)
        with pytest.raises(ValueError, match="downtime"):
            ChaosAction(0.0, (0,), downtime=math.nan)
        for at in (math.inf, math.nan):
            with pytest.raises(ValueError, match="action time must be finite"):
                ChaosAction(at, (0,))

    def test_as_dict_maps_permanent_to_none(self):
        assert ChaosAction(1.0, (0,)).as_dict()["downtime"] is None
        assert ChaosAction(1.0, (0,), downtime=2.0).as_dict()["downtime"] == 2.0


class TestChaosSchedule:
    def test_actions_kept_sorted(self):
        schedule = ChaosSchedule(
            (ChaosAction(5.0, (1,)), ChaosAction(2.0, (0,)))
        )
        assert [a.at for a in schedule.actions] == [2.0, 5.0]

    def test_merge(self, topo):
        merged = ChaosSchedule.rack(topo, 0, at=4.0).merge(
            ChaosSchedule.rack(topo, 1, at=1.0)
        )
        assert [a.label for a in merged.actions] == ["rack-1", "rack-0"]

    def test_rack_constructor(self, topo):
        rack = ChaosSchedule.rack(topo, 2, at=3.0, downtime=5.0)
        assert rack.actions[0].machines == topo.rack_members(2)
        assert rack.actions[0].label == "rack-2"
        assert math.isinf(ChaosSchedule.rack(topo, 0).actions[0].downtime)

    def test_parse_grammar(self, topo):
        assert ChaosSchedule.parse("none", topo).actions == ()
        rack = ChaosSchedule.parse("rack:at=8,downtime=10,rack=2", topo)
        assert rack.actions[0].at == 8.0
        assert rack.actions[0].machines == topo.rack_members(2)
        assert rack.actions[0].downtime == 10.0
        permanent = ChaosSchedule.parse("rack:at=1", topo)
        assert permanent.actions[0].machines == topo.rack_members(0)
        assert math.isinf(permanent.actions[0].downtime)

    @pytest.mark.parametrize("spec", [
        "meteor:at=1",           # unknown kind
        "rack:lag=2",            # unknown key for kind
        "rack:at",               # malformed, no '='
        "rack:at=soon",          # non-numeric value
        "rack:rack=4",           # no such rack in a 4-rack fleet
        "zone:at=1",             # a rack is the one blast radius
    ])
    def test_parse_rejects(self, spec, topo):
        with pytest.raises(ValueError):
            ChaosSchedule.parse(spec, topo)

    @pytest.mark.parametrize("spec, message", [
        ("rack:at=inf", "action time must be finite"),
        ("rack:at=nan", "action time must be finite"),
        ("rack:at=-1", "action time must be >= 0"),
        ("rack:downtime=nan", "downtime must be > 0"),
        ("rack:rack=1.9", "'rack' must be an integer"),
        ("rack:rack=inf", "'rack' must be an integer"),
    ])
    def test_parse_rejects_non_finite_and_fractional(self, spec, message, topo):
        with pytest.raises(ValueError, match=message):
            ChaosSchedule.parse(spec, topo)


class TestCapacityBound:
    def test_no_outages_is_perfect_parallelism(self):
        assert capacity_bound(2, ChaosSchedule(), 4.0) == pytest.approx(2.0)

    def test_one_machine_down_slows_the_front(self):
        # m=2, machine 1 down on [0, 2): rate 1 until t=2 (2 units done),
        # then rate 2 for the remaining 2 units -> T* = 3.0.
        schedule = ChaosSchedule((ChaosAction(0.0, (1,), downtime=2.0),))
        assert capacity_bound(2, schedule, 4.0) == pytest.approx(3.0)

    def test_permanent_fleet_death_is_inf(self):
        schedule = ChaosSchedule((ChaosAction(1.0, (0,)),))
        assert capacity_bound(1, schedule, 5.0) == math.inf

    def test_overlapping_outages_union(self):
        # Two overlapping windows on the same machine merge to [0, 3).
        schedule = ChaosSchedule(
            (
                ChaosAction(0.0, (0,), downtime=2.0),
                ChaosAction(1.0, (0,), downtime=2.0),
            )
        )
        assert capacity_bound(1, schedule, 1.0) == pytest.approx(4.0)

    def test_zero_work(self):
        assert capacity_bound(4, ChaosSchedule(), 0.0) == 0.0

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            capacity_bound(0, ChaosSchedule(), 1.0)


class TestSoakConfigValidation:
    def test_rejects_out_of_fleet_action(self, topo):
        schedule = ChaosSchedule((ChaosAction(1.0, (99,)),))
        with pytest.raises(ValueError):
            SoakConfig(topology=topo, schedule=schedule)

    def test_rejects_bad_model_and_rates(self, topo):
        with pytest.raises(ValueError):
            SoakConfig(topology=topo, model="psychic")
        with pytest.raises(ValueError):
            SoakConfig(topology=topo, rate=0.0)
        with pytest.raises(ValueError):
            SoakConfig(topology=topo, sample_every=0.0)

    @pytest.mark.parametrize("field", ["duration", "rate", "est_low", "est_high", "sample_every"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, topo, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SoakConfig(topology=topo, **{field: value})

    @pytest.mark.parametrize("pace", [0.0, -1.0, math.inf, math.nan])
    def test_live_pace_is_checked_before_the_daemon_starts(self, topo, pace, monkeypatch):
        def started(*args):
            raise AssertionError("the live soak started")

        monkeypatch.setattr(soak_module, "_soak_live", started)
        with pytest.raises(ValueError, match="pace"):
            run_soak_live(SoakConfig(topology=topo), pace=pace)


class TestSoakCliValidation:
    @pytest.fixture(autouse=True)
    def _no_soak_runs(self, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("a soak started")

        monkeypatch.setattr(soak_module, "run_soak", started)
        monkeypatch.setattr(soak_module, "run_soak_live", started)

    @pytest.mark.parametrize("argv", ids=" ".join, argvalues=[
        ["--chaos", "rack:at=inf"],
        ["--chaos", "rack:at=nan"],
        ["--chaos", "rack:rack=1.9"],
        ["--chaos", "zone:at=1"],
        ["--duration", "inf"],
        ["--rate", "inf"],
        ["--sample-every", "nan"],
        ["--live", "--pace", "nan"],
    ])
    def test_exits_2_with_a_message(self, argv, capsys):
        assert main(["soak", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro soak: ")
        assert "Traceback" not in err


def _whole_fleet(topo: FleetTopology, *, at: float) -> ChaosSchedule:
    """Every machine down for good at ``at``: a total outage."""
    return ChaosSchedule((ChaosAction(at, tuple(range(topo.m)), label="fleet"),))


def _small_config(topo: FleetTopology, **overrides) -> SoakConfig:
    defaults = dict(
        topology=topo,
        seed=7,
        duration=8.0,
        rate=3.0,
        sample_every=1.0,
        schedule=ChaosSchedule.rack(topo, 1, at=3.0, downtime=4.0),
    )
    defaults.update(overrides)
    return SoakConfig(**defaults)


class TestRunSoakDeterminism:
    def test_same_config_same_digest_and_samples(self, topo):
        config = _small_config(topo)
        a, b = run_soak(config), run_soak(config)
        assert a.digest == b.digest
        assert a.samples == b.samples
        assert a.summary == b.summary

    def test_curve_csv_is_byte_identical(self, tmp_path, topo):
        config = _small_config(topo)
        run_soak(config).write_artifacts(tmp_path / "a")
        run_soak(config).write_artifacts(tmp_path / "b")
        assert (tmp_path / "a_curve.csv").read_bytes() == (
            tmp_path / "b_curve.csv"
        ).read_bytes()

    def test_artifacts_and_sidecars(self, tmp_path, topo):
        report = run_soak(_small_config(topo))
        paths = report.write_artifacts(tmp_path / "soak")
        curve, report_path = paths["curve"], paths["report"]
        header = Path(curve).read_text(encoding="utf-8").splitlines()[0]
        assert header.split(",")[:2] == ["t", "availability"]
        body = json.loads(Path(report_path).read_text(encoding="utf-8"))
        assert body["decision_digest"] == report.digest
        assert body["summary"]["tasks_done"] == report.summary["tasks_done"]
        for path in (curve, report_path):
            sidecar = json.loads(
                Path(path).with_suffix(".manifest.json").read_text(encoding="utf-8")
            )
            assert sidecar["kind"] == "chaos"

    def test_report_json_is_strict(self, topo):
        # Permanent outages put inf in the summary; the JSON form must
        # stay strict (null, not Infinity).
        config = _small_config(topo, schedule=_whole_fleet(topo, at=2.0))
        text = json.dumps(run_soak(config).as_dict())
        assert "Infinity" not in text
        assert "NaN" not in text


class TestDegradedModeSurvival:
    def test_rack_loss_never_degrades_these_groups(self, topo):
        # 1x4x2 with ls_group[k=2]: each group spans 2 racks, so one
        # whole rack down still leaves every group a live machine.
        config = _small_config(
            topo, schedule=ChaosSchedule.rack(topo, 1, at=2.0)
        )
        report = run_soak(config)
        summary = report.summary
        assert summary["shed"] == 0
        assert summary["min_availability"] == 1.0
        assert summary["min_availability"] >= 1.0 - 1.0 / 2  # k=2 bound
        assert summary["tasks_done"] == summary["tasks_admitted"]
        assert summary["stranded"] == 0
        assert summary["machine_failures"] == 2
        assert report.passed  # default objectives hold

    def test_chaos_arm_never_beats_control_or_bound(self, topo):
        summary = run_soak(_small_config(topo)).summary
        assert summary["inflation"] >= 1.0
        assert summary["makespan"] >= summary["capacity_bound"]

    def test_group_kill_reroutes_admissions(self):
        # 1x2x2 -> m=4, groups (0,1) and (2,3): rack 0 down kills group
        # 0, so every later admission must land in group 1.
        topo = FleetTopology(zones=1, racks_per_zone=2, machines_per_rack=2)
        config = SoakConfig(
            topology=topo,
            seed=3,
            duration=6.0,
            rate=3.0,
            schedule=ChaosSchedule.rack(topo, 0, at=2.0),
            objectives=("min_availability >= 0.5",),
        )
        report = run_soak(config)
        assert report.summary["min_availability"] == 0.5
        assert report.summary["shed"] == 0
        assert report.passed

    def test_total_outage_sheds(self):
        # Both groups fully and permanently down: every admission after
        # the outage sheds with code "degraded" and the run still drains.
        topo = FleetTopology(zones=1, racks_per_zone=2, machines_per_rack=1)
        config = SoakConfig(
            topology=topo,
            seed=1,
            duration=5.0,
            rate=3.0,
            schedule=_whole_fleet(topo, at=1.0),
            objectives=("shed >= 1",),
        )
        report = run_soak(config)
        assert report.summary["shed"] >= 1
        assert report.summary["min_availability"] == 0.0
        assert report.passed


class TestSchedulerFailureSemantics:
    def test_replacement_onto_surviving_replica(self):
        sched = ServiceScheduler("ls_group[k=2]", m=4, model="truthful", seed=0)
        record, _ = sched.admit("a", 4.0)
        running_on = record.machine
        assert running_on is not None
        sched.inject_failure([running_on], at=1.0)
        sched.drain()
        assert record.state is TaskState.DONE
        assert record.restarts == 1
        assert record.machine in record.machines
        assert record.machine != running_on
        # Restarted from scratch at t=1: the 4s task lands at t=5.
        assert record.finished_at == pytest.approx(5.0)
        assert sched.replaced == 1
        assert sched.machine_failures == 1

    def test_completion_beats_failure_at_same_instant(self):
        sched = ServiceScheduler("ls_group[k=2]", m=4, model="truthful", seed=0)
        record, _ = sched.admit("a", 4.0)
        sched.inject_failure([record.machine], at=4.0)
        sched.drain()
        assert record.state is TaskState.DONE
        assert record.restarts == 0
        assert record.finished_at == pytest.approx(4.0)
        assert sched.replaced == 0
        assert sched.machine_failures == 1

    def test_forced_recovery_wins(self):
        sched = ServiceScheduler("ls_group[k=2]", m=4)
        sched.inject_failure([0], at=1.0)  # permanent
        sched.drain()
        assert 0 in sched.down
        sched.inject_recovery([0], at=3.0)
        sched.drain()
        assert 0 not in sched.down
        assert sched.machine_recoveries == 1
        assert sched.availability() == 1.0

    def test_all_groups_down_sheds_with_degraded(self):
        sched = ServiceScheduler("ls_group[k=2]", m=2)
        sched.inject_failure([0, 1], at=0.0)
        sched.drain()
        with pytest.raises(AdmissionError) as excinfo:
            sched.admit("a", 1.0)
        assert excinfo.value.code == "degraded"
        assert sched.shed == 1

    def test_health_tracker_wiring(self):
        health = HealthTracker()
        sched = ServiceScheduler(
            "ls_group[k=2]", m=4, model="truthful", seed=0, health=health
        )
        sched.admit("a", 2.0)
        sched.inject_failure([0], at=1.0, downtime=2.0)
        sched.drain()
        # Default policy: one failure suspects the machine.
        assert health.state(0) is HealthState.SUSPECT
        assert any(t.new is HealthState.SUSPECT for t in health.transitions)
