"""The public face of grid records and cell outcomes.

:class:`~repro.analysis.records.ExperimentRecord` and
:class:`~repro.analysis.parallel.CellOutcome` are ``NamedTuple`` classes;
callers read them by attribute, through ``as_dict``/``to_cache_dict``,
and across process boundaries.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.analysis.batch import group_packs
from repro.analysis.parallel import CellOutcome, enumerate_cells, execute_packs
from repro.analysis.records import ExperimentRecord
from repro.core.model import make_instance
from repro.core.strategies import LPTNoChoice, LSGroup
from repro.exact.optimal import OptimalValue
from repro.registry import make_strategy
from repro.workloads.generators import uniform_instance

FIELDS = (
    "strategy", "instance_name", "n", "m", "alpha", "realization", "seed",
    "replication", "makespan", "optimum", "optimum_exact", "ratio",
    "guarantee", "within_guarantee",
)


@pytest.fixture
def instance():
    return make_instance([3.0, 2.0, 2.0, 1.0], 2, alpha=1.5, name="u4")


def _record(instance, *, guarantee: float | None = 2.0, exact: bool = True):
    return ExperimentRecord.measured(
        "lpt_no_choice",
        instance,
        "grid/log_uniform",
        5,
        1,
        12.5,
        OptimalValue(10.0, exact, "test"),
        guarantee,
    )


class TestExperimentRecord:
    def test_attribute_access(self, instance):
        record = _record(instance)
        assert record._fields == FIELDS
        assert (record.strategy, record.instance_name, record.n, record.m) == (
            "lpt_no_choice", "u4", 4, 2,
        )
        assert record.alpha == 1.5 and record.realization == "log_uniform"
        assert (record.seed, record.replication) == (5, 1)
        assert (record.makespan, record.optimum, record.ratio) == (12.5, 10.0, 1.25)
        assert record.optimum_exact is True
        assert (record.guarantee, record.within_guarantee) == (2.0, True)

    def test_as_dict_flattens_none_to_empty(self, instance):
        row = _record(instance, guarantee=None).as_dict()
        assert list(row) == ["instance" if f == "instance_name" else f for f in FIELDS]
        assert row["instance"] == "u4"
        assert row["guarantee"] == "" and row["within_guarantee"] == ""

    @pytest.mark.parametrize("guarantee", [None, 2.0, 1.1])
    def test_cache_dict_round_trips_through_json(self, instance, guarantee):
        record = _record(instance, guarantee=guarantee, exact=False)
        data = record.to_cache_dict()
        assert list(data) == list(FIELDS)
        back = ExperimentRecord.from_cache_dict(json.loads(json.dumps(data)))
        assert back == record and type(back) is ExperimentRecord
        assert back.guarantee == guarantee
        # Above its guarantee on a lower-bound optimum: unknown, not False.
        assert back.within_guarantee is (None if guarantee != 2.0 else True)

    def test_from_cache_dict_refuses_a_missing_field(self, instance):
        data = _record(instance).to_cache_dict()
        del data["ratio"]
        with pytest.raises(KeyError):
            ExperimentRecord.from_cache_dict(data)

    def test_pickles(self, instance):
        record = _record(instance, guarantee=None)
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is ExperimentRecord
        assert back.guarantee is None and back.within_guarantee is None


class TestCellOutcome:
    def test_defaults(self, instance):
        outcome = CellOutcome(3, _record(instance), None, 0.25)
        assert (outcome.attempts, outcome.timed_out, outcome.batched) == (1, 0, False)
        assert outcome._replace(attempts=2).attempts == 2

    def test_pooled_outcomes_equal_serial(self):
        instances = [uniform_instance(12, 4, alpha=2.0, seed=s) for s in range(3)]
        strategies = [LPTNoChoice(), LSGroup(2), make_strategy("abo[delta=1,barrier]")]
        cells = enumerate_cells(
            strategies, instances, ["log_uniform", "bimodal_extreme"], (0, 1), 12
        )
        packs = group_packs(cells)

        def timeless(outcomes):
            return [o._replace(duration_s=0.0) for o in outcomes]

        serial, _ = execute_packs(packs, workers=1)
        pooled, _ = execute_packs(packs, workers=2)
        assert timeless(pooled) == timeless(serial)
        assert [o.index for o in serial] == list(range(len(cells)))
        assert all(type(o) is CellOutcome for o in serial + pooled)
        # Two of the three strategies sweep; the barrier ABO runs per cell.
        assert sum(o.batched for o in serial) == 2 * len(cells) // 3
