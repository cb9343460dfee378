"""Unit tests for repro.analysis.experiment."""

from __future__ import annotations

import pytest

from repro.analysis.experiment import ExperimentGrid, run_grid
from repro.analysis.parallel import RetryPolicy
from repro.core.strategies import LPTNoChoice, LSGroup
from repro.faults import inject
from repro.faults.inject import CellFaultSpec
from repro.uncertainty.realization import truthful_realization
from repro.workloads.generators import generate, uniform_instance


@pytest.fixture
def instances():
    return [uniform_instance(10, 2, alpha=1.5, seed=s) for s in range(2)]


class TestRunGrid:
    def test_record_count(self, instances):
        records = run_grid(
            [LPTNoChoice()], instances, ["uniform"], seeds=(0, 1), exact_limit=12
        )
        assert len(records) == 2 * 2  # instances x seeds

    def test_record_fields(self, instances):
        rec = run_grid([LPTNoChoice()], instances[:1], ["uniform"])[0]
        assert rec.strategy == "lpt_no_choice"
        assert rec.n == 10 and rec.m == 2
        assert rec.ratio >= 1.0 - 1e-9 or not rec.optimum_exact
        assert rec.replication == 1
        d = rec.as_dict()
        assert d["strategy"] == "lpt_no_choice"
        assert "ratio" in d

    def test_custom_factory(self, instances):
        records = run_grid(
            [LPTNoChoice()],
            instances[:1],
            [lambda inst, seed: truthful_realization(inst)],
        )
        assert records[0].realization == "truthful"
        assert records[0].ratio == pytest.approx(
            records[0].makespan / records[0].optimum
        )

    def test_incompatible_group_strategy_skipped(self, instances):
        grid = ExperimentGrid(
            strategies=[LSGroup(3)],  # m=2 not divisible by 3... k>m in fact
            instances=instances[:1],
            realization_models=["uniform"],
        )
        records = grid.run()
        assert records == []
        assert grid.skipped
        # Skips are structured: strategy/instance names plus the reason.
        skip = grid.skipped[0]
        assert skip.strategy == "ls_group[k=3]"
        assert skip.instance == instances[0].name
        assert skip.error
        assert skip.strategy in str(skip) and skip.instance in str(skip)
        assert skip.as_dict()["error"] == skip.error

    def test_deterministic(self, instances):
        a = run_grid([LPTNoChoice()], instances, ["log_uniform"], seeds=(3,))
        b = run_grid([LPTNoChoice()], instances, ["log_uniform"], seeds=(3,))
        assert [r.ratio for r in a] == [r.ratio for r in b]

    def test_second_run_reports_only_its_own_skips(self):
        grid = ExperimentGrid(
            strategies=["ls_group[k=3]", "lpt_no_choice"],  # k=3 cannot split m=4
            instances=[generate("uniform", 12, 4, 1.5, 0)],
            realization_models=["uniform"],
            seeds=(0, 1),
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )
        inject.configure(CellFaultSpec(only=1, fails=-1))  # lpt_no_choice, seed 0
        try:
            for _ in range(2):
                records = grid.run()
                assert len(records) == 1
                assert [s.kind for s in grid.skipped] == [
                    "incompatible", "quarantined", "incompatible",
                ]
                assert grid.resilience == {"retries": 1, "timeouts": 0, "quarantined": 1}
        finally:
            inject.reset()
