"""Tests for the parallel grid backend (repro.analysis.parallel)."""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.experiment import ExperimentGrid, run_grid
from repro.analysis.parallel import (
    CellSpec,
    default_chunk_size,
    enumerate_cells,
    execute_cells,
)
from repro.core.strategies import LPTNoChoice, LPTNoRestriction, LSGroup
from repro.obs import MemorySink, observed
from repro.uncertainty.realization import truthful_realization
from repro.workloads.generators import uniform_instance


@pytest.fixture
def instances():
    return [uniform_instance(10, 2, alpha=1.5, seed=s) for s in range(2)]


class UnregisteredLPT(LPTNoChoice):
    """A strategy class outside the registry (module level, so it pickles)."""

    name = "unregistered_lpt"


def _strategies():
    return [LPTNoChoice(), LPTNoRestriction()]


class TestEnumerateCells:
    def test_serial_nesting_order(self, instances):
        cells = enumerate_cells(
            _strategies(), instances, ["uniform", "log_uniform"], (0, 1), 22
        )
        assert len(cells) == 2 * 2 * 2 * 2
        assert [c.index for c in cells] == list(range(16))
        # Innermost loop is strategies; outermost is instances.
        assert cells[0].strategy.name == "lpt_no_choice"
        assert cells[1].strategy.name == "lpt_no_restriction"
        assert cells[0].instance is cells[7].instance
        assert cells[8].instance is instances[1]

    def test_groups_share_realizations(self, instances):
        cells = enumerate_cells(_strategies(), instances, ["uniform"], (0, 1), 22)
        # Two strategies per (instance, model, seed) group.
        groups = [c.group for c in cells]
        assert groups == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_realization_is_deterministic(self, instances):
        cells = enumerate_cells(_strategies(), instances, ["log_uniform"], (3,), 22)
        a = cells[0].realization()
        b = cells[0].realization()
        assert a.actuals == b.actuals


class TestDefaultChunkSize:
    def test_four_chunks_per_worker(self):
        assert default_chunk_size(160, 4) == 10

    def test_never_zero(self):
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(0, 4) == 1


class TestParallelEquivalence:
    def test_records_identical_to_serial(self, instances):
        args = (_strategies() + [LSGroup(2)], instances, ["log_uniform", "bimodal_extreme"])
        kwargs = {"seeds": (0, 1), "exact_limit": 12}
        serial = run_grid(*args, **kwargs)
        parallel = run_grid(*args, **kwargs, workers=2)
        assert serial == parallel  # same order, same values

    def test_skips_identical_to_serial(self, instances):
        # LSGroup(4) cannot split m=2: every cell skips, in both modes.
        serial_grid = ExperimentGrid(
            strategies=[LSGroup(4)], instances=instances, realization_models=["uniform"]
        )
        parallel_grid = ExperimentGrid(
            strategies=[LSGroup(4)],
            instances=instances,
            realization_models=["uniform"],
            workers=2,
        )
        assert serial_grid.run() == [] == parallel_grid.run()
        assert serial_grid.skipped == parallel_grid.skipped
        assert parallel_grid.skipped[0].strategy == "ls_group[k=4]"

    def test_progress_fires_in_cell_order(self, instances):
        seen: list[tuple[int, int]] = []
        run_grid(
            _strategies(),
            instances,
            ["uniform"],
            workers=2,
            progress=lambda done, total, rec: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestUnpicklableFallback:
    def test_custom_factory_runs_inline(self, instances):
        # A closure factory cannot cross the process boundary; the backend
        # must fall back to inline execution and still return records.
        factory = lambda inst, seed: truthful_realization(inst)  # noqa: E731
        records = run_grid(_strategies(), instances[:1], [factory], workers=2)
        assert len(records) == 2
        assert records[0].realization == "truthful"


class TestExecuteCells:
    def test_empty(self):
        assert execute_cells([], workers=4) == ([], [])

    def test_outcomes_sorted_by_index(self, instances):
        cells = enumerate_cells(_strategies(), instances, ["uniform"], (0,), 22)
        outcomes, _ = execute_cells(cells, workers=2)
        assert [o.index for o in outcomes] == list(range(len(cells)))

    def test_worker_traces_only_when_traced(self, instances):
        cells = enumerate_cells(_strategies(), instances, ["uniform"], (0,), 22)
        _, untraced = execute_cells(cells, workers=2)
        assert untraced == []
        with observed(MemorySink()):
            _, traced = execute_cells(cells, workers=2, traced=True)
        assert traced
        assert all(t.events for t in traced)


class TestParallelObservability:
    def test_worker_events_and_metrics_merge(self, instances):
        # batch=False: this test is about per-cell worker spans crossing
        # the IPC boundary, so force every cell through the pool.
        sink = MemorySink()
        with observed(sink) as tracer:
            records = run_grid(
                _strategies(),
                instances,
                ["log_uniform"],
                seeds=(0, 1),
                workers=2,
                batch=False,
            )
            assert tracer.registry.counters["grid.cells_done"].value == len(records) == 8
            timers = tracer.registry.timers
            assert timers["grid.strategy.lpt_no_choice"].count == 4
        cell_spans = [e for e in sink.by_kind("span_start") if e.name == "grid.cell"]
        assert len(cell_spans) == 8
        assert all("worker" in e.payload for e in cell_spans)
        manifests = [e for e in sink.by_kind("manifest") if e.payload["kind"] == "grid"]
        assert manifests[0].payload["params"]["workers"] == 2

    def test_merged_trace_passes_validation(self, instances, tmp_path):
        from repro.obs import JsonlSink
        from repro.obs.tracer import disable, enable, get_tracer
        from repro.obs.validate import validate_trace

        path = tmp_path / "parallel.jsonl"
        enable(JsonlSink(path))
        try:
            run_grid(_strategies(), instances, ["uniform"], workers=2)
            get_tracer().snapshot_counters()
        finally:
            disable()
        stats, errors = validate_trace(path)
        assert errors == []
        assert stats["spans"] >= 5  # run_grid + 4 replayed grid.cell spans


class TestCellSpec:
    def test_frozen_and_indexed(self, instances):
        spec = CellSpec(
            index=3,
            group=1,
            strategy=LPTNoChoice(),
            instance=instances[0],
            model="uniform",
            model_name="uniform",
            seed=0,
            exact_limit=22,
        )
        with pytest.raises(AttributeError):
            spec.index = 4


class TestSpecTransport:
    """Cell specs cross the pool boundary as one pickle per chunk."""

    def test_a_worker_stacks_a_chunk_as_the_parent_would(self):
        """Pickle keeps one object per strategy within a chunk, so each
        pooled chunk of same-shape packs sweeps as a single stack."""
        from repro.analysis.batch import group_packs, group_stacks
        from repro.analysis.parallel import _chunks

        insts = [uniform_instance(10, 2, alpha=1.5, seed=s) for s in range(16)]
        strategies = [LPTNoChoice()]
        cells = enumerate_cells(strategies, insts, ["uniform"], (0,), 22)
        chunks = _chunks(group_packs(cells), 2)
        assert len(chunks) < len(cells)
        assert all(len(group_stacks(chunk)) == 1 for chunk in chunks)
        grid = ExperimentGrid(
            strategies=strategies, instances=insts, realization_models=["uniform"],
            workers=2,
        )
        with observed() as tracer:
            grid.run()
            stacks = tracer.registry.timers["span.grid.batch"].count
        assert stacks == len(chunks)
        assert grid.batched_cells == len(cells)

    def test_unregistered_strategy_passes_through(self, instances):
        """No registry lookup on the way: an unregistered strategy crosses
        the pool as itself."""
        cells = enumerate_cells([UnregisteredLPT()], instances, ["uniform"], (0,), 22)
        assert type(pickle.loads(pickle.dumps(cells))[0].strategy) is UnregisteredLPT
        serial = run_grid([UnregisteredLPT()], instances, ["uniform"], seeds=(0, 1))
        pooled = run_grid(
            [UnregisteredLPT()], instances, ["uniform"], seeds=(0, 1), workers=2
        )
        assert pooled == serial

    def test_pooled_results_match_serial_for_param_strategies(self, instances):
        records_serial = run_grid(
            ["ls_group[k=2]", "lpt_group[k=2]"], instances, ["uniform"],
            seeds=(0, 1), batch=False,
        )
        records_pooled = run_grid(
            ["ls_group[k=2]", "lpt_group[k=2]"], instances, ["uniform"],
            seeds=(0, 1), workers=2, batch=False,
        )
        assert records_pooled == records_serial
