"""Tests for the one grid executor (repro.analysis.parallel fan-out).

Every worker count runs the same chunk body: the serial grid is the
one-worker case of the pooled path, and one memo per chunk samples each
(instance, model, seed) realization and solves its optimum once, whether
a closed-form pack, a replay pack, a refused pack or the per-cell kernel
serves the cell.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from collections import Counter

import pytest

import repro.analysis.batch as batch_module
import repro.analysis.parallel as parallel_module
import repro.analysis.ratios as ratios_module
from repro.analysis.batch import group_packs
from repro.analysis.cache import CellCache
from repro.analysis.experiment import ExperimentGrid
from repro.analysis.parallel import _chunks, enumerate_cells, execute_packs
from repro.core.model import make_instance
from repro.core.placement import Placement
from repro.core.strategies import LPTNoChoice
from repro.core.strategies.partition import PartitionStrategy
from repro.core.strategy import FixedOrderPolicy, TwoPhaseStrategy
from repro.obs import MemorySink, observed
from repro.registry import make_strategy


class UnregisteredLPT(LPTNoChoice):
    """Unregistered, and swept all the same: the compiler routes a pack by
    its structure, not by the registry."""

    name = "unregistered_lpt"


#: One strategy per serving path: closed form, replay plan, a pack the
#: batch compiler refuses, and a closed form outside the registry.
MIXED = ["ls_group[k=2]", "capped[C=1000]", "abo[delta=1,barrier]", UnregisteredLPT()]
SEEDS = (0, 1)
MODELS = ("uniform", "log_uniform")


def _instances(count=2):
    out = []
    for i in range(count):
        rng = random.Random(40 + i)
        out.append(
            make_instance(
                [rng.uniform(0.5, 8.0) for _ in range(12)],
                4,
                2.0,
                sizes=[rng.uniform(0.1, 1.0) for _ in range(12)],
                name=f"mixed{i}",
            )
        )
    return out


def _grid(count=2, **kwargs) -> ExperimentGrid:
    return ExperimentGrid(
        strategies=MIXED,
        instances=_instances(count),
        realization_models=list(MODELS),
        seeds=SEEDS,
        exact_limit=12,
        **kwargs,
    )


class TestOneExecutor:
    def test_records_identical_across_workers_batch_and_cache(self, tmp_path):
        reference = _grid(workers=1, batch=False).run()
        assert len(reference) == 2 * 2 * 2 * 4
        for workers in (1, 2):
            for batch in (True, False):
                root = tmp_path / f"w{workers}-b{int(batch)}"
                cold_cache = CellCache(root)
                cold = _grid(workers=workers, batch=batch, cache=cold_cache)
                assert cold.run() == reference, (workers, batch, "cold")
                assert cold_cache.hits == 0
                warm_cache = CellCache(root)
                warm = _grid(workers=workers, batch=batch, cache=warm_cache)
                assert warm.run() == reference, (workers, batch, "warm")
                assert warm_cache.misses == 0
                if batch:
                    # The barrier ablation takes the kernel; the other
                    # three, the unregistered strategy too, are swept.
                    assert cold.batched_cells == 2 * 2 * 2 * 3

    @pytest.mark.parametrize("batch", [True, False])
    def test_one_optimum_and_one_realization_per_group(self, batch, monkeypatch):
        solved: Counter = Counter()
        sampled: Counter = Counter()

        def counting_solver(original):
            def solve(actuals, m, **kwargs):
                solved[tuple(actuals)] += 1
                return original(actuals, m, **kwargs)

            return solve

        for module in (ratios_module, batch_module):
            monkeypatch.setattr(
                module, "optimal_makespan", counting_solver(module.optimal_makespan)
            )
        original_sample = parallel_module.sample_realization

        def sample(instance, model, seed):
            sampled[(instance.name, model, seed)] += 1
            return original_sample(instance, model, seed)

        monkeypatch.setattr(parallel_module, "sample_realization", sample)

        grid = _grid(workers=1, batch=batch)
        records = grid.run()
        groups = len(grid.instances) * len(MODELS) * len(SEEDS)
        assert len(records) == groups * len(MIXED)
        assert len(sampled) == groups and set(sampled.values()) == {1}
        assert len(solved) == groups and set(solved.values()) == {1}


class TestPackDuration:
    def test_duration_includes_the_optimum_solves(self, monkeypatch):
        rng = random.Random(5)
        inst = make_instance([rng.uniform(0.5, 8.0) for _ in range(10)], 2, 2.0)
        cells = enumerate_cells([LPTNoChoice()], [inst], ["uniform"], (0, 1, 2), 10)
        solve = batch_module.optimal_makespan

        def slow_solve(*args, **kwargs):
            time.sleep(0.01)
            return solve(*args, **kwargs)

        monkeypatch.setattr(batch_module, "optimal_makespan", slow_solve)
        outcomes, _ = execute_packs(group_packs(cells), workers=1)
        assert [o.batched for o in outcomes] == [True] * 3
        # Three groups, each solved once inside the pack.
        assert sum(o.duration_s for o in outcomes) >= 0.01 * 3


class ShapeShifter(TwoPhaseStrategy):
    """One strategy, three plan tiers on same-shape instances: a partition
    on ``mixed0`` (closed form), overlapping machine sets on ``mixed1``
    (replay) and a Phase-1 refusal on ``mixed2`` (a skipped cell)."""

    name = "shape_shifter"

    def place(self, instance):
        if instance.name == "mixed2":
            raise ValueError("shape_shifter refuses mixed2")
        odd = frozenset({1, 2}) if instance.name == "mixed1" else frozenset({2, 3})
        sets = [odd if j % 2 else frozenset({0, 1}) for j in range(instance.n)]
        return Placement(instance, tuple(sets))

    def make_policy(self, instance, placement):
        return FixedOrderPolicy(instance.lpt_order())


class TestStacks:
    """A stack sweeps one strategy's packs on same-shape instances together;
    what each pack reports and what the grid returns must not change."""

    def test_one_batch_pack_event_and_count_per_strategy_and_instance(self):
        grid = _grid(count=3)
        sink = MemorySink()
        with observed(sink) as tracer:
            records = grid.run()
            packs = tracer.registry.counters["grid.batch_packs"].value
            batched = tracer.registry.counters["grid.cells_batched"].value
        seen = Counter(
            (e.payload["strategy"], e.payload["instance"])
            for e in sink.events
            if e.name == "grid.batch_pack"
        )
        # Every strategy but the refused barrier ablation (MIXED's third)
        # is swept on every instance.
        expected = {
            (strategy.name, instance.name)
            for strategy in grid.strategies
            if strategy is not grid.strategies[2]
            for instance in grid.instances
        }
        assert set(seen) == expected and set(seen.values()) == {1}
        assert packs == len(expected)
        assert batched == grid.batched_cells == len(expected) * len(MODELS) * len(SEEDS)
        assert records == _grid(count=3, batch=False).run()

    def test_mixed_tiers_in_one_stack_match_the_kernel(self):
        kwargs = dict(
            strategies=[ShapeShifter(), "ls_group[k=2]", "lpt_no_choice"],
            instances=_instances(3),
            realization_models=list(MODELS),
            seeds=SEEDS,
            exact_limit=12,
        )
        batched = ExperimentGrid(**kwargs)
        kernel = ExperimentGrid(batch=False, **kwargs)
        assert batched.run() == kernel.run()
        assert batched.skipped == kernel.skipped
        assert [s.instance for s in batched.skipped] == ["mixed2"] * len(MODELS) * len(SEEDS)
        cells = len(MODELS) * len(SEEDS)
        assert batched.batched_cells == (2 + 3 + 3) * cells

    def test_pooled_grid_solves_each_group_once_per_chunk(self, tmp_path, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers inherit the counting solver only when forked")
        log = tmp_path / "solves"
        solve = batch_module.optimal_makespan

        def counted(actuals, m, **kwargs):
            with open(log, "a", encoding="ascii") as fh:
                fh.write("solve\n")
            return solve(actuals, m, **kwargs)

        monkeypatch.setattr(batch_module, "optimal_makespan", counted)
        kwargs = dict(
            strategies=["lpt_no_choice", "ls_group[k=2]", "lpt_no_restriction"],
            instances=_instances(3),
            realization_models=["uniform"],
            seeds=(0, 1, 2),
            exact_limit=12,
        )
        records = ExperimentGrid(workers=2, **kwargs).run()
        assert records == ExperimentGrid(batch=False, **kwargs).run()
        # Chunks ship whole packs and each chunk's memo solves each of its
        # realization groups once, so a group split across two chunks is
        # solved twice — as before stacks, no more and no fewer.
        cells = enumerate_cells(
            [make_strategy(s) for s in kwargs["strategies"]],
            kwargs["instances"], kwargs["realization_models"], kwargs["seeds"], 12,
        )
        chunks = _chunks(group_packs(cells), 2)
        per_chunk = [{spec.group for spec in chunk} for chunk in chunks]
        assert len(per_chunk) > 1
        assert log.read_text().count("solve") == sum(len(groups) for groups in per_chunk)


class TestRefusedPackPlacement:
    """A pack the batch compiler refuses hands the placement ``build_plan``
    built to its kernel cells; without batching every cell runs Phase 1."""

    KWARGS = dict(
        strategies=["abo[delta=1,barrier]", "ls_group[k=2]"],
        realization_models=list(MODELS),
        seeds=SEEDS,
        exact_limit=12,
    )

    def _count_phase1(self, monkeypatch) -> Counter:
        """Phase-1 runs per (strategy, instance).  A partition strategy's
        Phase 1 is its ``partition``, which a batched stack runs without
        ``build_placement``; every other strategy's is ``build_placement``."""
        calls: Counter = Counter()
        build = ratios_module.build_placement
        partition = PartitionStrategy.partition

        def counted(strategy, instance):
            if not isinstance(strategy, PartitionStrategy):
                calls[strategy.name, instance.name] += 1
            return build(strategy, instance)

        def counted_partition(strategy, instance):
            calls[strategy.name, instance.name] += 1
            return partition(strategy, instance)

        monkeypatch.setattr(ratios_module, "build_placement", counted)
        monkeypatch.setattr(PartitionStrategy, "partition", counted_partition)
        return calls

    def test_phase1_once_per_pack_with_batch_and_once_per_cell_without(
        self, monkeypatch
    ):
        calls = self._count_phase1(monkeypatch)
        instances = _instances(3)
        batched = ExperimentGrid(instances=instances, **self.KWARGS).run()
        per_pack = Counter(calls)
        calls.clear()
        kernel = ExperimentGrid(instances=instances, batch=False, **self.KWARGS).run()
        assert batched == kernel
        cells = len(MODELS) * len(SEEDS)
        for inst in instances:
            assert per_pack["abo[delta=1,barrier]", inst.name] == 1
            assert per_pack["ls_group[k=2]", inst.name] == 1
            assert calls["abo[delta=1,barrier]", inst.name] == cells
            assert calls["ls_group[k=2]", inst.name] == cells

    def test_a_retried_kernel_cell_reuses_the_pack_placement(self, monkeypatch):
        calls = self._count_phase1(monkeypatch)
        simulate = ratios_module.simulate
        failures = [RuntimeError("transient")]

        def flaky(*args, **kwargs):
            if failures:
                raise failures.pop()
            return simulate(*args, **kwargs)

        monkeypatch.setattr(ratios_module, "simulate", flaky)
        instances = _instances(2)
        retry = parallel_module.RetryPolicy(backoff_s=0.0)
        grid = ExperimentGrid(instances=instances, retry=retry, **self.KWARGS)
        records = grid.run()
        assert grid.resilience["retries"] == 1
        assert all(calls["abo[delta=1,barrier]", inst.name] == 1 for inst in instances)
        monkeypatch.setattr(ratios_module, "simulate", simulate)
        assert records == ExperimentGrid(
            instances=instances, batch=False, **self.KWARGS
        ).run()


class TestCompileCrash:
    """A pack whose compile raises is a cell fault like any other: its
    cells take the resilient per-cell path, are retried and quarantined,
    and the sweep completes — batched or not, pooled or inline."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_crashing_phase1_quarantines_as_without_batching(
        self, workers, monkeypatch
    ):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers inherit the crashing Phase 1 only when forked")

        def crash(self, instance):
            raise RuntimeError("phase 1 crashed")

        monkeypatch.setattr(LPTNoChoice, "place", crash)
        kwargs = dict(
            strategies=["lpt_no_choice", "ls_group[k=2]"],
            instances=_instances(2),
            realization_models=["uniform"],
            seeds=(0,),
            exact_limit=12,
            retry=parallel_module.RetryPolicy(backoff_s=0.0),
        )
        kernel = ExperimentGrid(batch=False, **kwargs)
        expected = kernel.run()
        grid = ExperimentGrid(workers=workers, **kwargs)
        with observed() as tracer:
            records = grid.run()
            failovers = tracer.registry.counters.get("grid.chunk_failovers")
        assert records == expected
        assert grid.skipped == kernel.skipped
        assert [s.kind for s in grid.skipped] == ["quarantined"] * 2
        assert failovers is None or failovers.value == 0
