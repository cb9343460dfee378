"""Tests for the one grid executor (repro.analysis.parallel fan-out).

Every worker count runs the same chunk body: the serial grid is the
one-worker case of the pooled path, and one memo per chunk samples each
(instance, model, seed) realization and solves its optimum once, whether
a closed-form pack, a replay pack, a refused pack or the per-cell kernel
serves the cell.
"""

from __future__ import annotations

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
from repro.analysis.parallel import enumerate_cells, execute_packs
from repro.core.model import make_instance
from repro.core.strategies import LPTNoChoice


class KernelOnlyLPT(LPTNoChoice):
    """Unregistered, so never batch-eligible: always the per-cell kernel."""

    name = "kernel_only_lpt"


#: One strategy per serving path: closed form, replay plan, a pack the
#: batch compiler refuses, and a cell that never ships as a pack.
MIXED = ["ls_group[k=2]", "capped[C=1000]", "abo[delta=1,barrier]", KernelOnlyLPT()]
SEEDS = (0, 1)
MODELS = ("uniform", "log_uniform")


def _instances():
    out = []
    for i in range(2):
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


def _grid(**kwargs) -> ExperimentGrid:
    return ExperimentGrid(
        strategies=MIXED,
        instances=_instances(),
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
                    # The barrier ablation and the unregistered strategy
                    # take the kernel; the other two are swept.
                    assert cold.batched_cells == 2 * 2 * 2 * 2

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
