"""Substrate performance microbenchmarks.

Not a paper artifact — these track the cost of the building blocks so
performance regressions in the simulator or solvers are visible in the
benchmark log: offline LPT at scale, the event-driven engine, the exact
branch-and-bound, MULTIFIT, a full two-phase strategy run, and the
experiment grid's serial-vs-parallel comparison (the sweep substrate
every E-bench runs on).
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import emit
from repro.analysis.experiment import ExperimentGrid, run_grid
from repro.analysis.ratios import run_strategy
from repro.core.strategies import LPTNoRestriction, LSGroup
from repro.exact.bnb import branch_and_bound
from repro.registry import full_sweep
from repro.schedulers.lpt import lpt_schedule
from repro.schedulers.multifit import multifit_schedule
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.generators import uniform_instance


def bench_lpt_offline_10k_tasks(benchmark):
    inst = uniform_instance(10_000, 64, seed=0)
    result = benchmark(lpt_schedule, list(inst.estimates), 64)
    assert result.makespan > 0


def bench_multifit_1k_tasks(benchmark):
    inst = uniform_instance(1_000, 16, seed=1)
    result = benchmark(multifit_schedule, list(inst.estimates), 16)
    assert result.makespan > 0


def bench_engine_full_replication_2k_tasks(benchmark):
    inst = uniform_instance(2_000, 32, alpha=1.5, seed=2)
    real = sample_realization(inst, "log_uniform", 3)
    strategy = LPTNoRestriction()

    def run():
        return run_strategy(strategy, inst, real, validate=False).makespan

    makespan = benchmark(run)
    assert makespan > 0


def bench_engine_group_strategy_2k_tasks(benchmark):
    inst = uniform_instance(2_000, 32, alpha=1.5, seed=4)
    real = sample_realization(inst, "log_uniform", 5)
    strategy = LSGroup(8)

    def run():
        return run_strategy(strategy, inst, real, validate=False).makespan

    makespan = benchmark(run)
    assert makespan > 0


def bench_branch_and_bound_n16_m4(benchmark):
    inst = uniform_instance(16, 4, seed=6)

    def solve():
        return branch_and_bound(list(inst.estimates), 4).makespan

    value = benchmark(solve)
    assert value > 0


_SPEEDUP_WORKERS = 4


def _speedup_grid_args():
    """A multi-second grid: every m=8 strategy × 4 instances × 2 seeds.

    Sized so per-cell compute dominates pool startup and IPC — the
    speedup assertion must measure the backend, not the fork cost.
    """
    strategies = full_sweep(8)
    instances = [uniform_instance(2_000, 8, alpha=1.5, seed=s) for s in range(4)]
    return strategies, instances, ["log_uniform"]


def _run_speedup_comparison():
    # batch=False on both sides: this bench measures the process pool, so
    # every cell must actually cross it instead of short-circuiting
    # through the parent-side vectorized backend.
    strategies, instances, models = _speedup_grid_args()
    t0 = time.perf_counter()
    serial = run_grid(strategies, instances, models, seeds=(0, 1), batch=False)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_grid(
        strategies,
        instances,
        models,
        seeds=(0, 1),
        workers=_SPEEDUP_WORKERS,
        batch=False,
    )
    parallel_s = time.perf_counter() - t0
    return serial, parallel, serial_s, parallel_s


def bench_grid_parallel_speedup(benchmark):
    """Serial vs parallel grid execution on the same sweep.

    Asserts the parallel backend's determinism guarantee (identical
    record lists) always, and near-linear speedup (>1.5× with 4 workers)
    whenever the host actually has ≥4 cores to scale onto.
    """
    serial, parallel, serial_s, parallel_s = benchmark.pedantic(
        _run_speedup_comparison, rounds=1, iterations=1
    )
    assert serial == parallel, "parallel grid must reproduce the serial records"
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cores = os.cpu_count() or 1
    lines = [
        f"grid cells: {len(serial)}  workers: {_SPEEDUP_WORKERS}  cores: {cores}",
        f"serial:   {serial_s:8.3f} s",
        f"parallel: {parallel_s:8.3f} s",
        f"speedup:  {speedup:8.2f}x",
    ]
    if cores < _SPEEDUP_WORKERS:
        lines.append(
            f"note: host has {cores} core(s) < {_SPEEDUP_WORKERS} workers — below "
            "the parallelism break-even point, so the pool's fork/IPC overhead "
            "makes a sub-1x ratio expected here; the >1.5x speedup assertion "
            f"only applies on hosts with >= {_SPEEDUP_WORKERS} cores"
        )
    emit("perf_grid_parallel_speedup", "\n".join(lines))
    if cores >= _SPEEDUP_WORKERS:
        assert speedup > 1.5, (
            f"expected >1.5x speedup with {_SPEEDUP_WORKERS} workers on "
            f"{cores} cores, measured {speedup:.2f}x"
        )


def _batch_grid_args():
    """The closed-form partition families on a kernel-dominated sweep."""
    strategies = [
        "lpt_no_choice",
        "lpt_no_restriction",
        "ls_group[k=4]",
        "lpt_group[k=2]",
    ]
    instances = [uniform_instance(400, 8, alpha=2.0, seed=s) for s in range(3)]
    return strategies, instances, ["log_uniform"]


def _run_batch_comparison():
    strategies, instances, models = _batch_grid_args()
    t0 = time.perf_counter()
    kernel = run_grid(strategies, instances, models, seeds=(0, 1, 2, 3), batch=False)
    kernel_s = time.perf_counter() - t0
    grid = ExperimentGrid(
        strategies=strategies,
        instances=instances,
        realization_models=models,
        seeds=(0, 1, 2, 3),
    )
    t0 = time.perf_counter()
    batched = grid.run()
    batch_s = time.perf_counter() - t0
    return kernel, batched, grid.batched_cells, kernel_s, batch_s


def bench_batch_backend_speedup(benchmark):
    """Event kernel vs the vectorized batch backend on the same sweep.

    Asserts the batch backend's bit-exactness contract (identical record
    lists), that every cell of this all-batchable sweep actually took the
    vectorized path, and a >2x speedup — the committed BENCH_perf.json
    gates the finer-grained trajectory; this bench keeps the claim alive
    in the artifact log.
    """
    kernel, batched, batched_cells, kernel_s, batch_s = benchmark.pedantic(
        _run_batch_comparison, rounds=1, iterations=1
    )
    assert kernel == batched, "batch backend must reproduce the kernel records"
    assert batched_cells == len(batched), "all-batchable sweep must fully batch"
    speedup = kernel_s / batch_s if batch_s > 0 else float("inf")
    emit(
        "perf_batch_backend_speedup",
        "\n".join(
            [
                f"grid cells: {len(kernel)}  batched: {batched_cells}",
                f"event kernel: {kernel_s:8.3f} s",
                f"batch sweep:  {batch_s:8.3f} s",
                f"speedup:      {speedup:8.2f}x",
            ]
        ),
    )
    assert speedup > 2.0, f"expected >2x batch speedup, measured {speedup:.2f}x"
