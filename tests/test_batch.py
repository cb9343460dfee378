"""Tests for the vectorized batch backend and its grid fast path.

The load-bearing property: for every strategy the batch compiler
accepts, the batch sweep's makespans — and the grid records built from
them — are **bit-identical** to the per-event :class:`EventKernel` path,
across random instances, realization models, and seeds.  Everything the
compiler refuses must fall back transparently.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import repro.analysis.batch as batch_module
from repro.analysis.experiment import ExperimentGrid
from repro.analysis.ratios import run_strategy
from repro.core.model import Instance, make_instance
from repro.core.placement import (
    Placement,
    everywhere_placement,
    group_placement,
    single_machine_placement,
)
from repro.core.strategies import LPTGroup, LPTNoChoice, LPTNoRestriction, LSGroup
from repro.core.strategies.ls_group import equal_groups
from repro.core.strategies.partition import Partition, PartitionStrategy
from repro.core.strategies.selective import PinnedAwarePolicy, PinnedTables
from repro.core.strategy import FixedOrderPolicy, TwoPhaseStrategy
from repro.registry import entry_for, full_sweep, make_strategy, strategy_entries
from repro.schedulers.list_scheduling import greedy_assign_heap
from repro.schedulers.lpt import lpt_assignment_by_task
from repro.simulation.batch import (
    BatchPlan,
    BatchUnsupported,
    ReplayPlan,
    batch_makespans,
    build_plan,
    stack_compiles,
    sweep_makespans,
)
from repro.simulation.engine import SimulationError, simulate
from repro.uncertainty.realization import Realization
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.suites import memory_suite

# One exemplar spec list per registry family, used by the per-family
# bit-exactness property tests below *and* by the CI batch-equivalence
# matrix (`pytest tests/test_batch.py -k <family>`).  Kept in sync with
# the registry by ``test_family_map_covers_every_entry``.
FAMILY_SPECS: dict[str, tuple[str, ...]] = {
    "core": (
        "lpt_no_choice",
        "lpt_no_restriction",
        "ls_group[k=2]",
        "lpt_group[k=2]",
        "nonclairvoyant_ls[shuffle=3]",
        "overlap_windows[k=2,w=2]",
        "overlap_windows[k=3,w=2]",
        "selective[0.3,count]",
        "selective[0.5,work]",
        "budgeted[B=40]",
    ),
    "adaptive": ("refined[lpt_no_choice]", "refined[ls_group[k=2]]"),
    "hetero": ("risk_aware[0]", "risk_aware[0.4]", "risk_aware[1]"),
    "robust": ("robust_pinned",),
    "memory": ("sabo[delta=1]", "abo[delta=1]", "capped[C=100]"),
}


#: The specs docs/performance.md's plan-tier table names, with their tier
#: on a memory_suite instance (``None``: refused, runs on the kernel).
PERFORMANCE_DOC_TIERS: dict[str, type | None] = {
    "lpt_no_restriction": BatchPlan,
    "sabo[delta=1]": BatchPlan,
    "robust_pinned": BatchPlan,
    "nonclairvoyant_ls[shuffle=1]": BatchPlan,
    "refined[ls_group[k=5],eta=0.5]": BatchPlan,
    "overlap_windows[k=5,w=2]": ReplayPlan,
    "capped[C=1000]": ReplayPlan,
    "selective[0.25,count]": ReplayPlan,
    "budgeted[B=40]": ReplayPlan,
    "risk_aware[0.5]": ReplayPlan,
    "abo[delta=1]": ReplayPlan,
    "abo[delta=1,barrier]": None,
}


def _rand_instance(n: int, m: int, alpha: float, seed: int) -> Instance:
    rng = random.Random(seed)
    return make_instance(
        [rng.uniform(0.2, 10.0) for _ in range(n)], m, alpha, name=f"rand{seed}"
    )


def _rand_sized_instance(n: int, m: int, alpha: float, seed: int) -> Instance:
    """Like :func:`_rand_instance` but with nonzero memory sizes, so the
    memory-family phase splits are exercised nontrivially."""
    rng = random.Random(seed)
    return make_instance(
        [rng.uniform(0.2, 10.0) for _ in range(n)],
        m,
        alpha,
        sizes=[rng.uniform(0.05, 2.0) for _ in range(n)],
        name=f"sized{seed}",
    )


class TestRouting:
    """The compiler alone decides which pairs sweep: no registry entry
    claims it (``tests/test_grid_executor.py`` sweeps an unregistered
    fixed order)."""

    def test_barrier_ablation_compile_refuses(self):
        """The barrier ablation shares ABO's registry entry and its policy
        (a ``PinnedAwarePolicy``), but its tables' barrier gate has no
        replay — ``build_plan`` must refuse it, naming the gate, so the
        grid falls back to the event kernel."""
        strategy = make_strategy("abo[delta=0.5,barrier]")
        inst = _rand_sized_instance(10, 4, 1.5, 21)
        with pytest.raises(BatchUnsupported, match="the barrier gate"):
            build_plan(strategy, inst)

    def test_family_map_covers_every_entry(self):
        """Every registry entry has at least one exemplar spec in
        FAMILY_SPECS, under its own family key — so a new entry cannot
        dodge the per-family CI matrix, where ``TestFamilyBitExact``
        fails on any exemplar that stops compiling."""
        covered = {
            spec.split("[")[0]
            for specs in FAMILY_SPECS.values()
            for spec in specs
        }
        for entry in strategy_entries():
            assert entry.name in covered, f"{entry.name} missing from FAMILY_SPECS"
            assert any(
                spec.split("[")[0] == entry.name
                for spec in FAMILY_SPECS[entry.family]
            ), f"{entry.name} listed under the wrong family"


class TestBuildPlan:
    def test_everywhere_placement_ranges(self):
        inst = _rand_instance(10, 4, 1.5, 0)
        plan = build_plan(make_strategy("lpt_no_restriction"), inst)
        assert plan.machines.tolist() == [list(range(inst.m))]
        assert sorted(plan.tasks[0].tolist()) == list(range(inst.n))
        assert plan.guarantee is not None

    def test_group_placement_partitions(self):
        inst = _rand_instance(12, 6, 2.0, 1)
        plan = build_plan(make_strategy("ls_group[k=3]"), inst)
        spans = {(row[0], row[-1] + 1) for row in plan.machines.tolist()}
        assert spans <= {(0, 2), (2, 4), (4, 6)}
        placed = plan.tasks[plan.tasks < inst.n]
        assert sorted(placed.tolist()) == list(range(inst.n))

    def test_incompatible_k_propagates_value_error(self):
        inst = _rand_instance(8, 6, 1.5, 2)
        with pytest.raises(ValueError):
            build_plan(make_strategy("ls_group[k=4]"), inst)

    def test_non_fixed_order_policy_rejected(self):
        class AdaptiveToy(TwoPhaseStrategy):
            name = "adaptive_toy"

            def place(self, instance):
                return Placement(
                    instance,
                    tuple(frozenset(range(instance.m)) for _ in range(instance.n)),
                )

            def make_policy(self, instance, placement):
                class P:
                    def select(self, machine, view):  # pragma: no cover
                        return None

                return P()

        inst = _rand_instance(6, 3, 1.5, 3)
        with pytest.raises(BatchUnsupported, match="FixedOrderPolicy"):
            build_plan(AdaptiveToy(), inst)

    def test_overlapping_ranges_take_order_replay(self):
        class OverlapToy(TwoPhaseStrategy):
            name = "overlap_toy"

            def place(self, instance):
                sets = [frozenset({0, 1}), frozenset({1, 2})]
                sets += [frozenset({0, 1})] * (instance.n - 2)
                return Placement(instance, tuple(sets))

            def make_policy(self, instance, placement):
                return FixedOrderPolicy(range(instance.n))

        inst = _rand_instance(5, 3, 1.5, 4)
        plan = build_plan(OverlapToy(), inst)
        assert isinstance(plan, ReplayPlan)
        self._assert_plan_matches_kernel(OverlapToy(), plan, inst)

    def test_non_contiguous_sets_take_order_replay(self):
        class GappyToy(TwoPhaseStrategy):
            name = "gappy_toy"

            def place(self, instance):
                return Placement(
                    instance, tuple(frozenset({0, 2}) for _ in range(instance.n))
                )

            def make_policy(self, instance, placement):
                return FixedOrderPolicy(range(instance.n))

        inst = _rand_instance(5, 3, 1.5, 5)
        plan = build_plan(GappyToy(), inst)
        assert isinstance(plan, ReplayPlan)
        self._assert_plan_matches_kernel(GappyToy(), plan, inst)

    def test_tables_must_agree_with_the_placement(self):
        """Pinned-aware tables from outside ``pinned_tables`` are checked:
        a queued task must be pinned to exactly its queue's machine, and
        the queues plus the candidates must cover every task once."""
        inst = _rand_instance(6, 3, 1.5, 8)
        with pytest.raises(BatchUnsupported, match="task 0 is queued on machine 1"):
            build_plan(MisqueuedTables(), inst)
        with pytest.raises(BatchUnsupported, match="exactly once"):
            build_plan(ChosenSplit(0.5, drop_last=True), inst)
        assert isinstance(build_plan(ChosenSplit(0.5), inst), ReplayPlan)

    def test_plan_tiers_by_decision_structure(self):
        inst = _rand_sized_instance(14, 4, 2.0, 6)
        tiers = {
            "lpt_group[k=2]": BatchPlan,
            "sabo[delta=1]": BatchPlan,
            "abo[delta=1]": ReplayPlan,
            "selective[0.3,count]": ReplayPlan,
            "risk_aware[0.4]": ReplayPlan,
        }
        for spec, tier in tiers.items():
            plan = build_plan(make_strategy(spec), inst)
            assert type(plan) is tier, f"{spec}: {type(plan).__name__}"
        memory_inst = next(iter(memory_suite(seeds=1))).instance
        for spec, tier in PERFORMANCE_DOC_TIERS.items():
            strategy = make_strategy(spec)
            if tier is None:
                with pytest.raises(BatchUnsupported):
                    build_plan(strategy, memory_inst)
                continue
            plan = build_plan(strategy, memory_inst)
            assert type(plan) is tier, f"{spec}: {type(plan).__name__}"

    @staticmethod
    def _assert_plan_matches_kernel(strategy, plan, inst):
        rows, refs = [], []
        for seed in range(4):
            realization = sample_realization(inst, "uniform", seed)
            rows.append(list(realization.actuals))
            refs.append(run_strategy(strategy, inst, realization).makespan)
        swept = sweep_makespans(plan, np.asarray(rows))
        assert swept.tolist() == refs


class TestSweepShape:
    def test_wrong_width_rejected(self):
        inst = _rand_instance(7, 3, 1.5, 6)
        plan = build_plan(make_strategy("lpt_no_choice"), inst)
        import numpy as np

        with pytest.raises(ValueError, match="actuals"):
            sweep_makespans(plan, np.zeros((2, inst.n + 1)))

    def test_single_row_convenience(self):
        inst = _rand_instance(7, 3, 1.5, 7)
        realization = sample_realization(inst, "uniform", 0)
        one = batch_makespans(
            make_strategy("lpt_no_choice"), inst, list(realization.actuals)
        )
        assert len(one) == 1


class TestBitExactEquality:
    """The exactness contract, per strategy and at grid granularity."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=32),
        m=st.sampled_from([2, 3, 4, 6, 8]),
        alpha=st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=10_000),
        model=st.sampled_from(["uniform", "log_uniform", "bimodal_extreme"]),
    )
    def test_every_batchable_strategy_matches_event_kernel(
        self, n, m, alpha, seed, model
    ):
        inst = _rand_instance(n, m, alpha, seed)
        realization = sample_realization(inst, model, seed + 1)
        for strategy in full_sweep(m, include_ablation=True):
            outcome = run_strategy(strategy, inst, realization)
            (swept,) = batch_makespans(strategy, inst, [realization.actuals])
            assert swept == outcome.makespan, (
                f"{strategy.name}: batch {swept!r} != kernel {outcome.makespan!r}"
            )

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=24),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_grid_records_identical(self, n, seed):
        inst = _rand_instance(n, 6, 2.0, seed)
        kwargs = dict(
            strategies=["lpt_no_choice", "lpt_no_restriction", "ls_group[k=3]",
                        "lpt_group[k=2]"],
            instances=[inst],
            realization_models=["uniform"],
            seeds=[0, 1],
            # Batch and serial records share the optimum code path, so a
            # small exact limit keeps this comparison cheap.
            exact_limit=10,
        )
        batched = ExperimentGrid(**kwargs)
        serial = ExperimentGrid(batch=False, **kwargs)
        assert batched.run() == serial.run()
        assert batched.batched_cells == batched.total_cells()
        assert serial.batched_cells == 0


class TestFamilyBitExact:
    """Per-family exactness: one parametrized property per registry family,
    so the CI batch-equivalence matrix (`-k <family>`) names the regressing
    family in the job list."""

    @pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=28),
        m=st.sampled_from([2, 3, 4, 6]),
        alpha=st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=10_000),
        model=st.sampled_from(["uniform", "log_uniform", "bimodal_extreme"]),
    )
    def test_family_matches_event_kernel(self, family, n, m, alpha, seed, model):
        inst = _rand_sized_instance(n, m, alpha, seed)
        realization = sample_realization(inst, model, seed + 1)
        checked = 0
        for spec in FAMILY_SPECS[family]:
            strategy = make_strategy(spec)
            try:
                plan = build_plan(strategy, inst)
            except ValueError:
                # Phase 1 rejects this instance (e.g. k does not divide m,
                # or B < n) — the grid skips such cells on both paths.
                continue
            outcome = run_strategy(strategy, inst, realization)
            (swept,) = sweep_makespans(
                plan, np.asarray([list(realization.actuals)])
            )
            assert swept == outcome.makespan, (
                f"{spec}: batch {swept!r} != kernel {outcome.makespan!r}"
            )
            checked += 1
        assert checked, f"no spec in family {family!r} was feasible"


class UnevenGroups(TwoPhaseStrategy):
    """A partition into contiguous groups of 1, 2, 3, ... machines (the
    last takes the rest) where every third group gets no task: tasks go
    to the other groups by their integer-part estimate, so same-shape
    instances give their groups different task counts."""

    name = "uneven_groups"

    def place(self, instance):
        bounds, start, size = [], 0, 1
        while start < instance.m:
            bounds.append((start, min(instance.m, start + size)))
            start, size = bounds[-1][1], size + 1
        used = [span for g, span in enumerate(bounds) if g % 3 != 2]
        return Placement(
            instance,
            tuple(
                frozenset(range(*used[int(task.estimate) % len(used)]))
                for task in instance.tasks
            ),
        )

    def make_policy(self, instance, placement):
        return FixedOrderPolicy(instance.lpt_order())


class ChosenSplit(TwoPhaseStrategy):
    """ABO's Phase-2 tables with a chosen split: the first ``share`` of
    the LPT order pinned round robin, the rest replicated everywhere and
    taken in reverse index order, every pinned task ranked first.
    ``share=0`` leaves every queue empty, ``share=1`` no candidate;
    ``drop_last`` leaves the last task out of the tables."""

    def __init__(self, share: float, *, drop_last: bool = False) -> None:
        self.share = share
        self.drop_last = drop_last
        self.name = f"chosen_split[{share}]"

    def _pinned(self, instance):
        order = instance.lpt_order()
        return order[: round(self.share * instance.n)]

    def place(self, instance):
        sets = [frozenset(range(instance.m))] * instance.n
        for rank, j in enumerate(self._pinned(instance)):
            sets[j] = frozenset((rank % instance.m,))
        return Placement(instance, tuple(sets))

    def make_policy(self, instance, placement):
        pinned = self._pinned(instance)
        queues = [[] for _ in range(instance.m)]
        for j in pinned:
            queues[min(placement.machines_for(j))].append(j)
        candidates = [j for j in reversed(range(instance.n)) if j not in pinned]
        rank = [0] * instance.n
        for pos, j in enumerate(pinned + candidates):
            rank[j] = pos
        if self.drop_last:
            candidates = candidates[:-1]
        suffix = [[0.0] * (len(queue) + 1) for queue in queues]
        return PinnedAwarePolicy(PinnedTables(rank, queues, suffix, candidates))


class MisqueuedTables(TwoPhaseStrategy):
    """Pinned-aware tables whose task 0, pinned to machine 0 by the
    placement, sits in machine 1's queue."""

    name = "misqueued_tables"

    def place(self, instance):
        everywhere = frozenset(range(instance.m))
        return Placement(instance, (frozenset((0,)), *[everywhere] * (instance.n - 1)))

    def make_policy(self, instance, placement):
        queues = [[] for _ in range(instance.m)]
        queues[1].append(0)
        suffix = [[0.0] * (len(queue) + 1) for queue in queues]
        rank = list(range(instance.n))
        return PinnedAwarePolicy(PinnedTables(rank, queues, suffix, rank[1:]))


#: A closed-form structure no registry spec reaches: unequal and empty
#: groups.
EDGE_STRATEGIES = (UnevenGroups(),)

#: Pinned-aware tables no registry spec reaches: ABO's split with every
#: queue empty, with no candidate, and in between.
REPLAY_EDGES = (ChosenSplit(0.0), ChosenSplit(0.5), ChosenSplit(1.0))


def _stack_rows(inst: Instance, seed: int, integral: bool) -> list[Realization]:
    """Two realizations; integral ones give exact float ties."""
    if not integral:
        return [sample_realization(inst, "uniform", seed + b) for b in range(2)]
    rng = random.Random(seed)
    rows = []
    for _ in range(2):
        actuals = []
        for task in inst.tasks:
            lo, hi = task.bounds(inst.alpha)
            actuals.append(float(rng.randint(int(-(-lo // 1)), int(hi))))
        rows.append(Realization(inst, tuple(actuals)))
    return rows


class TestLockstepStacks:
    """A stack of closed-form plans — one strategy on 2-4 same-shape
    instances, swept as one ``(R, n)`` matrix — equals ``simulate`` row
    by row, compared by ``float.hex``.  Parametrized by family, so every
    leg of the CI batch-equivalence matrix runs it; the edge structures
    run in every leg."""

    @pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=14),
        m=st.sampled_from([1, 2, 3, 4, 6]),
        count=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        integral=st.booleans(),
    )
    def test_stack_matches_simulate(self, family, n, m, count, seed, integral):
        rng = random.Random(seed)
        instances = [
            make_instance(
                [float(rng.randint(1, 4)) if integral else rng.uniform(0.2, 10.0)
                 for _ in range(n)],
                m,
                2.0,
                sizes=[rng.uniform(0.05, 2.0) for _ in range(n)],
                name=f"stack{seed}-{i}",
            )
            for i in range(count)
        ]
        strategies = [make_strategy(spec) for spec in FAMILY_SPECS[family]]
        for strategy in [*strategies, *EDGE_STRATEGIES]:
            plans, rows, expected = [], [], []
            for i, inst in enumerate(instances):
                try:
                    plan = build_plan(strategy, inst)
                except (BatchUnsupported, ValueError):
                    continue  # Phase 1 refuses the instance; the grid skips it
                if not isinstance(plan, BatchPlan):
                    continue
                reals = _stack_rows(inst, seed + 7 * i, integral)
                plans.append(plan)
                rows.append(reals)
                placement = strategy.place(inst)
                for real in reals:
                    policy = strategy.make_policy(inst, placement)
                    expected.append(simulate(placement, real, policy).makespan.hex())
            if not plans:
                continue
            matrix = np.array([r.actuals for reals in rows for r in reals])
            swept = sweep_makespans(plans, matrix, [len(reals) for reals in rows])
            assert [v.hex() for v in swept.tolist()] == expected, strategy.name

    def test_edge_structures_reach_their_layouts(self):
        """The edge strategies compile to the layouts they are named for."""
        inst = make_instance([3.0, 1.0, 2.0, 4.0, 2.0, 1.0, 3.0], 6, 2.0)
        plan = build_plan(UnevenGroups(), inst)
        # Groups of one and two machines (the empty machine slot is m);
        # the third group (machines 3-5) gets no task, so no row holds it.
        assert plan.machines.tolist() == [[0, 6], [1, 2]]
        assert [int((row < inst.n).sum()) for row in plan.tasks] == [3, 4]
        empty_queues = build_plan(ChosenSplit(0.0), inst)
        assert empty_queues.queues.tolist() == [inst.n] * inst.m
        assert empty_queues.candidates.size == inst.n
        no_candidates = build_plan(ChosenSplit(1.0), inst)
        assert no_candidates.queues.size == inst.n + inst.m
        assert no_candidates.candidates.size == 0

    def test_stack_rejects_mismatched_rows_and_shapes(self):
        a = _rand_instance(6, 3, 1.5, 1)
        b = _rand_instance(7, 3, 1.5, 2)
        c = _rand_instance(6, 2, 1.5, 3)
        lpt = make_strategy("lpt_no_choice")
        plan_a, plan_b = build_plan(lpt, a), build_plan(lpt, b)
        with pytest.raises(ValueError, match="row count"):
            sweep_makespans([plan_a, plan_a], np.ones((3, 6)), [1, 1])
        with pytest.raises(ValueError, match=r"\(n, m\)"):
            sweep_makespans([plan_a, plan_b], np.ones((2, 6)), [1, 1])
        selective = make_strategy("selective[0.5,count]")
        replay_a, replay_c = build_plan(selective, a), build_plan(selective, c)
        assert isinstance(replay_a, ReplayPlan)
        with pytest.raises(TypeError, match="mixes closed-form and replay"):
            sweep_makespans([plan_a, replay_a], np.ones((2, 6)), [1, 1])
        with pytest.raises(ValueError, match=r"\(n, m\) = \(6, 3\)"):
            sweep_makespans([replay_a, replay_c], np.ones((2, 6)), [1, 1])
        with pytest.raises(ValueError, match="row count"):
            sweep_makespans([replay_a, replay_a], np.ones((4, 6)), [1, 2])
        with pytest.raises(ValueError, match="row count"):
            sweep_makespans([replay_a, replay_a], np.ones((2, 6)))


#: The families with a registered partition strategy (``core``), so the
#: CI batch-equivalence leg of each runs ``TestPartitionStacks``.
PARTITION_FAMILIES = sorted(
    {e.family for e in strategy_entries() if issubclass(e.cls, PartitionStrategy)}
)


class EstimateGroups(LSGroup):
    """LS-Group whose Phase 1 puts each task on group ``int(estimate) %
    k`` instead of List Scheduling, so in a stack of such partitions a
    group may be empty in some rows and not in others."""

    @classmethod
    def base_name(cls) -> str:
        return "estimate_groups"

    def partition(self, instance):
        k = self.group_count(instance)
        order = self.dispatch_order(instance)
        return Partition(k, order, tuple(int(instance.estimates[j]) % k for j in order))


class ReversedGroups(LSGroup):
    """LS-Group dispatching in reverse input order: it overrides
    ``make_policy``, so its Phase 2 no longer derives from its partition."""

    @classmethod
    def base_name(cls) -> str:
        return "reversed_groups"

    def make_policy(self, instance, placement):
        return FixedOrderPolicy(reversed(range(instance.n)))


def _parent_placement(strategy: PartitionStrategy, inst: Instance) -> Placement:
    """The placement each strategy built from the heap result before the
    three shared one Phase 1."""
    meta = {"strategy": strategy.name}
    if type(strategy) is LPTNoRestriction:
        return everywhere_placement(inst, meta=meta)
    if type(strategy) is LPTNoChoice:
        return single_machine_placement(
            inst, lpt_assignment_by_task(inst.estimates, inst.m), meta=meta
        )
    order = inst.lpt_order() if type(strategy) is LPTGroup else inst.input_order()
    result = greedy_assign_heap(inst.estimates, order, strategy.k)
    group_of_task = [0] * inst.n
    for pos, j in enumerate(result.order):
        group_of_task[j] = result.assignment[pos]
    groups = equal_groups(inst.m, strategy.k)
    return group_placement(inst, group_of_task, groups, meta={**meta, "k": strategy.k})


class TestPartitionStacks:
    """A stack of a partition strategy compiles in one ``build_plan`` call
    from its group ids.  Stacks of 2-12 instances, with tied integral
    estimates and actuals, ``n < k``, ``k = 1``, ``k = m`` and ``m = 1``,
    sweep equal to ``simulate`` row by row (compared by ``float.hex``)
    and to each instance compiled alone through its placement; and every
    strategy places as it did before the three shared one Phase 1."""

    @pytest.mark.parametrize("family", PARTITION_FAMILIES)
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        m=st.sampled_from([1, 2, 4, 6]),
        count=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        integral=st.booleans(),
    )
    def test_stack_matches_simulate_and_each_compile(
        self, family, n, m, count, seed, integral
    ):
        rng = random.Random(seed)
        instances = [
            make_instance(
                [float(rng.randint(1, 3)) if integral else rng.uniform(0.2, 10.0)
                 for _ in range(n)],
                m,
                2.0,
                name=f"part{seed}-{i}",
            )
            for i in range(count)
        ]
        rows = [_stack_rows(inst, seed + 7 * i, integral) for i, inst in enumerate(instances)]
        matrix = np.array([r.actuals for reals in rows for r in reals])
        counts = [len(reals) for reals in rows]
        strategies = [
            s for s in full_sweep(m, include_ablation=True)
            if isinstance(s, PartitionStrategy) and entry_for(s).family == family
        ]
        assert strategies, f"no partition strategy in family {family!r} at m={m}"
        for strategy in [*strategies, EstimateGroups(m)]:
            assert stack_compiles(strategy)
            plans = build_plan(strategy, instances)
            stacked = sweep_makespans(plans, matrix, counts).tolist()
            alone, expected = [], []
            for inst, reals in zip(instances, rows):
                single = build_plan(strategy, inst)
                alone += sweep_makespans(single, np.array([r.actuals for r in reals])).tolist()
                placement = strategy.place(inst)
                if not isinstance(strategy, EstimateGroups):
                    parent = _parent_placement(strategy, inst)
                    assert placement.machine_sets == parent.machine_sets, strategy.name
                    assert list(placement.meta.items()) == list(parent.meta.items())
                for real in reals:
                    policy = strategy.make_policy(inst, placement)
                    expected.append(simulate(placement, real, policy).makespan.hex())
            assert [v.hex() for v in stacked] == expected, strategy.name
            assert [v.hex() for v in alone] == expected, strategy.name

    def test_a_group_is_dropped_only_when_empty_in_every_row(self):
        """Group ids 1 and 2 of four: group 2 is empty in the second row
        only, so it keeps its slot there, padded; groups 0 and 3 are
        empty in both rows and leave both tables."""
        a = make_instance([1.0, 2.0, 1.0], 4, 2.0)
        b = make_instance([1.0, 1.0, 1.0], 4, 2.0)
        plan_a, plan_b = build_plan(EstimateGroups(4), [a, b])
        assert plan_a.machines is plan_b.machines
        assert plan_a.machines.tolist() == [[1], [2]]
        assert plan_a.tasks.tolist() == [[0, 2, 3], [1, 3, 3]]
        assert plan_b.tasks.tolist() == [[0, 1, 2], [3, 3, 3]]
        assert (plan_a.replication, plan_b.replication) == (1, 1)

    def test_an_overridden_policy_compiles_pack_by_pack(self, monkeypatch):
        """A subclass that overrides ``make_policy`` takes no stack path:
        ``build_plan`` refuses it a stack, and the grid compiles each of
        its packs alone, through its placement and policy."""
        instances = [_rand_instance(9, 4, 1.5, seed) for seed in range(3)]
        strategy = ReversedGroups(2)
        assert stack_compiles(LSGroup(2)) and not stack_compiles(strategy)
        with pytest.raises(BatchUnsupported, match="pack by pack"):
            build_plan(strategy, instances)
        compiled = []
        original = batch_module.build_plan

        def recorded(strategy, instance):
            compiled.append(instance)
            return original(strategy, instance)

        monkeypatch.setattr(batch_module, "build_plan", recorded)
        kwargs = dict(
            strategies=[strategy],
            instances=instances,
            realization_models=["uniform"],
            seeds=[0, 1],
            exact_limit=8,
        )
        grid = ExperimentGrid(**kwargs)
        assert grid.run() == ExperimentGrid(batch=False, **kwargs).run()
        assert grid.batched_cells == grid.total_cells()
        assert compiled == instances


class TestReplayPacks:
    """Every row of a replay pack starts from the same compiled tables:
    dispatch state leaking from one row into the next would break
    per-row kernel equality."""

    @settings(max_examples=10, deadline=None)
    @given(
        spec=st.sampled_from(["selective[0.3,count]", "risk_aware[0.4]", "capped[C=6]"]),
        n=st.integers(min_value=6, max_value=24),
        m=st.sampled_from([2, 3, 4]),
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=4, max_value=6),
    )
    def test_multi_row_pack_matches_per_row_kernel(self, spec, n, m, seed, rows):
        inst = _rand_sized_instance(n, m, 2.0, seed)
        strategy = make_strategy(spec)
        try:
            plan = build_plan(strategy, inst)
        except ValueError:
            return  # Phase 1 refuses the instance (capacity below a task)
        assert isinstance(plan, ReplayPlan)
        models = ("uniform", "log_uniform", "bimodal_extreme")
        reals = [
            sample_realization(inst, models[b % 3], seed + b) for b in range(rows)
        ]
        swept = sweep_makespans(plan, np.asarray([r.actuals for r in reals]))
        refs = [run_strategy(strategy, inst, r).makespan for r in reals]
        assert swept.tolist() == refs


#: The specs of each registry family that compile to replay plans (the
#: adaptive and robust families have none).  overlap_windows replays
#: when its windows overlap; the others always do.
REPLAY_SPECS: dict[str, tuple[str, ...]] = {
    "core": (
        "overlap_windows[k=2,w=2]",
        "overlap_windows[k=3,w=2]",
        "selective[0.3,count]",
        "selective[0.5,work]",
        "budgeted[B=12]",
        "budgeted[B=24]",
    ),
    "hetero": ("risk_aware[0]", "risk_aware[0.4]", "risk_aware[1]"),
    "memory": (
        "capped[C=3]",
        "capped[C=6]",
        "capped[C=1000]",
        "abo[delta=1]",
        "abo[delta=0.5]",
    ),
}

#: Actuals on a grid every task's band holds: estimates are 1, 2 or 3
#: and alpha is 3, so any of these is inside [estimate / 3, 3 * estimate].
_TIED_ACTUALS = {False: (1.0, 2.0, 3.0), True: (1.0, 1.5, 2.0, 2.5, 3.0)}


class TestReplayStacks:
    """A stack of replay plans — one strategy on 1-6 same-shape instances,
    each placing its own queues, candidates and allowed sets — swept in
    lockstep equals ``run_strategy`` row by row, compared by ``float.hex``.
    Integral estimates and actuals on a 1.0 or 0.5 grid make completion
    times, suffix sums and LPT ranks tie exactly, where the event order
    of tied completions decides the schedule.  Parametrized by family, so
    the CI batch-equivalence legs with a replay family run it; ABO's edge
    splits run in every leg."""

    @pytest.mark.parametrize("family", sorted(REPLAY_SPECS))
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=16),
        m=st.sampled_from([2, 3, 4, 6]),
        count=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        half=st.booleans(),
    )
    def test_tied_stack_matches_run_strategy(self, family, n, m, count, seed, half):
        rng = random.Random(seed)
        instances = [
            make_instance(
                [float(rng.randint(1, 3)) for _ in range(n)],
                m,
                3.0,
                sizes=[rng.uniform(0.05, 2.0) for _ in range(n)],
                name=f"tied{seed}-{i}",
            )
            for i in range(count)
        ]
        specs = [make_strategy(spec) for spec in REPLAY_SPECS[family]]
        checked = [_stack_matches(s, instances, rng, half) for s in specs]
        assert any(checked), f"no spec of family {family!r} compiled to a replay plan"
        for edge in REPLAY_EDGES:
            assert _stack_matches(edge, instances, rng, half), edge.name


def _stack_matches(strategy, instances, rng, half) -> bool:
    """Sweep ``strategy``'s replay plans on ``instances`` as one stack,
    with 1-3 tied realizations each, and compare every row with
    ``run_strategy``; ``False`` when no instance compiled to a replay."""
    plans, reals = [], []
    for inst in instances:
        try:
            plan = build_plan(strategy, inst)
        except ValueError:
            continue  # Phase 1 refuses the instance (B < n, C too small)
        if not isinstance(plan, ReplayPlan):
            continue  # disjoint windows compile to the closed form
        plans.append(plan)
        reals.append([
            Realization(
                inst, tuple(rng.choice(_TIED_ACTUALS[half]) for _ in range(inst.n))
            )
            for _ in range(rng.randint(1, 3))
        ])
    if not plans:
        return False
    matrix = np.array([r.actuals for rs in reals for r in rs])
    swept = sweep_makespans(plans, matrix, [len(rs) for rs in reals])
    expected = [
        run_strategy(strategy, r.instance, r).makespan.hex() for rs in reals for r in rs
    ]
    assert [v.hex() for v in swept.tolist()] == expected, strategy.name
    return True


class TestReplayGuard:
    def test_a_row_left_with_unscheduled_tasks_raises_naming_the_plan(self):
        """Tables that omit a task leave every row one dispatch short:
        each row's machines all idle with a task unstarted, and the
        replay raises instead of returning a makespan."""
        inst = make_instance([3.0, 1.0, 2.0, 2.0], 2, 1.5, name="short")
        plan = build_plan(make_strategy("selective[1,count]"), inst)
        assert isinstance(plan, ReplayPlan) and plan.candidates.size == inst.n
        short = dataclasses.replace(
            plan, candidates=plan.candidates[:-1], allowed=plan.allowed[:-1]
        )
        with pytest.raises(SimulationError, match=r"selective\[1,count\] on short"):
            sweep_makespans(short, np.array([inst.estimates] * 3))
        # The whole tables sweep without complaint.
        assert sweep_makespans(plan, np.array([inst.estimates])).shape == (1,)


class TestPolicyReuse:
    """One policy object serves a second run on a fresh view exactly as a
    fresh policy would: its dispatch marks reset with the view."""

    @pytest.mark.parametrize(
        "spec", [spec for specs in FAMILY_SPECS.values() for spec in specs]
    )
    def test_one_policy_serves_two_runs(self, spec):
        inst = _rand_sized_instance(20, 6, 2.0, 9)
        strategy = make_strategy(spec)
        placement = strategy.place(inst)
        policy = strategy.make_policy(inst, placement)
        for model in ("log_uniform", "bimodal_extreme"):
            real = sample_realization(inst, model, 3)
            fresh = simulate(placement, real, strategy.make_policy(inst, placement))
            assert simulate(placement, real, policy).runs == fresh.runs


class TestTransparentFallback:
    @pytest.fixture
    def inst(self):
        rng = random.Random(11)
        return make_instance(
            [rng.uniform(0.5, 8.0) for _ in range(18)],
            6,
            2.0,
            sizes=[rng.uniform(0.1, 1.0) for _ in range(18)],
            name="fallback",
        )

    def test_mixed_grid_matches_serial(self, inst):
        """The memory/adaptive families now compile to plans; the barrier
        ablation (refused at compile) falls back to the event kernel
        inside the same batch-enabled grid."""
        kwargs = dict(
            strategies=["lpt_no_choice", "capped[C=5.0]", "abo[delta=0.5]",
                        "abo[delta=0.5,barrier]", "nonclairvoyant_ls",
                        "ls_group[k=2]"],
            instances=[inst],
            realization_models=["uniform"],
            seeds=[0, 1],
        )
        batched = ExperimentGrid(**kwargs)
        serial = ExperimentGrid(batch=False, **kwargs)
        assert batched.run() == serial.run()
        # Every strategy but the barrier ablation took the sweep.
        assert batched.batched_cells == 5 * 2

    def test_incompatible_k_still_skips(self, inst):
        """A batchable strategy whose Phase 1 rejects the instance produces
        the same SkippedCell entries through the fallback."""
        kwargs = dict(
            strategies=["ls_group[k=4]", "lpt_no_choice"],  # 4 does not divide 6
            instances=[inst],
            realization_models=["uniform"],
            seeds=[0, 1],
        )
        batched = ExperimentGrid(**kwargs)
        serial = ExperimentGrid(batch=False, **kwargs)
        assert batched.run() == serial.run()
        assert [s.strategy for s in batched.skipped] == [
            s.strategy for s in serial.skipped
        ]
        assert len(batched.skipped) == 2

    def test_parallel_batch_grid_identical(self, inst):
        kwargs = dict(
            strategies=["lpt_no_choice", "ls_group[k=3]", "abo[delta=0.5]"],
            instances=[inst],
            realization_models=["uniform"],
            seeds=[0, 1, 2],
        )
        pooled = ExperimentGrid(workers=2, **kwargs)
        serial = ExperimentGrid(batch=False, **kwargs)
        assert pooled.run() == serial.run()


class TestBatchParallelComposition:
    """Packs shard across the pool instead of running in one process."""

    @pytest.fixture
    def insts(self):
        rng = random.Random(23)
        return [
            make_instance(
                [rng.uniform(0.5, 8.0) for _ in range(16)],
                4,
                2.0,
                sizes=[rng.uniform(0.1, 1.0) for _ in range(16)],
                name=f"comp{i}",
            )
            for i in range(2)
        ]

    def test_batched_parallel_equals_batched_serial_equals_kernel(self, insts):
        kwargs = dict(
            strategies=["lpt_no_choice", "ls_group[k=2]", "abo[delta=0.5]",
                        "sabo[delta=1]", "selective[0.3,count]",
                        "risk_aware[0.4]"],
            instances=insts,
            realization_models=["uniform", "bimodal_extreme"],
            seeds=[0, 1],
        )
        pooled = ExperimentGrid(workers=2, **kwargs)
        serial = ExperimentGrid(**kwargs)
        kernel = ExperimentGrid(batch=False, **kwargs)
        pooled_records = pooled.run()
        serial_records = serial.run()
        kernel_records = kernel.run()
        assert pooled_records == serial_records == kernel_records
        # Both batch paths served every cell from plans; the kernel none.
        assert pooled.batched_cells == pooled.total_cells()
        assert serial.batched_cells == serial.total_cells()
        assert kernel.batched_cells == 0

    def test_unsupported_pack_degrades_in_worker_without_poisoning_chunk(
        self, insts
    ):
        """Every cold cell ships in a pack, so the barrier ablation's cells
        reach the pool as one — the worker's compile refuses it and runs
        those cells through the event kernel, while the packs sharing its
        chunk still take the sweep."""
        kwargs = dict(
            strategies=["abo[delta=0.5,barrier]", "abo[delta=0.5]",
                        "lpt_no_choice"],
            instances=insts,
            realization_models=["uniform"],
            seeds=[0, 1, 2],
        )
        pooled = ExperimentGrid(workers=2, **kwargs)
        kernel = ExperimentGrid(batch=False, **kwargs)
        assert pooled.run() == kernel.run()
        # 2 instances x 3 seeds for each of the two compilable strategies.
        assert pooled.batched_cells == 2 * 2 * 3
        assert not pooled.skipped
