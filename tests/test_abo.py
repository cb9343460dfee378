"""Tests for ABO_Δ (Theorems 7 and 8)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.ratios import run_strategy
from repro.core.strategies.selective import PinnedAwarePolicy
from repro.exact.optimal import optimal_makespan
from repro.faults import CrashRecover, FaultPlan
from repro.memory.abo import ABO, abo_tables
from repro.memory.model import memory_lower_bound
from repro.memory.sabo import SABO
from repro.simulation import simulate
from repro.uncertainty.realization import factors_realization, truthful_realization
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.memory_workloads import planted_two_class
from tests.conftest import factor_vectors, sized_instances

DELTAS = (0.5, 1.0, 2.0)


class TestPlacement:
    def test_s1_replicated_s2_pinned(self):
        inst = planted_two_class(4, 6, m=3)
        p = ABO(1.0).place(inst)
        s1, s2 = p.meta["s1"], p.meta["s2"]
        for j in s1:
            assert p.replication_count(j) == inst.m
        for j in s2:
            assert p.replication_count(j) == 1

    def test_memory_charges_replicas(self):
        inst = planted_two_class(2, 2, m=2, size_light=1.0, size_heavy=5.0)
        p = ABO(1.0).place(inst)
        # Each replicated S1 task charges its size on both machines.
        s1 = p.meta["s1"]
        assert set(s1) == {0, 1}
        for i in range(2):
            mem = p.memory_per_machine()[i]
            assert mem >= 2 * 1.0  # both replicated tasks on each machine

    def test_name_and_validation(self):
        assert ABO(2.0).name == "abo[delta=2]"
        assert ABO(1.0, barrier=True).name == "abo[delta=1,barrier]"
        with pytest.raises(ValueError):
            ABO(0.0)


class TestPhase2Precedence:
    def test_pinned_tasks_run_before_replicated_on_their_machine(self):
        inst = planted_two_class(3, 6, m=3)
        strategy = ABO(1.0)
        p = strategy.place(inst)
        outcome = run_strategy(strategy, inst, truthful_realization(inst))
        s2 = set(p.meta["s2"])
        for machine in range(inst.m):
            tasks = outcome.trace.tasks_per_machine(inst.m)[machine]
            seen_replicated = False
            for tid in tasks:
                if tid in s2:
                    assert not seen_replicated, (
                        f"pinned task {tid} ran after a replicated task on "
                        f"machine {machine}"
                    )
                else:
                    seen_replicated = True

    def test_replicated_dispatched_by_ls(self):
        """Replicated tasks flow to machines as they free up."""
        inst = planted_two_class(4, 2, m=2)
        outcome = run_strategy(ABO(1.0), inst, truthful_realization(inst))
        outcome.trace.validate(
            ABO(1.0).place(inst), truthful_realization(inst)
        )

    def test_barrier_variant_runs(self):
        inst = planted_two_class(3, 4, m=2)
        outcome = run_strategy(ABO(1.0, barrier=True), inst, truthful_realization(inst))
        assert outcome.makespan > 0


class _ScanPolicy:
    """ABO's Phase-2 rule as a plain scan of the view on every poll.

    Built from the placement, not from the policy under test: each
    machine's S₂ queue, then S₁ (``meta["s1"]``), both in LPT order."""

    def __init__(self, instance, placement, barrier: bool) -> None:
        s1 = set(placement.meta["s1"])
        lpt = instance.lpt_order()
        self.pinned = {
            i: [j for j in lpt if j not in s1 and placement.machines_for(j) == {i}]
            for i in range(instance.m)
        }
        self.replicated = [j for j in lpt if j in s1]
        self.barrier = barrier

    def select(self, machine, view):
        for tid in self.pinned[machine]:
            if not view.is_started(tid):
                return tid
        if self.barrier:
            for queue in self.pinned.values():
                if any(not view.is_started(t) for t in queue):
                    return None
        for tid in self.replicated:
            if not view.is_started(tid):
                return tid
        return None


class _Lockstep:
    """Asks the policy and the scan on every poll; they must agree."""

    def __init__(self, policy, reference) -> None:
        self.policy = policy
        self.reference = reference

    def select(self, machine, view):
        got = self.policy.select(machine, view)
        assert got == self.reference.select(machine, view), (machine, view.now)
        return got


@st.composite
def _recoverable_crashes(draw, instance):
    """Crash-recover faults inside the run: they abort running tasks,
    pinned ones included, but every machine comes back."""
    horizon = instance.total_estimate * instance.alpha
    return FaultPlan(
        tuple(
            draw(
                st.lists(
                    st.builds(
                        CrashRecover,
                        st.integers(0, instance.m - 1),
                        st.floats(0.0, horizon),
                        st.floats(0.01, horizon),
                    ),
                    max_size=4,
                )
            )
        )
    )


class TestHeadPointers:
    """Both readings of Phase 2 are the pinned-aware rule over
    :func:`abo_tables`, the strict one with the tables' barrier gate set,
    and pick what a scan of the view picks."""

    def test_each_mode_has_its_policy(self):
        inst = planted_two_class(3, 6, m=3)
        placement = ABO(1.0).place(inst)
        for barrier in (False, True):
            policy = ABO(1.0, barrier=barrier).make_policy(inst, placement)
            assert type(policy) is PinnedAwarePolicy
            assert policy.tables.barrier is barrier
            assert policy.tables == abo_tables(inst, placement, barrier)

    def test_tables_rank_every_pinned_task_first(self):
        inst = planted_two_class(3, 6, m=3)
        placement = ABO(1.0).place(inst)
        tables = abo_tables(inst, placement)
        rank, candidates = tables.rank, tables.candidates
        pinned = [j for queue in tables.queues for j in queue]
        assert sorted(pinned) == sorted(placement.meta["s2"])
        assert max(rank[j] for j in pinned) < min(rank[j] for j in candidates)
        assert [rank[j] for j in candidates] == sorted(rank[j] for j in candidates)
        assert all(set(sums) == {0.0} for sums in tables.suffix)
        assert tables.barrier is False

    @given(data=st.data(), barrier=st.booleans(), delta=st.sampled_from(DELTAS))
    def test_same_picks_as_a_scan_under_aborts(self, data, barrier, delta):
        inst = data.draw(sized_instances(min_n=2, max_n=10, max_m=4))
        strategy = ABO(delta, barrier=barrier)
        placement = strategy.place(inst)
        policy = strategy.make_policy(inst, placement)
        reference = _ScanPolicy(inst, placement, barrier)
        real = factors_realization(inst, data.draw(factor_vectors(inst)))
        faults = data.draw(_recoverable_crashes(inst))
        # One policy object serves a faulted run, then a fault-free one.
        for plan in (faults, None):
            trace = simulate(placement, real, _Lockstep(policy, reference), faults=plan)
            trace.validate(placement, real)
        fresh = simulate(placement, real, strategy.make_policy(inst, placement))
        assert trace.runs == fresh.runs

    @pytest.mark.parametrize("barrier", [False, True])
    def test_an_aborted_pinned_task_is_picked_again(self, barrier):
        inst = planted_two_class(3, 6, m=3)
        strategy = ABO(1.0, barrier=barrier)
        placement = strategy.place(inst)
        real = truthful_realization(inst)
        policy = strategy.make_policy(inst, placement)
        reference = _ScanPolicy(inst, placement, barrier)
        machine, queue = next((i, q) for i, q in reference.pinned.items() if q)
        # Crash the machine halfway through its first pinned task.
        at = inst.tasks[queue[0]].estimate / 2
        plan = FaultPlan.of(CrashRecover(machine, at, 1.0))
        trace = simulate(placement, real, _Lockstep(policy, reference), faults=plan)
        assert [run.tid for run in trace.aborted] == [queue[0]]
        assert trace.runs[queue[0]].start >= at + 1.0
        trace.validate(placement, real)


class TestTheorem7Makespan:
    @given(sized_instances(min_n=2, max_n=9, max_m=3), st.sampled_from(DELTAS), st.integers(0, 2))
    def test_makespan_within_guarantee(self, inst, delta, seed):
        strategy = ABO(delta)
        real = sample_realization(inst, "bimodal_extreme", seed)
        outcome = run_strategy(strategy, inst, real)
        opt = optimal_makespan(real.actuals, inst.m, exact_limit=12)
        if opt.optimal:
            guarantee = strategy.makespan_guarantee(inst)
            assert outcome.makespan <= guarantee * opt.value * (1 + 1e-9)

    def test_guarantee_formula(self, sized_instance):
        m = sized_instance.m
        a2 = sized_instance.alpha**2
        rho1 = 4 / 3 - 1 / (3 * m)
        assert ABO(1.5).makespan_guarantee(sized_instance) == pytest.approx(
            2 - 1 / m + 1.5 * a2 * rho1
        )


class TestTheorem8Memory:
    @given(sized_instances(min_n=2, max_n=10, max_m=3), st.sampled_from(DELTAS))
    def test_memory_within_guarantee(self, inst, delta):
        strategy = ABO(delta)
        placement = strategy.place(inst)
        mem_lb = memory_lower_bound(inst.sizes, inst.m)
        if mem_lb == 0.0:
            return
        guarantee = strategy.memory_guarantee(inst)
        assert placement.memory_max() <= guarantee * mem_lb * (1 + 1e-9)

    def test_guarantee_formula(self, sized_instance):
        m = sized_instance.m
        rho2 = 4 / 3 - 1 / (3 * m)
        assert ABO(2.0).memory_guarantee(sized_instance) == pytest.approx(
            (1 + m / 2.0) * rho2
        )


class TestAboVsSabo:
    def test_abo_better_makespan_under_uncertainty(self):
        """On the anticorrelated regime with extreme perturbations ABO's
        replication of time-heavy tasks should beat SABO's static pinning
        (in aggregate over seeds)."""
        from repro.workloads.memory_workloads import anticorrelated_sizes

        wins = 0
        total = 6
        for seed in range(total):
            inst = anticorrelated_sizes(16, 4, alpha=2.0, seed=seed)
            real = sample_realization(inst, "bimodal_extreme", 100 + seed)
            abo = run_strategy(ABO(1.0), inst, real).makespan
            sabo = run_strategy(SABO(1.0), inst, real).makespan
            if abo <= sabo + 1e-9:
                wins += 1
        assert wins >= total // 2

    def test_abo_worse_memory(self):
        inst = planted_two_class(5, 5, m=4)
        abo_mem = ABO(1.0).place(inst).memory_max()
        sabo_mem = SABO(1.0).place(inst).memory_max()
        assert abo_mem >= sabo_mem
