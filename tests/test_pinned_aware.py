"""Tests for PinnedAwarePolicy's dispatch state (queue heads, suffix sums).

The policy keeps a head pointer per pinned queue and precomputed
left-to-right suffix sums of the remaining pinned estimate.  Two
contracts are pinned here:

* the summation order: the eligibility compare uses the left-to-right
  sum on every interpreter (Python 3.12's ``sum()`` is compensated, so a
  plain ``sum()`` would decide differently there), and the batch replay
  agrees with the kernel on an instance where the two sums differ;
* the abort bookkeeping: under crash-recover and crash-stop faults the
  policy dispatches exactly as the per-event scan over the view it
  replaced;
* the rank order of the candidates, which lets the policy take its own
  head without a scan: the table builders keep it and the policy
  refuses tables that break it.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.ratios import build_placement, run_strategy
from repro.core.model import make_instance
from repro.core.placement import Placement
from repro.core.strategies.selective import PinnedAwarePolicy, pinned_tables
from repro.core.strategy import SchedulerView, TwoPhaseStrategy
from repro.faults import CrashRecover, CrashStop, FaultPlan
from repro.memory.abo import ABO, abo_tables
from repro.registry import make_strategy
from repro.simulation.batch import ReplayPlan, build_plan, sweep_makespans
from repro.simulation.engine import SimulationError, simulate
from repro.uncertainty.stochastic import sample_realization

BIG = 2.0**53  # float spacing here is 2, so BIG + 1.0 rounds back to BIG


class _FixedPinned(TwoPhaseStrategy):
    """Task 0 (``2 * BIG``) on both machines; machine 0 pins ``BIG, 1, 1``
    (tasks 1, 3, 4) and machine 1 pins ``BIG`` (task 2)."""

    name = "fixed_pinned"

    def place(self, instance):
        sets = [{0, 1}, {0}, {1}, {0}, {0}]
        return Placement(instance, tuple(frozenset(s) for s in sets))

    def make_policy(self, instance, placement):
        return PinnedAwarePolicy(pinned_tables(instance, placement))


def _summation_instance():
    return make_instance([2 * BIG, BIG, BIG, 1.0, 1.0], 2, 1.5, name="summation")


class TestSummationContract:
    def test_left_to_right_and_fsum_differ_beyond_the_slack(self):
        acc = 0.0
        for e in (BIG, 1.0, 1.0):
            acc += e
        assert acc == BIG
        assert math.fsum((BIG, 1.0, 1.0)) - acc > 1e-12

    def test_eligibility_follows_the_left_to_right_sum(self):
        """Machine 0's remaining pinned estimate is BIG left to right
        (BIG + 2 exactly), machine 1's is BIG: only the left-to-right value
        makes machine 0 eligible for the replicated task 0, which then
        outranks its own head (task 1)."""
        inst = _summation_instance()
        placement = _FixedPinned().place(inst)
        policy = PinnedAwarePolicy(pinned_tables(inst, placement))
        assert policy.select(0, SchedulerView(inst, placement)) == 0

    def test_kernel_equals_replay(self):
        # Unvalidated: at this magnitude a unit task's end rounds back to
        # its start, which the trace validator rejects as a wrong duration.
        inst = _summation_instance()
        strategy = _FixedPinned()
        plan = build_plan(strategy, inst)
        assert isinstance(plan, ReplayPlan)
        rows, refs = [], []
        for seed in range(4):
            realization = sample_realization(inst, "uniform", seed)
            rows.append(list(realization.actuals))
            refs.append(
                run_strategy(strategy, inst, realization, validate=False).makespan
            )
        assert sweep_makespans(plan, np.asarray(rows)).tolist() == refs


class _ReferencePinnedAware:
    """The per-event scan ``PinnedAwarePolicy.select`` ran before it kept
    queue heads: every call rescans the view, so it has no state an abort
    could leave stale.  Its ``sum()`` is spelled out left to right — the
    summation contract tested above — so this comparison isolates the
    head and abort bookkeeping."""

    def __init__(self, instance, placement):
        self._rank = {tid: pos for pos, tid in enumerate(instance.lpt_order())}
        self._estimates = instance.estimates
        self._pinned: dict[int, list[int]] = {}
        self._multi: list[int] = []
        for j in range(instance.n):
            machines = placement.machines_for(j)
            if len(machines) == 1:
                self._pinned.setdefault(next(iter(machines)), []).append(j)
            else:
                self._multi.append(j)
        for q in self._pinned.values():
            q.sort(key=lambda j: self._rank[j])
        self._multi.sort(key=lambda j: self._rank[j])
        self._placement = placement

    def _remaining_pinned(self, machine, view):
        acc = 0.0
        for j in self._pinned.get(machine, ()):
            if not view.is_started(j):
                acc += self._estimates[j]
        return acc

    def select(self, machine, view):
        own = None
        for j in self._pinned.get(machine, ()):
            if not view.is_started(j):
                own = j
                break
        cand = None
        for j in self._multi:
            if not view.is_started(j) and self._placement.allows(j, machine):
                cand = j
                break
        if cand is None:
            return own
        my_rem = self._remaining_pinned(machine, view)
        rivals = self._placement.machines_for(cand)
        min_rem = min(self._remaining_pinned(i, view) for i in rivals)
        if not my_rem <= min_rem + 1e-12:
            return own
        if own is None:
            return cand
        return cand if self._rank[cand] < self._rank[own] else own


def _outcome(placement, realization, policy, faults):
    try:
        trace = simulate(placement, realization, policy, faults=faults)
    except SimulationError as err:
        return ("error", str(err))
    return (trace.runs, trace.aborted)


class TestAbortEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from(
            ["selective[0.3,count]", "budgeted[B=20]", "risk_aware[0.4]",
             "capped[C=6]"]
        ),
        n=st.integers(min_value=6, max_value=16),
        m=st.sampled_from([2, 3, 4]),
        seed=st.integers(min_value=0, max_value=10_000),
        downtime=st.floats(min_value=0.1, max_value=20.0),
        stop_after=st.floats(min_value=0.0, max_value=30.0),
        data=st.data(),
    )
    def test_faulted_trace_matches_reference_scan(
        self, spec, n, m, seed, downtime, stop_after, data
    ):
        rng = random.Random(seed)
        inst = make_instance(
            [rng.uniform(0.2, 10.0) for _ in range(n)],
            m,
            2.0,
            sizes=[rng.uniform(0.05, 2.0) for _ in range(n)],
            name=f"abort{seed}",
        )
        strategy = make_strategy(spec)
        try:
            placement = build_placement(strategy, inst)
        except ValueError:
            return  # e.g. B < n: Phase 1 refuses the instance
        realization = sample_realization(inst, "uniform", seed + 1)
        tables = pinned_tables(inst, placement)
        clean = simulate(placement, realization, PinnedAwarePolicy(tables))
        pinned = [
            r for r in clean.runs
            if len(placement.machines_for(r.tid)) == 1 and r.end > r.start
        ]
        if not pinned:
            return
        # Crash the machine halfway through one of its pinned tasks, so
        # the abort reverts that task and the policy must re-derive heads.
        hit = data.draw(st.sampled_from(pinned))
        # Stop another machine for good, mostly after its own pinned queue
        # ran (else its pinned tasks are lost and both runs must fail alike).
        stopped = data.draw(st.sampled_from([i for i in range(m) if i != hit.machine]))
        own_end = max((r.end for r in pinned if r.machine == stopped), default=0.0)
        faults = FaultPlan.of(
            CrashRecover(hit.machine, (hit.start + hit.end) / 2, downtime),
            CrashStop(stopped, own_end + stop_after),
        )
        new = _outcome(placement, realization, PinnedAwarePolicy(tables), faults)
        ref = _outcome(placement, realization, _ReferencePinnedAware(inst, placement), faults)
        assert new == ref
        if new[0] != "error":
            assert new[1], "the crash-recover fault should abort a running task"


@st.composite
def _tied_placements(draw):
    """A small instance whose integral estimates tie often, and any
    placement of it (each task on a non-empty set of machines)."""
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=5))
    estimates = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n))
    sizes = draw(st.lists(st.sampled_from([0.0, 1.0, 4.0]), min_size=n, max_size=n))
    machines = st.frozensets(st.integers(min_value=0, max_value=m - 1), min_size=1)
    sets = draw(st.lists(machines, min_size=n, max_size=n))
    inst = make_instance(estimates, m, 1.5, sizes=sizes, name="tied")
    return Placement(inst, tuple(sets))


def _placement(estimates, m, sets):
    inst = make_instance(estimates, m, 1.5, sizes=[1.0] * len(estimates), name="edge")
    return Placement(inst, tuple(frozenset(s) for s in sets))


class TestRankOrder:
    def test_candidates_out_of_rank_order_are_refused(self):
        inst = _summation_instance()
        everywhere = Placement(inst, tuple(frozenset({0, 1}) for _ in range(inst.n)))
        tables = pinned_tables(inst, everywhere)
        assert len(tables.candidates) == inst.n
        PinnedAwarePolicy(tables)
        swapped = [tables.candidates[1], tables.candidates[0], *tables.candidates[2:]]
        with pytest.raises(ValueError, match="rank order"):
            PinnedAwarePolicy(tables._replace(candidates=swapped))

    @given(
        placement=_tied_placements(),
        delta=st.sampled_from([0.5, 1.0, 2.0]),
        barrier=st.booleans(),
    )
    @example(placement=_placement([2.0, 1.0], 4, [{0, 1}, {3}]), delta=1.0, barrier=True)
    @example(placement=_placement([1.0, 3.0, 2.0], 1, [{0}] * 3), delta=1.0, barrier=False)
    @example(
        placement=_placement([2.0] * 6, 3, [{0, 1, 2}, {1}, {0, 2}] * 2),
        delta=0.5,
        barrier=True,
    )
    def test_builders_list_candidates_in_rank_order(self, placement, delta, barrier):
        """``pinned_tables`` on any placement and ``abo_tables`` on ABO's,
        including n < m, m = 1 and exactly tied estimates."""
        inst = placement.instance
        for tables in (
            pinned_tables(inst, placement),
            abo_tables(inst, ABO(delta).place(inst), barrier),
        ):
            ranks = [tables.rank[j] for j in tables.candidates]
            assert ranks == sorted(ranks)
            assert PinnedAwarePolicy(tables).tables is tables
