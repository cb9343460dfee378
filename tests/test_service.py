"""The service core: admission, placement, dispatch, kernel equivalence."""

import math

import pytest

from repro.core.model import make_instance
from repro.obs import MemorySink, observed
from repro.registry import CapabilityError, make_strategy
from repro.service import (
    AdmissionError,
    OnlinePlacer,
    ServiceScheduler,
    TaskState,
    decode_page_token,
    encode_page_token,
)
from repro.simulation.engine import simulate
from repro.uncertainty.realization import Realization


def test_admission_places_and_dispatches_immediately():
    sched = ServiceScheduler("ls_group[k=2]", m=4, alpha=1.5, seed=1)
    record, created = sched.admit("a", 2.0)
    assert created
    assert record.state is TaskState.RUNNING
    assert record.machine in record.machines
    assert len(record.machines) == 2  # m/k replicas


def test_idempotency_duplicate_key_returns_same_decision():
    sched = ServiceScheduler("ls_group[k=2]", m=4, seed=1)
    first, created1 = sched.admit("a", 2.0, key="retry-1")
    second, created2 = sched.admit("a", 2.0, key="retry-1")
    assert created1 and not created2
    assert first is second
    assert len(sched.records) == 1
    assert sched.deduplicated == 1
    # A different key admits a fresh task even with identical parameters.
    third, created3 = sched.admit("a", 2.0, key="retry-2")
    assert created3 and third.tid == 1


def test_idempotent_replay_wins_even_while_draining():
    sched = ServiceScheduler("lpt_no_choice", m=2, seed=0)
    record, _ = sched.admit("a", 1.0, key="k")
    sched.begin_drain()
    replay, created = sched.admit("a", 1.0, key="k")
    assert replay is record and not created
    with pytest.raises(AdmissionError) as err:
        sched.admit("a", 1.0, key="fresh")
    assert err.value.code == "draining"


def test_admission_validation():
    sched = ServiceScheduler("lpt_no_restriction", m=2)
    for bad in (0.0, -1.0, float("nan"), float("inf"), "3", None, True):
        with pytest.raises(AdmissionError):
            sched.admit("a", bad)
    for bad in (-2.0, float("nan"), float("inf"), "big", None, [1.0], {"x": 1}, True):
        with pytest.raises(AdmissionError) as err:
            sched.admit("a", 1.0, size=bad)
        assert err.value.code == "bad_size"


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_non_finite_alpha_rejected(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        ServiceScheduler("ls_group[k=2]", m=4, alpha=alpha)


def test_negative_seed_rejected():
    """The duration draws key a NumPy generator on the seed, which must
    be >= 0: refuse it up front instead of failing every admission."""
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ServiceScheduler("ls_group[k=2]", m=4, seed=-1)


def test_capability_gate_rejects_non_batch_strategies():
    with pytest.raises(CapabilityError):
        OnlinePlacer("sabo[delta=0.5]", 4)


def test_group_count_must_divide_machines():
    with pytest.raises(ValueError):
        OnlinePlacer("ls_group[k=3]", 4)


def test_placer_structure_matches_family():
    assert OnlinePlacer("lpt_no_choice", 4).groups == ((0,), (1,), (2,), (3,))
    assert OnlinePlacer("lpt_no_restriction", 4).groups == ((0, 1, 2, 3),)
    assert OnlinePlacer("ls_group[k=2]", 4).groups == ((0, 1), (2, 3))
    assert OnlinePlacer("ls_group[k=2]", 4).replication == 2


def test_drain_completes_every_admitted_task():
    sched = ServiceScheduler("ls_group[k=2]", m=4, alpha=2.0, seed=3)
    for j in range(25):
        sched.admit(f"tenant-{j % 5}", 0.5 + 0.1 * j)
    sched.begin_drain()
    sched.drain()
    assert sched.queued == 0 and not sched.busy
    assert sched.completed == 25
    assert all(r.state is TaskState.DONE for r in sched.records)
    # The semi-clairvoyant reveal: every actual is inside the alpha-band.
    for r in sched.records:
        assert r.estimate / 2.0 - 1e-12 <= r.actual <= 2.0 * r.estimate + 1e-12


def test_batch_drain_is_bit_identical_to_offline_kernel():
    """Admitting a batch then draining IS the offline two-phase run.

    Same Phase-1 arithmetic (greedy heap over estimates), same Phase-2
    scan (FixedOrderPolicy over input order), same same-instant event
    semantics — so machines, starts, and ends match float for float.

    Only the input-order family qualifies: the LPT variants sort before
    placing offline, which an online admission path cannot do (the
    documented degradation in ``repro.service.placement``).  ``k=1`` and
    ``k=m`` cover the no-restriction and no-choice replication endpoints
    of the same structure.
    """
    estimates = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 0.9, 7.9, 2.3, 8.4]
    m, alpha, seed = 4, 1.5, 11
    for spec in ("ls_group[k=1]", "ls_group[k=2]", "ls_group[k=4]"):
        sched = ServiceScheduler(spec, m=m, alpha=alpha, model="log_uniform", seed=seed)
        records = [sched.admit("batch", e)[0] for e in estimates]
        sched.drain()

        instance = make_instance(estimates, m, alpha)
        strategy = make_strategy(spec)
        placement = strategy.place(instance)
        realization = Realization(
            instance, tuple(r.actual for r in records), label="service-drawn"
        )
        trace = simulate(placement, realization, strategy.make_policy(instance, placement))

        for j, record in enumerate(records):
            run = trace.runs[j]
            assert placement.machine_sets[j] == frozenset(record.machines)
            assert run.machine == record.machine
            assert run.start == record.started_at
            assert run.end == record.finished_at
        assert trace.makespan == sched.clock


def test_same_instant_completions_reveal_before_any_dispatch():
    """The kernel's same-instant rule holds in the service event stream.

    Two machines finish at exactly t=2.0 with two tasks still queued:
    both ``service.complete`` events must precede both
    ``service.dispatch`` events at that instant.
    """
    sink = MemorySink()
    with observed(sink):
        sched = ServiceScheduler("lpt_no_choice", m=2, alpha=1.0, model="truthful")
        sched.admit("a", 2.0)  # machine 0, ends at 2.0
        sched.admit("a", 2.0)  # machine 1, ends at 2.0
        sched.admit("a", 1.0)  # queued behind both
        sched.admit("a", 1.0)  # queued behind both
        sched.drain()
    stream = [
        (e.name, e.payload["t"], e.payload["task"])
        for e in sink.events
        if e.kind == "event" and e.name in ("service.dispatch", "service.complete")
    ]
    at_two = [(name, task) for name, t, task in stream if t == 2.0]
    assert at_two == [
        ("service.complete", 0),
        ("service.complete", 1),
        ("service.dispatch", 2),
        ("service.dispatch", 3),
    ]


def test_truthful_model_and_alpha_one_are_exact():
    sched = ServiceScheduler("lpt_no_restriction", m=2, alpha=1.0)
    record, _ = sched.admit("a", 3.5)
    sched.drain()
    assert record.actual == 3.5
    assert record.finished_at == 3.5


def test_duration_draws_are_order_independent():
    a = ServiceScheduler("lpt_no_choice", m=2, alpha=2.0, seed=5)
    b = ServiceScheduler("lpt_no_choice", m=2, alpha=2.0, seed=5)
    a.admit("x", 1.0)
    a.admit("x", 2.0)
    b.admit("x", 1.0)
    b.admit("x", 2.0)
    a.drain()
    b.drain()
    assert [r.actual for r in a.records] == [r.actual for r in b.records]


def test_record_json_hides_actual_until_done():
    sched = ServiceScheduler("lpt_no_choice", m=1, alpha=1.5, seed=2)
    running, _ = sched.admit("a", 1.0)
    queued, _ = sched.admit("a", 1.0)
    assert queued.state is TaskState.QUEUED
    assert "machine" not in queued.as_dict()
    body = running.as_dict()
    assert body["state"] == "running" and "actual" not in body
    sched.drain()
    done = running.as_dict()
    assert done["state"] == "done"
    assert math.isfinite(done["actual"]) and math.isfinite(done["finished_at"])


def test_pagination_walks_every_task_exactly_once():
    sched = ServiceScheduler("ls_group[k=2]", m=4)
    for j in range(23):
        sched.admit("a", 1.0 + j)
    seen: list[int] = []
    token: str | None = None
    pages = 0
    while True:
        cursor = decode_page_token(token) if token else 0
        records, token = sched.page(cursor, limit=5)
        seen.extend(r.tid for r in records)
        pages += 1
        if token is None:
            break
    assert seen == list(range(23))
    assert pages == 5


def test_page_tokens_are_opaque_and_checked():
    assert decode_page_token(encode_page_token(17)) == 17
    for bad in ("zzz", "", "Y3Vyc29yOg==", encode_page_token(3)[:-4] + "!!!!"):
        with pytest.raises(AdmissionError) as err:
            decode_page_token(bad)
        assert err.value.code == "bad_page_token"


def test_stats_shape():
    sched = ServiceScheduler("ls_group[k=2]", m=4, alpha=1.5, seed=0)
    sched.admit("a", 1.0)
    stats = sched.stats()
    assert stats["strategy"] == "ls_group[k=2]"
    assert stats["machines"] == 4 and stats["groups"] == 2
    assert stats["admitted"] == 1 and stats["running"] == 1
    assert stats["queued"] == 0 and not stats["draining"]
