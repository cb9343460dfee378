"""Tests for the hardened experiment substrate (retry / timeout / quarantine).

Uses the deterministic cell-fault injector (:mod:`repro.faults.inject`)
to make grid cells fail on purpose, then asserts the substrate's
promises: transient failures retry to the bit-identical clean result,
poisoned cells quarantine as structured skips without aborting the
sweep, timeouts convert runaway cells into quarantines, and none of it
ever reaches the on-disk cache.
"""

from __future__ import annotations

import time

import pytest

import repro.analysis.ratios as ratios_module
from repro.analysis.cache import CellCache
from repro.analysis.experiment import ExperimentGrid, run_grid
from repro.analysis.parallel import (
    DEFAULT_RETRY,
    CellTimeout,
    RetryPolicy,
    enumerate_cells,
    run_cell_resilient,
)
from repro.core.strategies import LPTNoChoice, LPTNoRestriction
from repro.faults import inject
from repro.faults.inject import CellFaultSpec, InjectedFault
from repro.obs import MemorySink, observed, validate_record
from repro.workloads.generators import uniform_instance

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.0)


@pytest.fixture(autouse=True)
def _clean_injection():
    yield
    inject.reset()


def _grid(**overrides) -> ExperimentGrid:
    base = dict(
        strategies=[LPTNoChoice(), LPTNoRestriction()],
        instances=[uniform_instance(8, 2, alpha=1.5, seed=0)],
        realization_models=["log_uniform"],
        seeds=(0, 1),
        retry=FAST_RETRY,
    )
    base.update(overrides)
    return ExperimentGrid(**base)


class TestCellFaultSpec:
    def test_parse_round_trip(self):
        assert CellFaultSpec.parse("every=3,fails=1") == CellFaultSpec(every=3, fails=1)
        assert CellFaultSpec.parse("only=5,fails=-1") == CellFaultSpec(
            every=1, fails=-1, only=5
        )

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault-injection key"):
            CellFaultSpec.parse("evry=3")

    def test_parse_rejects_nonpositive_every(self):
        with pytest.raises(ValueError, match="every"):
            CellFaultSpec.parse("every=0")

    def test_targets(self):
        assert CellFaultSpec(every=3).targets(0)
        assert CellFaultSpec(every=3).targets(6)
        assert not CellFaultSpec(every=3).targets(4)
        assert CellFaultSpec(only=2).targets(2)
        assert not CellFaultSpec(only=2).targets(0)

    def test_check_fails_then_succeeds(self):
        inject.configure(CellFaultSpec(every=1, fails=2))
        with pytest.raises(InjectedFault):
            inject.check(0)
        with pytest.raises(InjectedFault):
            inject.check(0)
        inject.check(0)  # third attempt passes

    def test_poison_never_succeeds(self):
        inject.configure(CellFaultSpec(only=0, fails=-1))
        for _ in range(5):
            with pytest.raises(InjectedFault):
                inject.check(0)
        inject.check(1)  # untargeted cell is clean

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv(inject.ENV_VAR, "every=2,fails=1")
        assert inject.active_spec() == CellFaultSpec(every=2, fails=1)
        inject.configure(CellFaultSpec(only=9))
        assert inject.active_spec() == CellFaultSpec(only=9)  # configured wins

    def test_no_spec_is_a_noop(self):
        assert inject.active_spec() is None
        inject.check(0)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_attempts": 0}, "max_attempts"),
            ({"backoff_s": -1.0}, "backoff_s"),
            ({"timeout_s": -1.0}, "timeout_s"),
            ({"timeout_s": 0.0}, "timeout_s"),
            ({"timeout_s": float("nan")}, "timeout_s"),
            ({"timeout_s": float("inf")}, "timeout_s"),
            ({"backoff_s": float("inf")}, "backoff_s"),
            ({"backoff_s": float("nan")}, "backoff_s"),
        ],
    )
    def test_rejects_malformed(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RetryPolicy(**kwargs)

    def test_default_has_no_timeout(self):
        assert DEFAULT_RETRY.timeout_s is None
        assert DEFAULT_RETRY.max_attempts == 3


class TestTransientRetry:
    def test_records_bit_identical_to_clean_run(self):
        clean = _grid().run()
        inject.configure(CellFaultSpec(every=1, fails=1))
        grid = _grid()
        faulty = grid.run()
        assert faulty == clean
        assert grid.resilience == {"retries": 4, "timeouts": 0, "quarantined": 0}
        assert not grid.skipped

    def test_retry_events_are_schema_valid(self):
        inject.configure(CellFaultSpec(only=0, fails=1))
        with observed(MemorySink()) as tracer:
            _grid().run()
            retries = [
                ev for ev in tracer.sinks[0].events if ev.name == "grid.cell_retry"
            ]
        assert len(retries) == 1
        assert validate_record(retries[0].as_dict()) == []

    def test_exhaustion_quarantines_without_aborting(self):
        inject.configure(CellFaultSpec(only=2, fails=-1))
        grid = _grid()
        records = grid.run()
        assert len(records) == 3  # the other cells completed
        (skip,) = grid.skipped
        assert skip.kind == "quarantined"
        assert skip.attempts == FAST_RETRY.max_attempts
        assert "InjectedFault" in skip.error
        assert grid.resilience["quarantined"] == 1
        assert grid.resilience["retries"] == FAST_RETRY.max_attempts - 1

    def test_manifest_carries_resilience(self):
        inject.configure(CellFaultSpec(only=0, fails=1))
        with observed(MemorySink()) as tracer:
            _grid().run()
            manifests = [
                ev
                for ev in tracer.sinks[0].events
                if ev.kind == "manifest" and ev.name == "grid"
            ]
        assert manifests[-1].payload["params"]["resilience"] == {
            "retries": 1, "timeouts": 0, "quarantined": 0,
        }

    def test_parallel_env_injection_matches_serial_clean(self, monkeypatch):
        clean = _grid().run()
        monkeypatch.setenv(inject.ENV_VAR, "every=2,fails=1")
        faulty = run_grid(
            [LPTNoChoice(), LPTNoRestriction()],
            [uniform_instance(8, 2, alpha=1.5, seed=0)],
            ["log_uniform"],
            seeds=(0, 1),
            workers=2,
            retry=FAST_RETRY,
        )
        assert faulty == clean


class TestTimeouts:
    def test_runaway_cell_is_quarantined(self, monkeypatch):
        def _slow(*args, **kwargs):
            time.sleep(0.25)
            raise AssertionError("timed-out attempt must not be used")

        monkeypatch.setattr(ratios_module, "run_strategy", _slow)
        (spec,) = enumerate_cells(
            [LPTNoChoice()], [uniform_instance(8, 2, alpha=1.5, seed=0)],
            ["log_uniform"], [0], 22,
        )
        retry = RetryPolicy(max_attempts=2, backoff_s=0.0, timeout_s=0.02)
        outcome = run_cell_resilient(spec, retry=retry)
        assert outcome.skipped is not None
        assert outcome.skipped.kind == "quarantined"
        assert outcome.timed_out == 2
        assert "CellTimeout" in outcome.skipped.error

    def test_fast_cell_unaffected_by_timeout(self):
        (spec,) = enumerate_cells(
            [LPTNoChoice()], [uniform_instance(8, 2, alpha=1.5, seed=0)],
            ["log_uniform"], [0], 22,
        )
        outcome = run_cell_resilient(
            spec, retry=RetryPolicy(max_attempts=2, backoff_s=0.0, timeout_s=30.0)
        )
        assert outcome.record is not None
        assert outcome.attempts == 1 and outcome.timed_out == 0

    def test_cell_timeout_is_a_runtime_error(self):
        assert issubclass(CellTimeout, RuntimeError)


class TestCacheInteraction:
    def test_quarantined_outcome_never_cached(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        inject.configure(CellFaultSpec(only=1, fails=-1))
        grid = _grid(cache=cache)
        first = grid.run()
        assert len(first) == 3
        assert cache.stores == 3  # the quarantined cell was refused

        # With the poison gone, a warm rerun recomputes exactly that cell.
        inject.reset()
        warm_cache = CellCache(tmp_path / "cache")
        warm_grid = _grid(cache=warm_cache)
        warm = warm_grid.run()
        assert len(warm) == 4
        assert not warm_grid.skipped
        assert (warm_cache.hits, warm_cache.misses) == (3, 1)

    def test_transient_retry_result_is_cached_normally(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        inject.configure(CellFaultSpec(every=1, fails=1))
        _grid(cache=cache).run()
        assert cache.stores == 4
        inject.reset()
        warm_cache = CellCache(tmp_path / "cache")
        clean = _grid().run()
        assert _grid(cache=warm_cache).run() == clean
        assert warm_cache.hits == 4
