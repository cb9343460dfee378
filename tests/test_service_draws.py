"""The service's duration draws: one generator call per block of task ids."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos.soak import _ARRIVAL_STREAM
from repro.service.scheduler import _DURATION_STREAM, DRAW_BLOCK, ServiceScheduler

MODELS = ["log_uniform", "bimodal_extreme"]


def _factors(seed: int, model: str, tids) -> list[float]:
    sched = ServiceScheduler("lpt_no_choice", m=2, alpha=2.0, seed=seed, model=model)
    return [sched._draw_actual(tid, 1.0) for tid in tids]


@pytest.mark.parametrize("model", MODELS)
def test_a_draw_is_a_function_of_seed_and_tid(model):
    tids = range(3 * DRAW_BLOCK + 5)
    forward = _factors(7, model, tids)
    # Backwards, every admission leaves its block: the cache never helps.
    backward = _factors(7, model, reversed(tids))[::-1]
    assert forward == backward
    assert _factors(8, model, tids) != forward


@pytest.mark.parametrize("model", MODELS)
def test_draws_stay_inside_the_alpha_band(model):
    factors = _factors(3, model, range(2 * DRAW_BLOCK))
    if model == "bimodal_extreme":
        assert set(factors) == {2.0, 0.5}
    else:
        assert all(0.5 <= f <= 2.0 for f in factors)
        assert min(factors) < 0.6 and max(factors) > 1.9


@pytest.mark.parametrize("model", MODELS)
def test_block_factors_match_a_scalar_loop(model):
    u = np.random.default_rng([5, _DURATION_STREAM, 1]).random(DRAW_BLOCK).tolist()
    if model == "bimodal_extreme":
        want = [2.0 if x < 0.5 else 0.5 for x in u]
    else:
        want = [2.0 ** (-1.0 + 2.0 * x) for x in u]
    got = _factors(5, model, range(DRAW_BLOCK, 2 * DRAW_BLOCK))
    assert got == pytest.approx(want, rel=1e-15, abs=0)


def test_truthful_and_alpha_one_draw_nothing():
    truthful = ServiceScheduler("lpt_no_choice", m=2, alpha=2.0, model="truthful")
    assert truthful._draw_actual(300, 1.25) == 1.25
    flat = ServiceScheduler("lpt_no_choice", m=2, alpha=1.0)
    assert flat._draw_actual(300, 1.25) == 1.25


def test_duration_keys_share_no_stream_with_loadgen_or_the_soak():
    # Loadgen's tenant i draws from [seed, i], the soak's arrivals from
    # [seed, _ARRIVAL_STREAM]; SeedSequence pads short keys with zeros.
    def state(key):
        return tuple(np.random.SeedSequence(key).generate_state(4))

    for seed in (0, 1, 12345):
        ours = {state([seed, _DURATION_STREAM, block]) for block in range(4)}
        words = (_DURATION_STREAM & 0xFFFFFFFF, _DURATION_STREAM >> 32)
        theirs = {state([seed, i]) for i in (*range(4), *words, _ARRIVAL_STREAM)}
        assert not ours & theirs
