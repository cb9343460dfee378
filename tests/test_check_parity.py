"""The one-pass checks reject exactly what the element-by-element loops did.

``check_times``, ``Realization`` and ``Placement`` accept valid input in
one pass and fall back to a per-element loop only to raise.  The
``_loop_*`` oracles below are those loops as they stood before the fast
paths; every bad input must give the same exception type and message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro._validation import check_finite, check_positive_float, check_times
from repro.core.model import make_instance
from repro.core.placement import Placement
from repro.uncertainty.realization import Realization

INSTANCE = make_instance([2.0, 3.0, 5.0], 2, 1.5)


def _loop_check_times(times, name="processing times"):
    out = [check_finite(t, f"{name}[{i}]") for i, t in enumerate(times)]
    if not out:
        raise ValueError(f"{name} must be non-empty")
    for i, t in enumerate(out):
        if t <= 0.0:
            raise ValueError(f"{name}[{i}] must be > 0, got {t}")
    return out


def _loop_realization(inst, actuals):
    if len(actuals) != inst.n:
        raise ValueError(f"realization must cover all {inst.n} tasks, got {len(actuals)} values")
    for j, p in enumerate(actuals):
        check_positive_float(p, f"actuals[{j}]")
        if not inst.tasks[j].admits(p, inst.alpha):
            lo, hi = inst.tasks[j].bounds(inst.alpha)
            raise ValueError(
                f"actuals[{j}]={p} violates the alpha-band "
                f"[{lo}, {hi}] of estimate {inst.tasks[j].estimate} "
                f"(alpha={inst.alpha})"
            )


def _loop_placement(inst, machine_sets):
    if len(machine_sets) != inst.n:
        raise ValueError(f"placement must cover all {inst.n} tasks, got {len(machine_sets)}")
    for j, ms in enumerate(machine_sets):
        if not isinstance(ms, frozenset):
            raise TypeError(f"machine_sets[{j}] must be a frozenset, got {type(ms).__name__}")
        if not ms:
            raise ValueError(f"task {j} has an empty machine set — it could never run")
        for i in ms:
            if not 0 <= i < inst.m:
                raise ValueError(f"machine_sets[{j}] contains machine {i}, outside 0..{inst.m - 1}")


def _outcome(fn, *args):
    """``(type, message)`` of what ``fn`` raises, or ``None``."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - comparing whatever is raised
        return type(exc), str(exc)
    return None


BAD_VALUES = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "zero": 0.0,
    "negative": -1.5,
}

#: Each bad input as a list, as a one-shot generator and as numpy scalars.
FORMS = {
    "list": lambda values: list(values),
    "generator": lambda values: (v for v in values),
    "numpy": lambda values: [np.float64(v) for v in values],
}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("bad", [*BAD_VALUES, "empty"])
def test_check_times_rejects_like_the_loop(bad, form):
    values = [] if bad == "empty" else [1.0, BAD_VALUES[bad], 2.0]
    make = FORMS[form]
    expected = _outcome(_loop_check_times, make(values))
    assert expected is not None
    assert _outcome(check_times, make(values)) == expected


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("bad", [*BAD_VALUES, "empty"])
def test_realization_rejects_like_the_loop(bad, form):
    values = [] if bad == "empty" else [2.0, BAD_VALUES[bad], 5.0]
    make = FORMS[form]
    expected = _outcome(_loop_realization, INSTANCE, make(values))
    assert expected is not None
    assert _outcome(Realization, INSTANCE, make(values)) == expected


def _band_edges():
    a = INSTANCE.alpha
    return [(t.estimate / a, t.estimate * a) for t in INSTANCE.tasks]


@pytest.mark.parametrize("edge", ["low", "high"])
@pytest.mark.parametrize("task", [0, 2])
def test_realization_band_edge(task, edge):
    """1e-8 (relative) past a band edge is rejected like the loop; 1e-10
    past it is inside the 1e-9 slack and still accepted."""
    lo, hi = _band_edges()[task]
    sign = -1.0 if edge == "low" else 1.0
    base = lo if edge == "low" else hi
    for rel, rejected in ((1e-8, True), (1e-10, False)):
        actuals = [t.estimate for t in INSTANCE.tasks]
        actuals[task] = base * (1.0 + sign * rel)
        expected = _outcome(_loop_realization, INSTANCE, actuals)
        assert (expected is not None) == rejected
        assert _outcome(Realization, INSTANCE, tuple(actuals)) == expected


SHARED = frozenset({0, 1})
WIDE = frozenset({1, 2})  # holds machine m = 2
PLACEMENTS = {
    "machine m": (SHARED, frozenset({2}), SHARED),
    "machine m in a shared set": (frozenset({0}), WIDE, WIDE),
    "negative machine": (SHARED, SHARED, frozenset({-1})),
    "empty set": (SHARED, frozenset(), SHARED),
    "plain set": (SHARED, SHARED, {0}),
    "too few sets": (SHARED, SHARED),
}


@pytest.mark.parametrize("sets", PLACEMENTS.values(), ids=PLACEMENTS.keys())
def test_placement_rejects_like_the_loop(sets):
    expected = _outcome(_loop_placement, INSTANCE, sets)
    assert expected is not None
    assert _outcome(Placement, INSTANCE, sets) == expected
