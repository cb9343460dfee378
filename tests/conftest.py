"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from repro.core.model import Instance, make_instance

# Default hypothesis profile: modest example counts so the full suite stays
# fast.  Set REPRO_THOROUGH=1 (e.g. nightly CI) for a 10x deeper sweep of
# every property test.
settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("thorough" if os.environ.get("REPRO_THOROUGH") else "default")


# ---------------------------------------------------------------------------
# Hypothesis strategies for instances/realizations
# ---------------------------------------------------------------------------

def estimates_strategy(min_n: int = 1, max_n: int = 12) -> st.SearchStrategy[list[float]]:
    """Lists of well-behaved positive estimates."""
    return st.lists(
        st.floats(min_value=0.1, max_value=100.0, allow_nan=False, allow_infinity=False),
        min_size=min_n,
        max_size=max_n,
    )


@st.composite
def instances(
    draw: st.DrawFn,
    *,
    min_n: int = 1,
    max_n: int = 12,
    max_m: int = 5,
    alphas: tuple[float, ...] = (1.0, 1.2, 1.5, 2.0, 3.0),
) -> Instance:
    """Random small instances (estimates, m, alpha)."""
    ests = draw(estimates_strategy(min_n, max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    alpha = draw(st.sampled_from(alphas))
    return make_instance(ests, m, alpha)


@st.composite
def sized_instances(
    draw: st.DrawFn,
    *,
    min_n: int = 1,
    max_n: int = 12,
    max_m: int = 5,
) -> Instance:
    """Random small instances with memory sizes."""
    inst = draw(instances(min_n=min_n, max_n=max_n, max_m=max_m))
    sizes = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=inst.n,
            max_size=inst.n,
        )
    )
    return inst.with_sizes(sizes)


@st.composite
def factor_vectors(draw: st.DrawFn, instance: Instance) -> list[float]:
    """Admissible factor vectors for a given instance."""
    a = instance.alpha
    return draw(
        st.lists(
            st.floats(min_value=1.0 / a, max_value=a, allow_nan=False),
            min_size=instance.n,
            max_size=instance.n,
        )
    )


# ---------------------------------------------------------------------------
# Plain fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def small_instance() -> Instance:
    """A hand-checkable 6-task, 2-machine instance with alpha=1.5."""
    return make_instance([5.0, 4.0, 3.0, 3.0, 2.0, 1.0], m=2, alpha=1.5)


@pytest.fixture
def sized_instance() -> Instance:
    """A small memory-aware instance (times and sizes)."""
    return make_instance(
        [8.0, 7.0, 2.0, 1.5, 1.0, 1.0],
        m=3,
        alpha=1.4,
        sizes=[1.0, 0.5, 6.0, 5.0, 4.0, 4.0],
    )


# ---------------------------------------------------------------------------
# Fresh interpreters
# ---------------------------------------------------------------------------

def _checkout_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on the path."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_python(code: str, cwd: Path | None = None) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout.

    For what only a new process shows: which modules an import loads, or
    an order that depends on which module was imported first.
    """
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=_checkout_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_cli(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` in a fresh interpreter on this checkout,
    stderr captured as text; a command still running after a minute is
    killed and fails the test."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=_checkout_env(),
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        **kwargs,
    )
