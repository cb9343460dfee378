"""Discrete-event cluster simulator: the Phase-2 executor."""

from repro.simulation.engine import SimulationError, simulate
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.gantt import render_gantt
from repro.simulation.kernel import EventKernel
from repro.simulation.trace import ScheduleTrace, TaskRun

__all__ = [
    "simulate",
    "SimulationError",
    "EventKernel",
    "ScheduleTrace",
    "TaskRun",
    "EventQueue",
    "Event",
    "EventKind",
    "render_gantt",
]
