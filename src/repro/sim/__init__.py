"""Discrete-event simulation substrate.

This package provides the deterministic discrete-event engine every other
subsystem runs on: a schedulable event loop (:class:`~repro.sim.engine.Simulator`),
cancellable one-shot and periodic timers, and named seeded random-number
streams.

The engine is deliberately dependency-free and favours a small, explicit
API over magic: callbacks are plain callables, time is a float number of
seconds, and determinism comes from a single master seed fanned out into
named streams (see :class:`~repro.sim.rng.RngRegistry`).
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.rng import RngRegistry
from repro.sim.timers import OneShotTimer, PeriodicTimer

__all__ = [
    "EventHandle",
    "OneShotTimer",
    "PeriodicTimer",
    "RngRegistry",
    "Simulator",
]
