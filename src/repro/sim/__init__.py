"""Discrete-event simulation kernel: clock, events, processes, cores, RNG."""

from .engine import Event, Handle, Process, Simulator, Timeout
from .resources import Core, CoreSet
from .rng import RngTree

__all__ = [
    "Event",
    "Handle",
    "Process",
    "Simulator",
    "Timeout",
    "Core",
    "CoreSet",
    "RngTree",
]
