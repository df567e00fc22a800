"""Discrete-event stream/kernel simulator."""

from .engine import SimTask, TaskRecord, Timeline, simulate

__all__ = ["SimTask", "TaskRecord", "Timeline", "simulate"]
