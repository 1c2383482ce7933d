"""Deterministic testing utilities (fault injection)."""

from .faults import (
    FaultPlan,
    FaultSpec,
    fault_point,
    inject,
    install,
    uninstall,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "fault_point",
    "inject",
    "install",
    "uninstall",
]
