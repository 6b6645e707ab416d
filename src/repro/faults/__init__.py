"""Deterministic fault injection for the device fleet.

See :mod:`repro.faults.injector` for the fault-type registry, the compact
``type:key=value,...`` spec grammar, and the keyed :class:`FaultInjector`
that turns a spec + seed into a reproducible fault timeline.
"""

from repro.faults.injector import (
    FAULTS,
    FaultEvent,
    FaultInjector,
    FaultProcess,
    KvPressure,
    LaneCrash,
    LinkDegrade,
    RetryPolicy,
    TransientStall,
    check_lane_pins,
    parse_fault_spec,
)

__all__ = [
    "FAULTS",
    "FaultEvent",
    "FaultInjector",
    "FaultProcess",
    "KvPressure",
    "LaneCrash",
    "LinkDegrade",
    "RetryPolicy",
    "TransientStall",
    "check_lane_pins",
    "parse_fault_spec",
]
