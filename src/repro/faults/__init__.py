"""Deterministic fault injection for the device fleet.

See :mod:`repro.faults.injector` for the fault-type registry, the compact
``type:key=value,...`` spec grammar, and the keyed :class:`FaultInjector`
that turns a spec + seed into a reproducible fault timeline.
"""

from repro.faults.injector import (
    FaultEvent,
    FaultInjector,
    FaultProcess,
    KvPressure,
    LaneCrash,
    LinkDegrade,
    RetryPolicy,
    TransientStall,
    build_fault,
    check_lane_pins,
    fault_descriptions,
    list_faults,
    parse_fault_spec,
)

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultProcess",
    "KvPressure",
    "LaneCrash",
    "LinkDegrade",
    "RetryPolicy",
    "TransientStall",
    "build_fault",
    "check_lane_pins",
    "fault_descriptions",
    "list_faults",
    "parse_fault_spec",
]
