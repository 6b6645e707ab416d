"""``FleetSpec``: every serving-policy axis of a fleet, declared once.

Scheduler, placement, pool shape, router, KV sharing, batching,
oversubscription, lateness, queue cap, faults and recovery are each one
field of the frozen :class:`FleetSpec`, declared with its default, its
validator, its help text and the hints the command line needs. The fleet
(:class:`~repro.core.fleet.TTSFleet`), ``run_trace``, the CLI's flags and
every :class:`~repro.core.fleet.FleetReport` carry that one object;
adding an axis is a field here plus the code that consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.config import check_axis
from repro.core.pool import PLACEMENTS
from repro.core.scheduler import SCHEDULERS
from repro.errors import ConfigError
from repro.faults import FAULTS, RetryPolicy, parse_fault_spec
from repro.hardware.device import DEVICES
from repro.routing.lanes import LaneSpec, parse_lane_list
from repro.routing.router import ROUTERS

__all__ = ["FleetSpec", "axis_flag"]


def _axis(default, help: str, check=None, **cli):
    """One serving axis: its default, help text, validator and CLI hints.

    ``check`` validates a set value and returns its canonical form
    (raising :class:`ConfigError`); an axis without one is a string enum
    checked against :data:`~repro.core.config.AXIS_CHOICES`. ``cli`` is
    what the command line needs beyond that: ``flag`` when it is not
    ``--<field-name>``, ``metavar``, ``type``, ``choices`` (a registry
    listing argparse enforces) and ``describe`` (registry descriptions
    appended to the help).
    """
    return field(default=default, metadata={"help": help, "check": check, **cli})


def _registered(registry):
    """Validator for a name in ``registry``; a prepared policy instance is
    recorded by its ``name``."""

    def check(policy) -> str:
        return registry.check(getattr(policy, "name", policy))

    return check


def _router_name(router) -> str:
    if router in (None, "off"):
        return "off"
    return _registered(ROUTERS)(router)


def _device_names(value) -> tuple[str, ...]:
    """``"a,b"`` or a sequence of names → a tuple of registered devices
    (duplicates are legal: ``rtx4090,rtx4090`` is two lanes of one card)."""
    names = [
        name.strip()
        for name in (value.split(",") if isinstance(value, str) else value)
    ]
    if not any(names):
        raise ConfigError("devices must name at least one device")
    if not all(names):
        raise ConfigError(f"devices has an empty entry in {value!r}")
    return tuple(DEVICES.check(name) for name in names)


def _lane_specs(value) -> tuple[LaneSpec, ...]:
    return tuple(parse_lane_list(value) if isinstance(value, str) else value)


def _queue_cap(value: int) -> int:
    if value < 1:
        raise ConfigError(f"max_in_flight must be >= 1 when set, got {value}")
    return value


def _fault_spec(value: str) -> str:
    parse_fault_spec(value)
    return value.strip() or "off"


@dataclass(frozen=True, slots=True)
class FleetSpec:
    """Every serving-policy axis of a fleet, declared once.

    The spec is the only thing that validates or carries serving policy:
    ``TTSFleet`` builds its pool, scheduler, placement and router from
    one, ``run_trace`` forwards one, the CLI's flags are generated from
    these fields, and a :class:`~repro.core.fleet.FleetReport` carries the
    one its fleet ran under. Every default reproduces
    ``fleet_fifo_goldens.json`` byte for byte. Values are canonicalised on
    construction (``devices`` and ``lanes`` accept their comma-separated
    CLI spellings, ``router=None`` means ``"off"``), so equal policies
    compare equal and ``dataclasses.asdict`` is JSON-ready.
    """

    scheduler: str = _axis(
        "fifo", "request-scheduling policy",
        _registered(SCHEDULERS), choices=SCHEDULERS.names,
    )
    placement: str = _axis(
        "first_fit", "how new requests spread across the device pool",
        _registered(PLACEMENTS), choices=PLACEMENTS.names,
    )
    devices: tuple[str, ...] | None = _axis(
        None,
        "comma-separated device pool (overrides --device), e.g. rtx4090,rtx4070ti; "
        "duplicates are legal (lane ids are index-suffixed)",
        _device_names, metavar="NAME[,NAME...]",
    )
    lanes: tuple[LaneSpec, ...] | None = _axis(
        None,
        "comma-separated heterogeneous lane specs MODEL@DEVICE[:DTYPE][:mem=FRACTION], "
        "e.g. 7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8 (excludes --devices)",
        _lane_specs, flag="--lane", metavar="SPEC[,SPEC...]",
    )
    router: str = _axis(
        "off",
        "difficulty-aware model router across lane classes ('off' keeps the "
        "routerless path)",
        _router_name, metavar="NAME", describe=ROUTERS.descriptions,
    )
    oversubscription: str = _axis(
        "swap",
        "KV contention policy: charge eviction/restore PCIe time (swap) or refuse "
        "admission (deny)",
    )
    kv_sharing: str = _axis(
        "off",
        "dedup KV prefix segments shared by co-resident sessions in each lane's "
        "ledger (off = whole-session accounting)",
    )
    batching: str = _axis(
        "off",
        "coalesce co-resident sessions' rounds into one jointly-costed batch per "
        "lane iteration (off = one session's round at a time)",
    )
    late_policy: str = _axis(
        "serve_late",
        "what happens when a queued request's deadline expires before it starts: "
        "serve it anyway (serve_late) or shed it (drop)",
    )
    max_in_flight: int | None = _axis(
        None, "admission-control cap on queued+running requests", _queue_cap, type=int
    )
    faults: str = _axis(
        "off",
        "fault-injection spec 'kind:key=value,...' (';'-separated clauses; 'off' "
        "disables); each clause fires once (at=) or as a Poisson process (rate=)",
        _fault_spec, metavar="SPEC", describe=FAULTS.descriptions,
    )
    recovery: str = _axis(
        "failover",
        "what a lane crash does to its in-flight requests: re-place on a healthy lane "
        "(failover), re-queue with exponential backoff (retry), or fail fast (shed)",
    )
    retry_budget: int = _axis(
        3,
        "max re-queues per request under --recovery retry before it is declared lost",
        lambda budget: RetryPolicy(budget=budget).budget, type=int,
    )

    def __post_init__(self) -> None:
        for axis in fields(self):
            value = _checked(axis, getattr(self, axis.name))
            object.__setattr__(self, axis.name, value)
        if self.lanes is not None and self.devices is not None:
            raise ConfigError(
                "lanes and devices are mutually exclusive; a lane spec "
                "already names its device"
            )

    @classmethod
    def from_args(cls, args, **overrides) -> "FleetSpec":
        """The spec ``repro.cli.add_fleet_flags``'s parsed flags describe.

        ``overrides`` win; an axis the subcommand omitted keeps its default.
        Each value is checked on its own first so the error names its flag.
        """
        values = {
            axis.name: getattr(args, axis.name)
            for axis in fields(cls) if hasattr(args, axis.name)
        } | overrides
        for axis in fields(cls):
            if axis.name in values:
                try:
                    values[axis.name] = _checked(axis, values[axis.name])
                except ConfigError as error:
                    raise ConfigError(f"{axis_flag(axis)}: {error}") from None
        return cls(**values)


def _checked(axis, value):
    """``value`` validated and canonicalised for one :class:`FleetSpec` field."""
    if value is None and axis.default is None:
        return None  # an optional axis left unset
    check = axis.metadata["check"]
    return check(value) if check else check_axis(axis.name, value)


def axis_flag(axis) -> str:
    """The command-line spelling of one :class:`FleetSpec` field."""
    return axis.metadata.get("flag") or "--" + axis.name.replace("_", "-")
