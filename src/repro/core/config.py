"""Server configuration: one dataclass, every optimization a switch.

FastTTS and the vLLM-style baseline are the *same* serving loop with
different switches, which is what makes the ablation study (Fig. 16) and
the algorithmic-equivalence tests meaningful: flipping a switch changes
timing, never search results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum

from repro.errors import ConfigError
from repro.utils.registry import did_you_mean

__all__ = [
    "AXIS_CHOICES",
    "OffloadMode",
    "ServerConfig",
    "baseline_config",
    "check_axis",
    "fasttts_config",
]

#: Allowed values of the fleet's string-enum serving axes, default first.
#: :class:`~repro.core.fleet_spec.FleetSpec`, the pool's lanes and the CLI's
#: ``choices=`` all read this one table.
AXIS_CHOICES: dict[str, tuple[str, ...]] = {
    "oversubscription": ("swap", "deny"),
    "kv_sharing": ("off", "prefix"),
    "batching": ("off", "continuous"),
    "late_policy": ("serve_late", "drop"),
    "recovery": ("failover", "retry", "shed"),
}


def check_axis(axis: str, value: str) -> str:
    """Return ``value`` if ``axis`` allows it, else raise naming the choices."""
    choices = AXIS_CHOICES[axis]
    if value not in choices:
        *head, last = (repr(choice) for choice in choices)
        raise ConfigError(
            f"{axis} must be {', '.join(head)} or {last}, got {value!r}"
        )
    return value


class OffloadMode(str, Enum):
    """KV offloading strategy selection (paper Sec. 4.3.2)."""

    OFF = "off"      # never offload
    AUTO = "auto"    # allocator picks the lower-latency strategy
    FORCE = "force"  # always offload (for ablations)


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Full configuration of one serving system instance.

    Attributes
    ----------
    device_name / model_config:
        Hardware and the paper's generator+verifier pairing
        (``"1.5B+1.5B"``, ``"1.5B+7B"``, ``"7B+1.5B"``).
    memory_fraction:
        Fraction of the device's usable VRAM handed to this system; the
        paper uses 0.9 for the heavy configs and 0.4 for the
        memory-constrained 1.5B+1.5B setting.
    speculation:
        Speculative Beam Extension (S).
    prefix_caching:
        Whether KV survives across engine calls (vLLM's automatic prefix
        caching). The Sec. 6.1 baseline follows HuggingFace's
        search-and-learn, which leaves it off — every TTS iteration
        re-prefills full contexts. FastTTS requires it.
    prefix_aware:
        Dynamic Prefix-Aware Scheduling (P); only meaningful with
        ``prefix_caching`` on.
    asymmetric_alloc:
        Asymmetric Multi-Model Memory Allocation (M). Off means a static
        50/50 KV split, as two independent vLLM instances would get.
    lookahead:
        LookAhead Verification (needs speculation to have any effect).
    spec_truncation_ratio:
        The paper's R: the mean fraction of speculative tokens a duplicated
        beam retains (the original always keeps everything).
    offload:
        KV offloading policy for extremely constrained devices.
    """

    device_name: str = "rtx4090"
    model_config: str = "1.5B+1.5B"
    memory_fraction: float = 0.9
    seed: int = 0
    speculation: bool = False
    prefix_caching: bool = False
    prefix_aware: bool = False
    asymmetric_alloc: bool = False
    lookahead: bool = False
    spec_truncation_ratio: float = 0.85
    spec_bandwidth_fraction: float = 0.25
    offload: OffloadMode = OffloadMode.OFF
    quantization: str | None = None  # e.g. "int8"; None = fp16 deployment
    block_tokens: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.memory_fraction <= 1.0:
            raise ConfigError("memory_fraction must be in (0, 1]")
        if not 0.0 <= self.spec_truncation_ratio <= 1.0:
            raise ConfigError("spec_truncation_ratio must be in [0, 1]")
        if not 0.0 < self.spec_bandwidth_fraction < math.inf:
            raise ConfigError("spec_bandwidth_fraction must be positive and finite")
        if self.block_tokens <= 0:
            raise ConfigError("block_tokens must be positive")
        if self.lookahead and not self.speculation:
            raise ConfigError("lookahead verification requires speculation")
        if self.prefix_aware and not self.prefix_caching:
            raise ConfigError("prefix-aware scheduling requires prefix caching")
        if self.speculation and not self.prefix_caching:
            raise ConfigError(
                "speculative beam extension stores head starts in the prefix "
                "cache and requires prefix caching"
            )

    def with_overrides(self, **kwargs) -> "ServerConfig":
        """Functional update (configs are frozen).

        Unknown keys raise :class:`ConfigError` naming the offender (and
        suggesting the nearest known key), rather than surfacing dataclass
        internals as a raw ``TypeError``.
        """
        known = {f.name for f in fields(self)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            labelled = ", ".join(
                f"{key}{did_you_mean(key, known)}" for key in unknown
            )
            raise ConfigError(f"unknown ServerConfig key(s): {labelled}")
        return replace(self, **kwargs)


def baseline_config(**overrides) -> ServerConfig:
    """The naive-but-robust vLLM baseline of Sec. 6.1: all switches off."""
    return ServerConfig(**overrides)


def fasttts_config(**overrides) -> ServerConfig:
    """FastTTS with all three optimizations (plus lookahead) enabled."""
    defaults = dict(
        speculation=True,
        prefix_caching=True,
        prefix_aware=True,
        asymmetric_alloc=True,
        lookahead=True,
        offload=OffloadMode.AUTO,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)
