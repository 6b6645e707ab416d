"""Heterogeneous lane specifications and the ``model@device[:dtype]`` grammar.

A :class:`LaneSpec` describes one pool lane as the *deployment* triple the
EdgeReasoning frontier varies — model pairing, device, and weight/KV dtype —
plus an optional per-lane memory fraction. The CLI grammar is::

    MODEL@DEVICE[:DTYPE][:mem=FRACTION]

e.g. ``7B+1.5B@rtx4090`` (a big-model lane at deployment dtype) or
``1.5B+1.5B@rtx4090:int8:mem=0.5`` (a quantized small-model lane capped at
half the card). Lanes in one pool may differ in every field; the pool only
requires a shared seed and dataset so answers stay content-keyed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.device import DEVICES
from repro.models.quantize import DTYPES, quantized
from repro.models.zoo import MODEL_CONFIGS, model_pair
from repro.utils.registry import did_you_mean

__all__ = ["LaneSpec", "parse_lane_list"]


@dataclass(frozen=True, slots=True)
class LaneSpec:
    """One heterogeneous pool lane: model pairing, device, dtype, KV budget.

    ``dtype=None`` deploys the pairing at its native dtype (fp16);
    ``memory_fraction=None`` inherits the fleet-wide fraction.
    """

    model_config: str
    device_name: str
    dtype: str | None = None
    memory_fraction: float | None = None

    def __post_init__(self) -> None:
        MODEL_CONFIGS.check(self.model_config)
        DEVICES.check(self.device_name)
        if self.dtype is not None:
            DTYPES.check(self.dtype)
        if self.memory_fraction is not None and not 0.0 < self.memory_fraction <= 1.0:
            raise ConfigError(
                f"lane memory fraction must be in (0, 1], got {self.memory_fraction}"
            )

    @property
    def label(self) -> str:
        """Round-trippable grammar form of this lane."""
        text = f"{self.model_config}@{self.device_name}"
        if self.dtype is not None:
            text += f":{self.dtype}"
        if self.memory_fraction is not None:
            text += f":mem={self.memory_fraction:g}"
        return text

    def models(self):
        """``(generator, verifier)`` specs after quantization to ``dtype``."""
        gen, ver = model_pair(self.model_config)
        if self.dtype is not None:
            gen, ver = quantized(gen, self.dtype), quantized(ver, self.dtype)
        return gen, ver

    @property
    def lane_class(self) -> str:
        """Metrics key shared by all lanes serving the same deployed models."""
        gen, ver = self.models()
        return f"{gen.name}+{ver.name}"

    @property
    def model_cost_bytes(self) -> int:
        """Deployed weight bytes of the pairing — the router's cost ordering."""
        gen, ver = self.models()
        return gen.weight_bytes + ver.weight_bytes

    @classmethod
    def parse(cls, text: str) -> "LaneSpec":
        """Parse one ``MODEL@DEVICE[:DTYPE][:mem=FRACTION]`` lane spec."""
        text = text.strip()
        if not text:
            raise ConfigError("lane spec must not be empty")
        if "@" not in text:
            raise ConfigError(
                f"lane spec {text!r} is missing '@'; expected "
                "MODEL@DEVICE[:DTYPE][:mem=FRACTION], e.g. '1.5B+1.5B@rtx4090:int8'"
            )
        model_config, _, rest = text.partition("@")
        parts = [p.strip() for p in rest.split(":")]
        device_name = parts[0]
        dtype: str | None = None
        memory_fraction: float | None = None
        for part in parts[1:]:
            if not part:
                raise ConfigError(f"lane spec {text!r} has an empty ':' option")
            if "=" in part:
                key, _, value = part.partition("=")
                if key != "mem":
                    raise ConfigError(
                        f"unknown lane option {key!r} in {text!r}; known options: "
                        f"mem{did_you_mean(key, ['mem'])}"
                    )
                if memory_fraction is not None:
                    raise ConfigError(f"lane spec {text!r} sets mem= twice")
                try:
                    memory_fraction = float(value)
                except ValueError:
                    raise ConfigError(
                        f"lane spec {text!r}: mem= expects a number, got {value!r}"
                    ) from None
            else:
                if dtype is not None:
                    raise ConfigError(f"lane spec {text!r} sets the dtype twice")
                dtype = part
        return cls(
            model_config=model_config.strip(),
            device_name=device_name,
            dtype=dtype,
            memory_fraction=memory_fraction,
        )


def parse_lane_list(spec: str) -> list[LaneSpec]:
    """Parse a comma-separated list of lane specs (at least one required)."""
    entries = [entry for entry in spec.split(",")]
    if any(not entry.strip() for entry in entries):
        raise ConfigError(f"lane list {spec!r} contains an empty entry")
    return [LaneSpec.parse(entry) for entry in entries]
