"""No dead policy seams: every default a policy base offers, a policy overrides.

A public method with a default body on a policy base class is an
extension point the fleet calls through. When no registered policy
overrides it, the hop buys nothing: it is a second spelling of what the
fleet (or another policy) already decides, and every call pays for it.
Such a hook goes, or a registered policy that needs it comes with it.
Abstract methods (every policy implements them) and private helpers are
exempt.
"""

import inspect

import pytest

from repro.core.pool import PLACEMENTS, PlacementPolicy
from repro.core.scheduler import SCHEDULERS, RequestScheduler
from repro.routing.router import ROUTERS, RoutingPolicy

BASES = {
    "scheduler": (RequestScheduler, SCHEDULERS),
    "placement": (PlacementPolicy, PLACEMENTS),
    "router": (RoutingPolicy, ROUTERS),
}


def default_hooks(base) -> list[str]:
    """Public, non-abstract methods ``base`` itself defines."""
    return sorted(
        name for name, attr in vars(base).items()
        if inspect.isfunction(attr)
        and not name.startswith("_")
        and not getattr(attr, "__isabstractmethod__", False)
    )


@pytest.mark.parametrize("axis", sorted(BASES))
def test_every_default_hook_has_a_registered_override(axis):
    base, registry = BASES[axis]
    policies = [type(registry.build(name)) for name in registry.names()]
    assert policies and all(issubclass(cls, base) for cls in policies)
    dead = [
        hook for hook in default_hooks(base)
        if all(getattr(cls, hook) is getattr(base, hook) for cls in policies)
    ]
    assert dead == [], (
        f"{base.__name__} hooks no registered {axis} overrides: delete them, "
        "or register the policy that needs them"
    )


def test_the_scan_sees_hooks_and_skips_abstract_and_private_methods():
    assert "race_decided" in default_hooks(RequestScheduler)
    assert "pick" not in default_hooks(RequestScheduler)  # abstract
    assert "_prefer" not in default_hooks(RoutingPolicy)  # private helper
