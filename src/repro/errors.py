"""Exception hierarchy for the FastTTS reproduction.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single except clause while still
letting programming errors (``TypeError``, ``ValueError`` from misuse of the
standard library) propagate unchanged. A bad name or value from the user is a
:class:`ConfigError`; an unknown name in any of the library's name tables
(:class:`~repro.utils.registry.Registry`) is its :class:`UnknownNameError`,
and weights that cannot fit are its :class:`DeploymentError`, so the CLI
reports each as one ``error:`` line and exit status 2.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class CapacityError(ReproError):
    """A memory pool or batch could not satisfy an allocation request."""


class SchedulingError(ReproError):
    """The scheduler was driven into an inconsistent state."""


class FaultError(ReproError):
    """A fault-injection operation was applied to a lane in the wrong state."""


class RetryExhaustedError(FaultError):
    """A request's per-request retry budget was spent without a completion."""


class UnknownNameError(ConfigError):
    """A name that its :class:`~repro.utils.registry.Registry` does not hold."""


class DeploymentError(ConfigError, CapacityError):
    """A deployment whose model weights do not fit its memory budget."""
