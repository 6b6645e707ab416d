"""One name table for every plug point of the library.

Search algorithms, schedulers, placements, routers, fault types, arrival
processes, datasets, devices, models, model configs and dtypes are each a
:class:`Registry`: a kind noun plus a name -> entry table. Every lookup
fails the same way — :class:`~repro.errors.UnknownNameError` (a
:class:`~repro.errors.ConfigError`, so the CLI prints one ``error:`` line
and exits 2) with the message::

    unknown <kind> '<name>' — did you mean '<nearest>'?; registered: a, b, …

The did-you-mean hint is :mod:`difflib`'s ratio-based cutoff, so an
unrelated string gets no suggestion rather than a misleading one.
"""

from __future__ import annotations

from difflib import get_close_matches
from typing import Generic, Iterable, TypeVar

from repro.errors import ConfigError, UnknownNameError

__all__ = ["Registry", "closest", "did_you_mean"]

T = TypeVar("T")


def closest(name: str, candidates: Iterable[str]) -> str | None:
    """The candidate most similar to ``name``, or None if nothing is close."""
    matches = get_close_matches(name, sorted(candidates), n=1, cutoff=0.6)
    return matches[0] if matches else None


def did_you_mean(name: str, candidates: Iterable[str]) -> str:
    """A ``" — did you mean 'x'?"`` suffix, or ``""`` when nothing is close.

    Designed to be appended verbatim to an error message::

        raise ConfigError(f"unknown key {key!r}{did_you_mean(key, known)}")
    """
    match = closest(name, candidates)
    return f" — did you mean {match!r}?" if match else ""


class Registry(Generic[T]):
    """The ``kind`` table: registered names and the entry each one names.

    An entry is whatever the table holds — a policy class, a spec, a
    byte width. :meth:`build` calls it, so it is for tables of factories;
    :meth:`descriptions` reads each entry's ``description``, so it is for
    tables of described policies.
    """

    def __init__(self, kind: str, entries: dict[str, T] | None = None) -> None:
        self.kind = kind
        self._entries: dict[str, T] = dict(entries or {})

    def names(self) -> list[str]:
        """Registered names, sorted."""
        return sorted(self._entries)

    def descriptions(self) -> dict[str, str]:
        """Name -> the entry's one-line ``description``, in name order."""
        return {name: self._entries[name].description for name in self.names()}

    def __getitem__(self, name: str) -> T:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(
                f"unknown {self.kind} {name!r}{did_you_mean(name, self._entries)}; "
                f"registered: {', '.join(self.names())}"
            ) from None

    def check(self, name: str) -> str:
        """``name`` itself, once it is known to be registered."""
        self[name]
        return name

    def build(self, name: str, **kwargs):
        """Call ``name``'s entry with ``kwargs``; a signature mismatch is a
        :class:`~repro.errors.ConfigError`, the entry's own checks raise as
        they do."""
        factory = self[name]
        try:
            return factory(**kwargs)
        except TypeError as error:
            raise ConfigError(f"bad {name} {self.kind} parameters: {error}") from None

    def register(self, name: str, value: T) -> T:
        """Add ``name``; registering an equal value again is a no-op and a
        different one raises ``ValueError``."""
        existing = self._entries.get(name)
        if existing is not None and existing != value:
            raise ValueError(
                f"{self.kind} {name!r} already registered with a different value"
            )
        self._entries[name] = value
        return value
