"""Shared pytest configuration."""

from collections import Counter

import pytest
from hypothesis import settings

from repro.utils import pcg64
from repro.utils import rng as rng_module


# ``--hypothesis-profile ci`` (CI's ``digest-gate`` job) runs five times
# the default examples. A property that sets its own budget writes it as a
# multiple of ``settings.default.max_examples`` to scale with the profile.
settings.register_profile("ci", max_examples=5 * settings.default.max_examples)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: serving-scale experiment tests")


@pytest.fixture
def streams_built(monkeypatch) -> Counter:
    """Streams constructed during the test, counted by the key that
    addressed them (whatever the root seed) — observed at the two
    construction functions, ``KeyedRng.stream``'s numpy one and the
    helpers' ``pcg64.start``, so a value read from a step table is not in
    it (nor is a ``randint`` over one value, which numpy answers without
    drawing)."""
    keys: dict[int, tuple] = {}
    built: Counter = Counter()
    real_hash, real_new = rng_module._hash64, rng_module._new_stream
    real_start = pcg64.start

    def recording_hash(prefix, parts):
        seed = real_hash(prefix, parts)
        keys[seed] = parts
        return seed

    def counting_new(seed):
        built[keys[seed]] += 1
        return real_new(seed)

    def counting_start(seed):
        built[keys[seed]] += 1
        return real_start(seed)

    monkeypatch.setattr(rng_module, "_hash64", recording_hash)
    monkeypatch.setattr(rng_module, "_new_stream", counting_new)
    monkeypatch.setattr(pcg64, "start", counting_start)
    return built
