"""Tests for the keyed RNG streams — the schedule-invariance foundation."""

import enum
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils import rng as rng_module
from repro.utils.rng import KeyedRng, StepTables, stable_hash64, stream_counts

key_parts = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.text(max_size=20),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("a", 1) == stable_hash64("a", 1)

    def test_distinct_keys_differ(self):
        assert stable_hash64("a", 1) != stable_hash64("a", 2)

    def test_type_tagging_int_vs_str(self):
        assert stable_hash64(1) != stable_hash64("1")

    def test_type_tagging_bool_vs_int(self):
        assert stable_hash64(True) != stable_hash64(1)

    def test_tuple_not_flattened(self):
        assert stable_hash64((1, 2), 3) != stable_hash64(1, (2, 3))
        assert stable_hash64((1, 2)) != stable_hash64(1, 2)

    def test_nested_tuples(self):
        assert stable_hash64(((1,), 2)) != stable_hash64((1, (2,)))

    def test_negative_ints(self):
        assert stable_hash64(-5) != stable_hash64(5)

    def test_bytes_supported(self):
        assert stable_hash64(b"ab") == stable_hash64(b"ab")
        assert stable_hash64(b"ab") != stable_hash64("ab")

    def test_unhashable_type_raises(self):
        with pytest.raises(TypeError):
            stable_hash64([1, 2])  # type: ignore[arg-type]

    @given(st.lists(key_parts, min_size=1, max_size=5))
    def test_hash_is_pure(self, parts):
        assert stable_hash64(*parts) == stable_hash64(*parts)

    @given(key_parts, key_parts)
    def test_distinct_single_parts_rarely_collide(self, a, b):
        if a != b or (isinstance(a, float) and np.isnan(a)):
            # not a strict guarantee, but collisions would break the design
            if type(a) is not type(b) or a != b:
                assert stable_hash64(a) != stable_hash64(b)


def reference_encode_part(part) -> bytes:
    """The encoder as it stood before the fast path — the byte-level spec."""
    if isinstance(part, bool):  # must precede int: bool is a subclass of int
        return b"b" + (b"1" if part else b"0")
    if isinstance(part, int):
        return b"i" + part.to_bytes(16, "little", signed=True)
    if isinstance(part, float):
        return b"f" + np.float64(part).tobytes()
    if isinstance(part, str):
        raw = part.encode("utf-8")
        return b"s" + len(raw).to_bytes(4, "little") + raw
    if isinstance(part, bytes):
        return b"y" + len(part).to_bytes(4, "little") + part
    if isinstance(part, tuple):
        inner = b"".join(reference_encode_part(p) for p in part)
        return b"t" + len(part).to_bytes(4, "little") + inner
    raise TypeError(f"unhashable rng key part of type {type(part).__name__}")


def reference_hash64(*parts) -> int:
    digest = hashlib.blake2b(
        b"".join(reference_encode_part(p) for p in parts), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


nested_parts = st.recursive(
    st.one_of(key_parts, st.binary(max_size=8)),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


class _Label(str):
    """A ``str`` subclass: must take the isinstance fallback, same bytes."""


class _Kind(enum.IntEnum):
    """An ``int`` subclass: the fallback again, tagged as an int."""

    SOUND = 1


class TestFastPathMatchesReference:
    # A lineage (a tuple) whose items are not all exact ints hands each
    # such item to the fallback; pin every kind of one, at that depth.
    @given(st.lists(nested_parts, max_size=5))
    @example([("step", (True, 1.0, b"x", _Kind.SOUND, _Label("a"), 2**70, -1, ((1,), 2)))])
    @example(["segment", "p-3", (0, 1, True, 2), 4])
    @example([(1, (2, (3, (4,))), "s", _Label("t")), _Kind.SOUND, 2**70, -1])
    @example([(), ((),), b"", ""])
    def test_any_key_hashes_like_the_reference(self, parts):
        assert stable_hash64(*parts) == reference_hash64(*parts)

    def test_equal_but_differently_typed_parts_stay_apart(self):
        # 1 == True == 1.0 as dict keys, even inside tuples: a value-keyed
        # memo of encodings would alias these. Interleave them so a cached
        # entry from one would be served to the next.
        keys = [(1,), (True,), (1.0,), (1, "a"), (True, "a"), (1.0, "a")]
        for _ in range(2):
            for key in keys:
                assert stable_hash64(key) == reference_hash64(key)
                assert stable_hash64(*key) == reference_hash64(*key)
        assert len({stable_hash64(key) for key in keys}) == len(keys)

    def test_subclasses_take_the_fallback(self):
        assert stable_hash64(_Label("a"), np.float64(0.5)) == reference_hash64("a", 0.5)

    def test_repeated_strings_are_served_from_the_memo_unchanged(self):
        for _ in range(3):
            assert stable_hash64("step", "p-1", 2) == reference_hash64("step", "p-1", 2)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.lists(nested_parts, max_size=4))
    def test_streams_and_forks_key_on_seed_then_parts(self, seed, parts):
        rng = KeyedRng(seed)
        expected = np.random.Generator(
            np.random.PCG64(reference_hash64(seed, *parts))
        )
        assert rng.stream(*parts).random() == expected.random()
        assert rng.fork(*parts).seed == reference_hash64(seed, "fork", *parts)

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072e-308,
         struct.unpack("<d", bytes.fromhex("010000000000f87f"))[0]],
    )
    def test_a_float_part_is_its_ieee_bytes(self, value):
        # A payload NaN too: the key's bytes are the float's own.
        assert rng_module._encode_part(value) == b"f" + np.float64(value).tobytes()

    def test_bool_seed_keeps_its_type_tag(self):
        assert KeyedRng(True).fork().seed == reference_hash64(True, "fork")
        assert KeyedRng(1).fork().seed == reference_hash64(1, "fork")


class TestKeyedRng:
    def test_same_key_same_draw(self):
        rng = KeyedRng(7)
        assert rng.uniform("x", 3) == rng.uniform("x", 3)

    def test_different_seed_different_draw(self):
        assert KeyedRng(1).uniform("x") != KeyedRng(2).uniform("x")

    def test_stream_reproducible_sequence(self):
        rng = KeyedRng(0)
        a = rng.stream("s").random(5)
        b = rng.stream("s").random(5)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        rng = KeyedRng(0)
        a = rng.stream("a").random(100)
        b = rng.stream("b").random(100)
        assert not np.array_equal(a, b)

    def test_seed_must_be_int(self):
        with pytest.raises(TypeError):
            KeyedRng("seed")  # type: ignore[arg-type]

    def test_normal_location(self):
        rng = KeyedRng(3)
        draws = [rng.normal("n", i, loc=10.0, scale=0.1) for i in range(200)]
        assert 9.9 < float(np.mean(draws)) < 10.1

    def test_lognormal_positive(self):
        rng = KeyedRng(3)
        assert rng.lognormal("l", mean=2.0, sigma=0.5) > 0

    def test_randint_bounds(self):
        rng = KeyedRng(5)
        for i in range(100):
            assert 3 <= rng.randint("r", i, low=3, high=9) < 9

    def test_choice_index_weights(self):
        rng = KeyedRng(1)
        picks = [rng.choice_index("c", i, weights=[0.0, 1.0, 0.0]) for i in range(20)]
        assert all(p == 1 for p in picks)

    def test_choice_index_empty_raises(self):
        with pytest.raises(ValueError):
            KeyedRng(0).choice_index("c", weights=[])

    def test_choice_index_negative_raises(self):
        with pytest.raises(ValueError):
            KeyedRng(0).choice_index("c", weights=[-1.0, 2.0])

    def test_choice_index_nan_weight_or_overflowing_total_raises(self):
        for weights in ([1.0, float("nan")], [float("nan"), 1.0], [1e308, 1e308]):
            with pytest.raises(ValueError):
                KeyedRng(0).choice_index("c", weights=weights)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_choice_index_rejects_non_finite_weights_before_drawing(self, bad):
        built = stream_counts.built
        with pytest.raises(ValueError, match="finite"):
            KeyedRng(0).choice_index("c", weights=[1.0, bad])
        assert stream_counts.built == built

    @pytest.mark.parametrize("helper", ["normal", "lognormal", "exponential"])
    def test_a_negative_spread_raises_and_nan_passes(self, helper):
        spread = {"normal": "scale", "lognormal": "sigma", "exponential": "scale"}[helper]
        draw = getattr(KeyedRng(0), helper)
        fixed = {"mean": 0.0} if helper == "lognormal" else {}
        for bad in (-1.0, -1e-300, -0.0):
            with pytest.raises(ValueError):
                draw("s", **fixed, **{spread: bad})
        assert np.isnan(draw("s", **fixed, **{spread: float("nan")}))

    def test_randint_bounds_are_checked_and_span_int64(self):
        rng = KeyedRng(0)
        for low, high in ((3, 3), (4, 3), (-(2**63) - 1, 0), (0, 2**63 + 1)):
            with pytest.raises(ValueError):
                rng.randint("r", low=low, high=high)
        values = {rng.randint("r", i, low=-(2**63), high=2**63 - 1) for i in range(50)}
        assert all(-(2**63) <= v < 2**63 - 1 for v in values)
        assert min(values) < 0 < max(values)

    def test_choice_index_all_zero_uniform(self):
        rng = KeyedRng(9)
        picks = {rng.choice_index("z", i, weights=[0, 0, 0]) for i in range(60)}
        assert picks == {0, 1, 2}

    def test_fork_namespaces(self):
        rng = KeyedRng(0)
        child_a = rng.fork("a")
        child_b = rng.fork("b")
        assert child_a.uniform("k") != child_b.uniform("k")
        assert child_a.uniform("k") == rng.fork("a").uniform("k")

    @given(st.lists(key_parts, min_size=1, max_size=4), st.integers(0, 2**31))
    def test_draws_schedule_invariant(self, parts, seed):
        """Draw order can never influence values — the core property."""
        rng = KeyedRng(seed)
        first = rng.uniform(*parts)
        rng.uniform("unrelated", 1)
        rng.normal("other", loc=0, scale=2)
        assert rng.uniform(*parts) == first


def bits(value):
    """``value`` with floats spelled as their IEEE bytes: equal means bit-equal."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return type(value), value


def reference_choice(stream, weights) -> int:
    """``choice_index``'s draw as it stood before the memo, on ``stream``."""
    w = np.asarray(list(weights), dtype=np.float64)
    total = float(w.sum())
    if total <= 0:
        return int(stream.integers(0, w.size))
    return int(stream.choice(w.size, p=w / total))


#: kind -> (the memoised helper, the same draw on a fresh stream).
DRAWS = {
    "uniform": (
        lambda rng, key, _: rng.uniform(*key),
        lambda stream, _: float(stream.random()),
    ),
    "normal": (
        lambda rng, key, p: rng.normal(*key, loc=p[0], scale=p[1]),
        lambda stream, p: float(stream.normal(p[0], p[1])),
    ),
    "lognormal": (
        lambda rng, key, p: rng.lognormal(*key, mean=p[0], sigma=p[1]),
        lambda stream, p: float(stream.lognormal(p[0], p[1])),
    ),
    "exponential": (
        lambda rng, key, p: rng.exponential(*key, scale=p[1]),
        lambda stream, p: float(stream.exponential(p[1])),
    ),
    "randint": (
        lambda rng, key, p: rng.randint(*key, low=p[0], high=p[0] + p[1]),
        lambda stream, p: int(stream.integers(p[0], p[0] + p[1])),
    ),
    "choice": (
        lambda rng, key, p: rng.choice_index(*key, weights=p),
        lambda stream, p: reference_choice(stream, p),
    ),
}
locations = st.floats(-1e6, 1e6)
spreads = st.floats(1e-3, 1e3)
draw_requests = st.one_of(
    st.tuples(st.just("uniform"), st.none()),
    st.tuples(st.just("normal"), st.tuples(locations, spreads)),
    st.tuples(st.just("lognormal"), st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 2.0))),
    st.tuples(st.just("exponential"), st.tuples(st.none(), spreads)),
    st.tuples(st.just("randint"), st.tuples(st.integers(-50, 50), st.integers(1, 1000))),
    st.tuples(
        st.just("choice"),
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=1, max_size=4).map(tuple),
    ),
)
# Few keys, so a run re-asks them - with the same request and with others
# in between - and the three spellings of "one" that compare equal.
request_keys = st.sampled_from(
    [(1,), (True,), (1.0,), ("step", "p-1", (0, 1), 2), ("step", "p-1", (0, 1), 3), ()]
)
RNGS = (KeyedRng(11), KeyedRng(11), KeyedRng(11).fork("replica", 0), KeyedRng(12))


#: Keys per helper in the differential test.
KEYS = 100_000


def differential_params(kind: str, i: int):
    """The ``i``-th key's parameters for ``DRAWS[kind]``: both signs of
    location, zero spread, and every integer path (32-bit Lemire with and
    without rejection, the 64-bit one, full range)."""
    loc, spread = (i % 7 - 3) * 1.5, (0.0, 0.25, 1.0, 40.0)[i % 4]
    if kind == "uniform":
        return None
    if kind == "randint":
        low = (0, -5, -(2**63), 2**40, -(2**31))[i % 5]
        span = (1, 2, 3, 7, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 + 1, 2**64 - 1)[i % 10]
        return low, min(span, 2**63 - low)  # high stays within int64 + 1
    if kind == "choice":
        return tuple(
            float((i * 7 + j * 13) % 5) * (1.5 if j % 2 else 0.25) for j in range(1 + i % 12)
        )
    if kind == "lognormal":
        return loc / 4, spread / 8
    return loc, spread  # normal; exponential reads the spread


class TestDifferential:
    """Each helper equals the first draw of numpy's fresh ``stream(*key)``
    over 10^5 keys - the kernel's test against its reference."""

    @pytest.mark.parametrize("kind", sorted(DRAWS))
    def test_every_helper_is_the_first_draw_of_its_stream(self, kind):
        helper, fresh = DRAWS[kind]
        rng = KeyedRng(2026)
        wrong = []
        for i in range(KEYS):
            key, params = ("differential", kind, i), differential_params(kind, i)
            got = helper(rng, key, params)
            if bits(got) != bits(fresh(rng.stream(*key), params)):
                wrong.append((i, got))
        assert wrong == []


class TestAnyRequest:
    """Whatever the key and the distribution's parameters, a helper's value
    is the first draw of a fresh ``stream(*key)``, bit for bit."""

    @given(
        st.lists(
            st.tuples(st.integers(0, len(RNGS) - 1), request_keys, draw_requests),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_first_draw_of_a_fresh_stream(self, requests):
        for which, key, (kind, params) in requests:
            helper, fresh = DRAWS[kind]
            got = helper(RNGS[which], key, params)
            assert bits(got) == bits(fresh(RNGS[which].stream(*key), params))


class TestStepTables:
    """Per-problem tables, least recently acquired evicted past the cap."""

    def test_acquire_returns_the_problems_one_table(self):
        tables = StepTables()
        table = tables.acquire("p")
        table["k"] = 1
        assert tables.acquire("p") is table and tables == {"p": {"k": 1}}

    def test_past_the_cap_the_least_recently_acquired_problems_go(self, monkeypatch):
        monkeypatch.setattr(rng_module, "TABLE_CAP", 4)
        tables = StepTables()
        for problem in "abc":
            tables.acquire(problem).update({(problem, i): i for i in range(2)})
        # The cap is held whenever a problem is acquired, not while tables grow.
        assert list(tables) == ["a", "b", "c"]
        tables.acquire("b")  # 6 entries: "a", the least recently used, goes
        assert list(tables) == ["c", "b"]
        tables.acquire("d")["d"] = 0
        tables.acquire("c")  # 5 entries: "b" goes, never the acquired "c"
        assert list(tables) == ["d", "c"]
        assert sum(map(len, tables.values())) == 3

    def test_one_problem_past_the_cap_keeps_its_table(self, monkeypatch):
        monkeypatch.setattr(rng_module, "TABLE_CAP", 2)
        tables = StepTables()
        tables.acquire("a").update({i: i for i in range(5)})
        assert len(tables.acquire("a")) == 5
