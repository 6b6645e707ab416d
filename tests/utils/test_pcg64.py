"""The pure-Python PCG64 kernel against numpy, bit for bit.

numpy is the reference here and nowhere on the serving path: every test
compares a kernel draw with the same draw of a numpy ``Generator``.
Three kinds of check:

* **seeding** - :func:`pcg64.start` against ``PCG64(seed)``'s state, and
  against :func:`reference_start`, the loop form of ``SeedSequence`` it
  unrolls, on 10^5 seeds (the 10^5-key differential test of every
  ``KeyedRng`` helper is ``tests/utils/test_rng.py::TestDifferential``);
* **forced outputs** - numpy's public ``PCG64.state`` setter puts a chosen
  64-bit word (or two) first in a generator's output, which reaches every
  ziggurat layer, accept boundary, wedge and tail on purpose instead of
  by luck; the committed tables are checked against what numpy *does*
  with those words, so a numpy upgrade that changes them fails here, and
  the public ``normal`` / ``lognormal``, whose one-word accept is in
  their own body, run from the same words;
* **provenance** - ``tools/gen_ziggurat_tables.py --check`` regenerates
  the data module from the installed wheel and finds it unchanged.
"""

import math
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.utils import pcg64
from repro.utils.rng import KeyedRng
from repro.utils.ziggurat_tables import EXP_R, KE, KI, NOR_INV_R, NOR_R, WE, WI

ROOT = pathlib.Path(__file__).resolve().parents[2]
M64, M128 = 2**64 - 1, 2**128 - 1
M32 = 2**32 - 1
MULT_INV = pow(pcg64._PCG_MULT, -1, 2**128)

# SeedSequence's hash constants. Its multipliers advance the same way
# whatever the data, so the k-th hashmix uses the fixed pair
# (HASH_A[k], HASH_A[k + 1]) and the k-th output word (HASH_B[k],
# HASH_B[k + 1]).
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715
HASH_A = [0x43B0D7E5]
HASH_B = [0x8B51F9DD]
for _ in range(16):
    HASH_A.append(HASH_A[-1] * 0x931E8875 & M32)
for _ in range(8):
    HASH_B.append(HASH_B[-1] * 0x58F38DED & M32)


def hashmix(value: int, k: int) -> int:
    """SeedSequence's ``k``-th hashmix of ``value``."""
    value = (value ^ HASH_A[k]) * HASH_A[k + 1] & M32
    return value ^ value >> 16


# A 64-bit seed fills two of the four pool words; the other two mix zeros.
POOL_TAIL = (hashmix(0, 2), hashmix(0, 3))
# The twelve cross-mixing rounds: (source word, target word, hash pair).
CROSS = tuple(
    (src, dst, HASH_A[k], HASH_A[k + 1])
    for k, (src, dst) in enumerate(
        ((src, dst) for src in range(4) for dst in range(4) if src != dst), start=4
    )
)
# The eight output words: (pool word, hash pair).
OUTPUT = tuple((k & 3, HASH_B[k], HASH_B[k + 1]) for k in range(8))


def reference_start(seed: int) -> tuple[int, int, int]:
    """:func:`pcg64.start` as loops over ``SeedSequence``'s rounds and
    PCG64's seeding steps, one at a time - the form the kernel unrolls."""
    pool = [hashmix(seed & M32, 0), hashmix(seed >> 32, 1), *POOL_TAIL]
    for src, dst, xor, mul in CROSS:
        value = (pool[src] ^ xor) * mul & M32
        value = MIX_L * pool[dst] - MIX_R * (value ^ value >> 16) & M32
        pool[dst] = value ^ value >> 16
    words = []
    for src, xor, mul in OUTPUT:
        value = (pool[src] ^ xor) * mul & M32
        words.append(value ^ value >> 16)
    initstate = (words[0] | words[1] << 32) << 64 | words[2] | words[3] << 32
    inc = ((words[4] | words[5] << 32) << 65 | (words[6] | words[7] << 32) << 1 | 1) & M128
    state = 0
    for add in (0, initstate, 0):  # srandom's step, add, step; the first output's step
        state = ((state + add) * pcg64._PCG_MULT + inc) & M128
    value = (state >> 64 ^ state) & M64
    rot = state >> 122
    return (value >> rot | value << (64 - rot)) & M64, state, inc


def state_emitting(word: int, high: int) -> int:
    """A PCG64 state whose XSL-RR output is ``word``; ``high`` picks the
    upper half (its top six bits are the rotation)."""
    rot = high >> 58
    rotl = (word << rot | word >> (64 - rot)) & M64 if rot else word
    return high << 64 | (rotl ^ high)


def forced(first: int, second: int | None = None, high: int = 0x5DEECE66D1234567):
    """A numpy generator whose first output is ``first`` (then ``second``,
    if given), and the kernel's matching ``(state after first, inc)``."""
    after_first = state_emitting(first, high)
    if second is None:
        inc = 0x14057B7EF767814F  # numpy's default PCG increment, any odd works
    else:
        after_second = state_emitting(second, high ^ 0x0F0F0F0F0F0F0F0F)
        if not (after_second - after_first) & 1:  # the increment must be odd
            after_second = state_emitting(second, high ^ 0x0F0F0F0F0F0F0F0E)
        inc = (after_second - after_first * pcg64._PCG_MULT) & M128
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": (after_first - inc) * MULT_INV & M128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit_generator), after_first, inc


def words_used(generator: np.random.Generator, after_first: int) -> int:
    """1 if ``generator`` has consumed exactly its forced first word."""
    return 1 if generator.bit_generator.state["state"]["state"] == after_first else 2


class TestStart:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, M64])
    def test_edge_seeds(self, seed):
        bit_generator = np.random.PCG64(seed)
        first = int(bit_generator.random_raw())
        state = bit_generator.state["state"]
        assert pcg64.start(seed) == (first, state["state"], state["inc"])
        assert reference_start(seed) == pcg64.start(seed)

    def test_the_straight_line_kernel_is_the_loop(self):
        draw = random.Random(36).getrandbits
        seeds = [draw(64) for _ in range(100_000)]
        assert [seed for seed in seeds if pcg64.start(seed) != reference_start(seed)] == []

    def test_hashed_seeds(self):
        rng = KeyedRng(3)
        for i in range(2_000):
            seed = rng.fork("seed", i).seed
            bit_generator = np.random.PCG64(seed)
            first = int(bit_generator.random_raw())
            state = bit_generator.state["state"]
            assert pcg64.start(seed) == (first, state["state"], state["inc"])


class TestPairwiseSum:
    def test_the_pairwise_sum_is_numpys(self):
        rng = KeyedRng(8)
        for n in [*range(1, 140), 255, 256, 257, 1000, 4097]:
            values = tuple(rng.lognormal("w", n, j, mean=0.0, sigma=4.0) for j in range(n))
            assert pcg64._pairwise_sum(values) == float(np.asarray(values).sum())


class TestForcedOutputs:
    """Every row of the committed tables, read back from numpy's behaviour."""

    @pytest.mark.parametrize("idx", range(256))
    def test_a_layers_width_is_the_draw_at_rabs_one(self, idx):
        # rabs = 1 is inside the layer's accept bound, or else lands in a
        # wedge that a zero second uniform accepts: either way x = 1 * w.
        normal, _, _ = forced(idx | 1 << 9, 0)
        assert normal.standard_normal() == WI[idx]
        exponential, _, _ = forced(idx << 3 | 1 << 11, 0)
        assert exponential.standard_exponential() == WE[idx]

    @pytest.mark.parametrize("idx", range(256))
    def test_a_layers_accept_bound_is_where_one_word_stops_sufficing(self, idx):
        if KI[idx] > 0:
            generator, after, _ = forced(idx | (KI[idx] - 1) << 9)
            assert generator.standard_normal() == (KI[idx] - 1) * WI[idx]
            assert words_used(generator, after) == 1
        generator, after, _ = forced(idx | KI[idx] << 9)
        generator.standard_normal()
        assert words_used(generator, after) == 2
        if KE[idx] > 0:
            generator, after, _ = forced(idx << 3 | (KE[idx] - 1) << 11)
            assert generator.standard_exponential() == (KE[idx] - 1) * WE[idx]
            assert words_used(generator, after) == 1
        generator, after, _ = forced(idx << 3 | KE[idx] << 11)
        generator.standard_exponential()
        assert words_used(generator, after) == 2

    @pytest.mark.parametrize("negative", [False, True])
    def test_the_normal_tail_starts_at_r(self, negative):
        # Layer 0 past its bound enters the tail; u = 0 adds nothing to r.
        rabs = (2**52 - 1) & ~(1 << 8) | negative << 8
        generator, _, _ = forced(rabs << 9, 0)
        assert generator.standard_normal() == (-NOR_R if negative else NOR_R)

    def test_the_normal_tail_scales_by_inverse_r(self):
        # u = 1/2 for the tail's first uniform; search the free upper half
        # of the forced state for a second uniform that accepts at once.
        xx = -NOR_INV_R * math.log1p(-0.5)
        for high in range(1, 200):
            generator, after, inc = forced(((2**52 - 1) & ~(1 << 8)) << 9, 1 << 63, high << 40)
            third, _ = pcg64._step(pcg64._step(after, inc)[1], inc)
            yy = -math.log1p(-(third >> 11) * 2.0**-53)
            if yy + yy > xx * xx:
                assert generator.standard_normal() == NOR_R + xx
                return
        raise AssertionError("no accepting second uniform found")

    def test_the_exponential_tail_starts_at_r(self):
        generator, _, _ = forced((2**53 - 1) << 11, 0)
        assert generator.standard_exponential() == EXP_R

    @pytest.mark.parametrize("idx", range(256))
    def test_the_kernel_follows_numpy_through_every_branch(self, idx):
        # Inside and at each layer's accept bound, and at the top of the
        # range, with a second word of 0, 1/2, just under 1 or natural:
        # every wedge test against the densities, and the tails' loops.
        for rabs in {1, max(KI[idx] - 1, 1), KI[idx], 2**52 - 1}:
            for sign in (0, 1 << 8):
                word = idx | sign | rabs << 9
                for second in (None, 0, 1 << 63, M64):
                    generator, after, inc = forced(word, second)
                    assert generator.standard_normal() == pcg64._standard_normal(word, after, inc)
        for ri in {1, max(KE[idx] - 1, 1), KE[idx], 2**53 - 1}:
            word = idx << 3 | ri << 11
            for second in (None, 0, 1 << 63, M64):
                generator, after, inc = forced(word, second)
                assert generator.standard_exponential() == pcg64._standard_exponential(
                    word, after, inc
                )

    @pytest.mark.parametrize("idx", range(256))
    def test_the_public_normal_and_lognormal_follow_numpy_too(self, idx, monkeypatch):
        # The same words through the public draws, whose scale check and
        # one-word accept are in their own body: ``start`` hands them the
        # forced first word, state and increment. rabs = 0 checks the sign
        # of a zero, the rest each accept bound, wedge and tail.
        for rabs in {0, 1, max(KI[idx] - 1, 1), KI[idx], 2**52 - 1}:
            for sign in (0, 1 << 8):
                word = idx | sign | rabs << 9
                for second in (None, 0, 1 << 63, M64):
                    _, after, inc = forced(word, second)
                    monkeypatch.setattr(pcg64, "start", lambda seed: (word, after, inc))
                    for loc, scale in PARAMS:
                        numpy = forced(word, second)[0].normal(loc, scale)
                        assert same(pcg64.normal(7, loc, scale), numpy)
                        numpy = forced(word, second)[0].lognormal(loc, scale)
                        assert same(pcg64.lognormal(7, loc, scale), numpy)


#: (loc or mean, scale or sigma) pairs, signed zeros included.
PARAMS = ((0.0, 1.0), (-0.0, 1.0), (0.25, 1.5), (3.0, 0.0), (-1.0, 2.0**-30))


def same(a: float, b: float) -> bool:
    """Equal, zeros of the same sign."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_the_tables_are_the_installed_wheels():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_ziggurat_tables.py"), "--check"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


#: A two-request fleet drain: Poisson arrivals (keyed exponential gaps),
#: two lanes under a stall process (exponential gaps, a ``randint`` lane
#: pick), the whole serving path and both metric aggregations.
DRAIN = """
import sys
from repro.core.config import fasttts_config
from repro.core.fleet import TTSFleet
from repro.search.registry import build_algorithm
from repro.utils.rng import KeyedRng
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.datasets import build_dataset

dataset = build_dataset("amc23", seed=0, size=2)
fleet = TTSFleet(
    fasttts_config(memory_fraction=0.4, seed=0), dataset,
    devices=["rtx4090"] * 2, faults="stall:rate=0.05,duration=1",
)
arrivals = PoissonProcess(rate_rps=0.5).times(KeyedRng(0), 2)
for problem, arrival in zip(list(dataset), arrivals):
    fleet.submit(problem, build_algorithm("beam_search", 4), arrival_s=arrival)
report = fleet.drain()
report.slo_summary()
assert len(report.records) == 2
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_a_fleet_drain_never_imports_numpy():
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    if sys.flags.dont_write_bytecode:  # the child writes no .pyc either
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run(
        [sys.executable, "-c", DRAIN], capture_output=True, text=True,
        cwd=ROOT, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
