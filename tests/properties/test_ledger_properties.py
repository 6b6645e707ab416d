"""Property-based invariants for the runtime KV ledger.

After *any* sequence of ``charge_growth`` / ``restore`` / ``admit`` /
``release`` (private claims) and ``charge_growth_segments`` (lineage
claims, with or without a cross-owner root):

* device residency never exceeds capacity (every single claim fits by
  construction, as fleet admission control guarantees);
* each owner's books are conserved — resident plus swapped bytes equal
  its last reported footprint, no bytes silently vanish;
* the running totals equal what the segments say: ``resident_bytes`` is
  the sum of unique resident segment bytes, ``logical_resident_bytes``
  the sum of resident claims, ``shared_bytes`` their difference — and
  sharing can only save, never inflate.

Driven by private claims alone, the ledger must behave exactly like the
whole-session ledger it replaced; ``WholeSessionModel`` below keeps that
implementation alive as the differential reference.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.pool import delta_transfer_bytes
from repro.errors import CapacityError
from repro.hardware.memory import KVLedger, KVSegment

CAPACITY = 100
OWNERS = ("a", "b", "c")

# One op: (kind, owner index, payload). Byte payloads stay within the
# capacity — a single session's plan always fits the device (admission
# control) — and segment chains sum to at most 3 * 30 = 90 bytes.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("grow"), st.integers(0, 2), st.integers(0, CAPACITY)),
        st.tuples(st.just("restore"), st.integers(0, 2), st.none()),
        st.tuples(st.just("admit"), st.integers(0, 2), st.integers(0, CAPACITY)),
        st.tuples(st.just("release"), st.integers(0, 2), st.none()),
        st.tuples(
            st.just("grow_segs"),
            st.integers(0, 2),
            st.lists(st.integers(1, 30), min_size=1, max_size=3),
        ),
    ),
    min_size=1,
    max_size=30,
)


def lineage_claims(owner_idx, sizes, shared_root):
    """A root->leaf chain; ``shared_root=True`` reuses one cross-owner
    root (the prompt analogue), the rest are per-owner private."""
    claims, parent = [], None
    for depth, size in enumerate(sizes):
        if depth == 0 and shared_root:
            node = 7  # same root for every owner: the shared prompt
        else:
            node = 1000 * (owner_idx + 1) + depth
        claims.append(KVSegment(node, parent, size))
        parent = node
    return claims


def apply_ops(ledger, op_list, shared_root=False, private_only=False):
    """Drive the ledger, checking the invariants after every op; returns
    each owner's expected logical footprint."""
    expected = {}
    for kind, owner_idx, payload in op_list:
        owner = OWNERS[owner_idx]
        if kind == "grow":
            ledger.charge_growth(owner, payload)
            expected[owner] = payload
        elif kind == "restore":
            ledger.restore(owner)
        elif kind == "admit":
            ledger.admit(owner, payload)
            expected[owner] = payload
        elif kind == "release":
            ledger.release(owner)
            expected.pop(owner, None)
        elif kind == "grow_segs":
            if private_only:
                ledger.charge_growth(owner, sum(payload))
            else:
                ledger.charge_growth_segments(
                    owner, lineage_claims(owner_idx, payload, shared_root)
                )
            expected[owner] = sum(payload)
        check_invariants(ledger, expected)
    return expected


def check_invariants(ledger, expected):
    assert 0 <= ledger.resident_bytes <= CAPACITY
    assert ledger.free_bytes >= 0
    for owner, footprint in expected.items():
        resident = ledger.resident_of(owner)
        swapped = ledger.swapped_of(owner)
        assert resident >= 0 and swapped >= 0
        assert resident + swapped == footprint, (
            f"{owner}: resident {resident} + swapped {swapped} != "
            f"reported footprint {footprint}"
        )
    assert ledger.peak_resident_bytes <= CAPACITY
    assert ledger.swapped_out_bytes >= 0
    assert ledger.swapped_in_bytes >= 0
    # The running totals, recomputed from the segments.
    resident = [seg for seg in ledger._segments.values() if seg.resident]
    unique = sum(max(seg.owners.values()) for seg in resident)
    logical = sum(sum(seg.owners.values()) for seg in resident)
    assert ledger.resident_bytes == unique
    assert ledger.logical_resident_bytes == logical
    assert ledger.shared_bytes == logical - unique >= 0
    # Every tree node is claimed or leads to a claimed one (no leak).
    assert set(ledger.tree.leaves()) <= set(ledger._segments)


class TestKVLedgerInvariants:
    """Private claims only: what a ``kv_sharing="off"`` lane sends."""

    @given(ops)
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_capacity(self, op_list):
        ledger = KVLedger(CAPACITY)
        apply_ops(ledger, op_list, private_only=True)
        assert ledger.logical_resident_bytes == ledger.resident_bytes
        assert ledger.peak_shared_bytes == 0
        assert ledger.dedup_ratio == 1.0


class WholeSessionModel:
    """The whole-session ledger ``KVLedger`` replaced, as the reference.

    Per-owner resident/swapped byte counts and LRU stamps; eviction swaps
    out whole *other* owners, least recently run first, skipping
    zero-byte residents; growth on a swapped owner reports the restore.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.resident, self.swapped, self.stamp = {}, {}, {}
        self.tick = self.swapped_out = self.swapped_in = self.peak = 0

    def _fit(self, keep):
        need = sum(self.resident.values()) - self.capacity
        evicted = []
        for victim in sorted(self.resident, key=self.stamp.get):
            moved = self.resident[victim]
            if need > 0 and moved and victim != keep:
                self.resident[victim] = 0
                self.swapped[victim] += moved
                self.swapped_out += moved
                need -= moved
                evicted.append((victim, moved))
        return evicted

    def _place(self, owner, num_bytes):
        self.tick += 1
        self.stamp[owner] = self.tick
        self.resident[owner], self.swapped[owner] = num_bytes, 0
        evicted = self._fit(owner)
        self.peak = max(self.peak, sum(self.resident.values()))
        return evicted

    def charge_growth(self, owner, total):
        restored = self.swapped.get(owner, 0)
        self.swapped_in += restored
        return restored, self._place(owner, total)

    def admit(self, owner, num_bytes):
        if num_bytes > self.capacity:
            raise CapacityError("over budget")
        return self._place(owner, num_bytes)

    def restore(self, owner):
        # A swapped-out owner is wholly on the host, so coming back is
        # growing to the size it already had.
        back = self.swapped.get(owner, 0)
        return self.charge_growth(owner, back) if back else (0, [])

    def release(self, owner):
        self.swapped.pop(owner, None)
        self.stamp.pop(owner, None)
        return self.resident.pop(owner, 0)

    def resize(self, capacity):
        self.capacity = capacity
        return self._fit(keep=None)


byte_ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["charge_growth", "admit"]),
            st.sampled_from(OWNERS),
            st.integers(0, CAPACITY + 10),
        ),
        st.tuples(
            st.sampled_from(["restore", "release"]),
            st.sampled_from(OWNERS),
            st.none(),
        ),
        st.tuples(st.just("resize"), st.none(), st.integers(1, CAPACITY + 10)),
    ),
    min_size=1,
    max_size=40,
)


class TestPrivateClaimsMatchTheWholeSessionLedger:
    @given(byte_ops)
    @settings(max_examples=300, deadline=None)
    def test_differential_against_the_reference_model(self, op_list):
        ledger, model = KVLedger(CAPACITY), WholeSessionModel(CAPACITY)
        for kind, owner, payload in op_list:
            args = tuple(a for a in (owner, payload) if a is not None)
            try:
                expected = getattr(model, kind)(*args)
            except CapacityError:
                with pytest.raises(CapacityError):
                    getattr(ledger, kind)(*args)
                continue
            assert getattr(ledger, kind)(*args) == expected, (kind, args)
            for name in OWNERS:
                assert ledger.resident_of(name) == model.resident.get(name, 0)
                assert ledger.swapped_of(name) == model.swapped.get(name, 0)
            assert ledger.swapped_out_bytes == model.swapped_out
            assert ledger.swapped_in_bytes == model.swapped_in
            assert ledger.peak_resident_bytes == model.peak
        for name in OWNERS:
            ledger.release(name)
        assert ledger.owners == [] and len(ledger.tree) == 0

    @pytest.mark.parametrize("spelling", ["bytes", "segments"])
    def test_admit_moves_no_swap_counter(self, spelling):
        """One ``admit``, one answer: the incoming bytes are migration
        traffic the caller bills, never a swap-in — even when the admitted
        owner had been swapped out here."""
        ledger = KVLedger(CAPACITY)
        ledger.charge_growth("a", 60)
        ledger.charge_growth("b", 70)  # swaps a out
        assert ledger.swapped_of("a") == 60
        if spelling == "bytes":
            evicted = ledger.admit("a", 60)
        else:
            evicted = ledger.admit_segments("a", [ledger.private_claim("a", 60)])
        assert evicted == [("b", 70)]
        assert ledger.swapped_in_bytes == 0
        assert ledger.resident_of("a") == 60 and ledger.swapped_of("a") == 0

    def test_admit_over_capacity_raises_before_anything_moves(self):
        ledger = KVLedger(CAPACITY)
        ledger.charge_growth("a", 60)
        before = (ledger._tick, dict(ledger._owner_segs), ledger.resident_bytes)
        with pytest.raises(CapacityError):
            ledger.admit("b", CAPACITY + 1)
        assert (ledger._tick, ledger._owner_segs, ledger.resident_bytes) == before
        assert ledger.swapped_out_bytes == 0 and "b" not in ledger.owners

    def test_zero_byte_residents_are_never_reported_evicted(self):
        ledger = KVLedger(CAPACITY)
        ledger.charge_growth("idle", 0)
        ledger.charge_growth("a", 60)
        assert ledger.charge_growth("b", 70) == (0, [("a", 60)])
        assert ledger.resize(10) == [("b", 70)]
        tick = ledger._tick
        assert ledger.restore("idle") == (0, [])
        assert ledger.restore("never-seen") == (0, [])
        assert ledger._tick == tick  # no LRU stamp moved


class TestSharedKVLedgerInvariants:
    """Lineage claims, optionally colliding on one cross-owner root."""

    @given(ops, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_conservation_capacity_and_unique_bytes(self, op_list, shared_root):
        ledger = KVLedger(CAPACITY)
        expected = apply_ops(ledger, op_list, shared_root=shared_root)
        # sharing can only save relative to whole-session billing
        logical = sum(ledger.resident_of(o) for o in expected)
        assert ledger.resident_bytes <= logical or not expected
        assert ledger.logical_resident_bytes == logical
        assert ledger.shared_bytes >= 0
        assert ledger.dedup_ratio >= 1.0

    @given(ops)
    @settings(max_examples=100, deadline=None)
    def test_restore_after_any_history_makes_owner_resident(self, op_list):
        ledger = KVLedger(CAPACITY)
        expected = apply_ops(ledger, op_list, shared_root=True)
        for owner in expected:
            ledger.restore(owner)
            assert ledger.swapped_of(owner) == 0
            assert ledger.resident_of(owner) == expected[owner]


def migrating_claims(sizes):
    """A root->leaf chain for the migrating session: the shared root (the
    prompt analogue, node 7) plus step nodes no ``apply_ops`` owner ever
    touches, so overlap with a populated destination comes only through
    the root or an explicit same-lineage peer."""
    claims, parent = [], None
    for depth, size in enumerate(sizes):
        node = 7 if depth == 0 else 5000 + depth
        claims.append(KVSegment(node, parent, size))
        parent = node
    return claims


class TestDeltaMigrationConservation:
    """ISSUE 10: delta-migration's PCIe books against two real ledgers.

    Conservation law: the bytes read in at the destination equal the
    migrating session's footprint minus the destination-resident shared
    bytes — shared segments cross no link — and the write-out is the
    source-resident subset of exactly those bytes.
    """

    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=3),
        ops,
        st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_read_in_is_footprint_minus_destination_overlap(
        self, sizes, dst_ops, peer_depth
    ):
        source = KVLedger(CAPACITY)
        destination = KVLedger(CAPACITY)
        claims = migrating_claims(sizes)
        source.charge_growth_segments("mig", claims)
        # Arbitrary co-resident history at the destination (may leave the
        # shared root resident), plus optionally a same-problem peer
        # holding a prefix of the migrating lineage.
        apply_ops(destination, dst_ops, shared_root=True)
        if peer_depth:
            destination.charge_growth_segments("peer", claims[:peer_depth])
        footprint = sum(c.num_bytes for c in claims)
        overlap = sum(
            min(c.num_bytes, destination.resident_segment_bytes(c.node_id))
            for c in claims
        )

        out_bytes, in_bytes = delta_transfer_bytes(source, destination, claims)

        assert in_bytes == footprint - overlap
        # ...which is exactly the ledger's unique-planned-bytes accessor.
        assert in_bytes == destination.unique_planned_bytes(footprint, claims)
        expected_out = sum(
            c.num_bytes
            - min(c.num_bytes, destination.resident_segment_bytes(c.node_id))
            for c in claims
            if source.resident_segment_bytes(c.node_id)
        )
        assert out_bytes == expected_out
        assert 0 <= out_bytes <= in_bytes <= footprint

        # The handoff itself: the destination ends up owning the full
        # footprint, the source none of it, capacity never exceeded.
        destination.admit_segments("mig", claims)
        source.release("mig")
        assert destination.resident_of("mig") == footprint
        assert source.resident_of("mig") == 0
        assert destination.resident_bytes <= CAPACITY

    def test_failed_eviction_mid_handoff_leaves_refcounts_untouched(
        self, monkeypatch
    ):
        """Migrate-transactionality regression (ISSUE 10 satellite).

        ``admit_segments`` makes room *before* registering any claim; if
        the destination's eviction blows up mid-handoff, no refcount may
        have moved on either ledger — the caller releases the source only
        after a successful admit.
        """
        destination = KVLedger(CAPACITY)
        destination.charge_growth_segments(
            "resident", lineage_claims(1, [40, 40], shared_root=False)
        )
        claims = migrating_claims([30, 30, 30])
        source = KVLedger(CAPACITY)
        source.charge_growth_segments("mig", claims)
        owners_before = {
            node: dict(destination._segments[node].owners)
            for node in destination._segments
        }
        resident_before = destination.resident_bytes

        def boom(need, keep):
            raise RuntimeError("eviction failed mid-handoff")

        monkeypatch.setattr(destination, "_evict_for", boom)
        with pytest.raises(RuntimeError, match="mid-handoff"):
            destination.admit_segments("mig", claims)

        assert "mig" not in destination.owners
        assert destination.resident_bytes == resident_before
        assert {
            node: dict(destination._segments[node].owners)
            for node in destination._segments
        } == owners_before
        # The source still holds every byte: nothing leaked in transit.
        assert source.resident_of("mig") == sum(c.num_bytes for c in claims)

    def test_whole_footprint_capacity_check_raises_before_any_mutation(self):
        destination = KVLedger(CAPACITY)
        destination.charge_growth_segments(
            "resident", lineage_claims(1, [10], shared_root=False)
        )
        claims = migrating_claims([60, 60])  # 120 B > 100 B budget
        with pytest.raises(Exception) as excinfo:
            destination.admit_segments("mig", claims)
        assert "budget" in str(excinfo.value)
        assert "mig" not in destination.owners
        assert destination.resident_of("resident") == 10
