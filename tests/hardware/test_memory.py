"""Tests for the lane KV ledger."""

import pytest

from repro.errors import CapacityError
from repro.hardware.memory import KVLedger, KVSegment, SharedKVLedger


def charge_growth(ledger, owner, num_bytes):
    """Report ``owner``'s whole footprint as one private claim."""
    return ledger.charge_growth_segments(
        owner, (ledger.private_claim(owner, num_bytes),)
    )


def admit(ledger, owner, num_bytes):
    """Admit ``owner``'s whole footprint as one private claim."""
    return ledger.admit_segments(owner, (ledger.private_claim(owner, num_bytes),))


class TestKVLedger:
    def test_growth_within_capacity_is_free(self):
        ledger = KVLedger(100)
        assert charge_growth(ledger, "a", 40) == (0, [])
        assert charge_growth(ledger, "b", 50) == (0, [])
        assert ledger.resident_bytes == 90
        assert ledger.free_bytes == 10
        assert ledger.swapped_out_bytes == 0

    def test_growth_evicts_lru_co_resident(self):
        ledger = KVLedger(100)
        charge_growth(ledger, "a", 60)
        charge_growth(ledger, "b", 30)
        # a grows past what fits next to b: b (LRU is a... a just grew) —
        # the victim is the least-recently-run *other* owner
        restored, evicted = charge_growth(ledger, "a", 80)
        assert restored == 0
        assert evicted == [("b", 30)]
        assert ledger.resident_of("b") == 0
        assert ledger.swapped_of("b") == 30
        assert ledger.swapped_out_bytes == 30
        assert ledger.resident_bytes == 80

    def test_restore_brings_back_evicted_kv(self):
        ledger = KVLedger(100)
        charge_growth(ledger, "a", 60)
        charge_growth(ledger, "b", 30)
        charge_growth(ledger, "a", 80)  # evicts b
        back, evicted = ledger.restore("b")
        assert back == 30
        assert evicted == [("a", 80)]  # a displaced in turn
        assert ledger.resident_of("b") == 30
        assert ledger.swapped_of("a") == 80
        assert ledger.swapped_in_bytes == 30

    def test_restore_without_eviction_is_noop(self):
        ledger = KVLedger(100)
        charge_growth(ledger, "a", 60)
        assert ledger.restore("a") == (0, [])
        assert ledger.restore("never-seen") == (0, [])

    def test_eviction_order_is_least_recently_run(self):
        ledger = KVLedger(100)
        charge_growth(ledger, "a", 30)
        charge_growth(ledger, "b", 30)
        charge_growth(ledger, "a", 30)  # refreshes a: b is now LRU
        _, evicted = charge_growth(ledger, "c", 70)
        assert [owner for owner, _ in evicted] == ["b"]

    def test_lone_owner_may_fill_the_budget(self):
        ledger = KVLedger(100)
        assert charge_growth(ledger, "a", 100) == (0, [])
        assert ledger.free_bytes == 0

    def test_admit_rejects_over_capacity(self):
        ledger = KVLedger(100)
        with pytest.raises(CapacityError):
            admit(ledger, "a", 101)
        assert ledger.resident_bytes == 0

    def test_admit_evicts_to_fit(self):
        ledger = KVLedger(100)
        charge_growth(ledger, "a", 70)
        evicted = admit(ledger, "b", 60)  # admit still returns evictions only
        assert evicted == [("a", 70)]
        assert ledger.resident_of("b") == 60

    def test_release_frees_everything(self):
        ledger = KVLedger(100)
        charge_growth(ledger, "a", 60)
        charge_growth(ledger, "b", 30)
        charge_growth(ledger, "a", 80)  # b evicted
        assert ledger.release("b") == 0  # b had no device-resident bytes
        assert ledger.swapped_of("b") == 0  # host side gone too
        assert ledger.release("a") == 80
        assert ledger.resident_bytes == 0
        assert ledger.owners == []

    def test_peak_tracking(self):
        ledger = KVLedger(100)
        charge_growth(ledger, "a", 60)
        charge_growth(ledger, "b", 35)
        charge_growth(ledger, "a", 10)
        assert ledger.peak_resident_bytes == 95

    def test_validation(self):
        with pytest.raises(ValueError):
            KVLedger(0)
        ledger = KVLedger(10)
        with pytest.raises(ValueError):
            charge_growth(ledger, "a", -1)
        with pytest.raises(ValueError):
            admit(ledger, "a", -1)


class TestChargeGrowthOnEvictedOwner:
    """Regression: growth on a (partially) evicted owner must not lose
    its swapped-out bytes — the PCIe read back is part of serving it."""

    def test_growth_routes_through_restore_accounting(self):
        ledger = KVLedger(100)
        charge_growth(ledger, "a", 60)
        charge_growth(ledger, "b", 30)
        charge_growth(ledger, "a", 80)  # evicts b: 30 B on host
        assert ledger.swapped_of("b") == 30
        # b grows while evicted: the ledger reports the restore so the
        # caller can bill the PCIe read, and the books stay conserved.
        restored, evicted = charge_growth(ledger, "b", 45)
        assert restored == 30
        assert ledger.swapped_in_bytes == 30
        assert ledger.swapped_of("b") == 0
        assert ledger.resident_of("b") == 45
        # conservation: nothing silently vanished from the totals — the
        # cumulative write-outs are b's original 30 plus a, which b's own
        # growth displaced in turn
        assert ledger.swapped_out_bytes == 110
        assert [owner for owner, _ in evicted] == ["a"]

    def test_growth_on_resident_owner_restores_nothing(self):
        ledger = KVLedger(100)
        charge_growth(ledger, "a", 40)
        restored, evicted = charge_growth(ledger, "a", 70)
        assert restored == 0 and evicted == []
        assert ledger.swapped_in_bytes == 0


class TestSharedKVLedger:
    """Segment-granular accounting with cross-session prefix sharing."""

    @staticmethod
    def seg(node, parent, num_bytes):
        return KVSegment(node, parent, num_bytes)

    def lineage(self, *sizes, base=1):
        """A root->leaf chain of claims with the given byte sizes."""
        claims, parent = [], None
        for i, size in enumerate(sizes):
            node = base * 1000 + i
            claims.append(self.seg(node, parent, size))
            parent = node
        return claims

    def test_shared_segments_billed_once(self):
        ledger = SharedKVLedger(1000)
        chain = self.lineage(40, 30, 20)
        ledger.charge_growth_segments("a", chain)
        ledger.charge_growth_segments("b", chain)
        assert ledger.resident_bytes == 90  # not 180
        assert ledger.resident_of("a") == 90
        assert ledger.resident_of("b") == 90
        assert ledger.logical_resident_bytes == 180
        assert ledger.shared_bytes == 90
        assert ledger.dedup_ratio == pytest.approx(180 / 90)

    def test_divergent_suffixes_are_private(self):
        ledger = SharedKVLedger(1000)
        root = self.seg(1, None, 50)
        ledger.charge_growth_segments("a", [root, self.seg(2, 1, 30)])
        ledger.charge_growth_segments("b", [root, self.seg(3, 1, 20)])
        assert ledger.resident_bytes == 100
        assert ledger.shared_bytes == 50  # only the root
        assert [c.node_id for c in ledger.claims_of("a")] == [1, 2]
        assert [c.node_id for c in ledger.claims_of("b")] == [1, 3]

    def test_eviction_spares_the_running_sessions_path(self):
        ledger = SharedKVLedger(100)
        shared = self.seg(1, None, 40)
        ledger.charge_growth_segments("a", [shared, self.seg(2, 1, 30)])
        # b's growth oversubscribes: only a's private leaf is evictable —
        # the shared root is on b's own path and never leaves.
        restored, evicted = ledger.charge_growth_segments(
            "b", [shared, self.seg(3, 1, 50)]
        )
        assert restored == 0
        assert evicted == [("seg:2", 30)]
        assert ledger.resident_bytes == 90
        assert ledger.resident_of("a") == 40  # root still resident for a
        assert ledger.swapped_of("a") == 30
        assert ledger.swapped_out_bytes == 30

    def test_restore_charges_unique_bytes_only(self):
        ledger = SharedKVLedger(100)
        shared = self.seg(1, None, 40)
        ledger.charge_growth_segments("a", [shared, self.seg(2, 1, 30)])
        ledger.charge_growth_segments("b", [shared, self.seg(3, 1, 50)])
        # a resumes: only its private 30 B leaf crosses PCIe — the shared
        # root stayed resident on b's behalf.
        restored, evicted = ledger.restore("a")
        assert restored == 30
        assert ledger.swapped_in_bytes == 30
        assert [label for label, _ in evicted] == ["seg:3"]
        assert ledger.resident_of("a") == 70

    def test_release_keeps_shared_segments_for_survivors(self):
        ledger = SharedKVLedger(1000)
        chain = self.lineage(40, 30)
        ledger.charge_growth_segments("a", chain)
        ledger.charge_growth_segments("b", chain + [self.seg(9, 1001, 25)])
        freed = ledger.release("a")
        assert freed == 0  # every byte is still needed by b
        assert ledger.resident_bytes == 95
        freed = ledger.release("b")
        assert freed == 95
        assert ledger.resident_bytes == 0

    def test_growth_on_evicted_owner_routes_restore(self):
        """Same regression as the base ledger, at segment granularity."""
        ledger = SharedKVLedger(100)
        ledger.charge_growth_segments("a", self.lineage(60, base=1))
        ledger.charge_growth_segments("b", self.lineage(70, base=2))  # evicts a
        assert ledger.swapped_of("a") == 60
        restored, _ = ledger.charge_growth_segments("a", self.lineage(65, base=1))
        assert restored == 60
        assert ledger.swapped_in_bytes == 60
        assert ledger.swapped_of("a") == 0

    def test_leaf_frontier_eviction_order(self):
        """A prefix never leaves the device before its resident suffix."""
        ledger = SharedKVLedger(100)
        ledger.charge_growth_segments("a", self.lineage(30, 30, base=1))
        _, evicted = ledger.charge_growth_segments("b", self.lineage(80, base=2))
        # a's leaf (deeper, same stamp) must go before its root.
        assert [label for label, _ in evicted] == ["seg:1001", "seg:1000"]

    def test_byte_level_fallback_and_admit(self):
        ledger = SharedKVLedger(100)
        charge_growth(ledger, "a", 70)
        assert ledger.resident_of("a") == 70
        evicted = admit(ledger, "b", 60)
        assert evicted and ledger.resident_of("b") == 60
        with pytest.raises(CapacityError):
            admit(ledger, "c", 101)

    def test_owner_leaf_is_deepest_then_lowest_id(self):
        ledger = SharedKVLedger(1000)
        root = self.seg(5, None, 10)
        ledger.charge_growth_segments(
            "a", [root, self.seg(9, 5, 10), self.seg(7, 5, 10)]
        )
        assert ledger.owner_leaf("a") == 7  # depth 1 tie -> lowest id
        assert ledger.owner_leaf("nobody") is None

    def test_peaks_and_segment_growth(self):
        ledger = SharedKVLedger(1000)
        ledger.charge_growth_segments("a", self.lineage(40, base=1))
        ledger.charge_growth_segments("b", self.lineage(40, base=1))
        # the actively decoding tail lengthens: same node, more bytes
        ledger.charge_growth_segments("a", self.lineage(55, base=1))
        assert ledger.resident_bytes == 55  # longest claim wins
        assert ledger.peak_resident_bytes == 55
        assert ledger.peak_logical_bytes == 95
        assert ledger.peak_shared_bytes == 40
