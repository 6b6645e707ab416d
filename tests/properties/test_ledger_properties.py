"""Property-based invariants for the runtime KV ledger.

After *any* sequence of ``charge_growth_segments`` / ``restore`` /
``admit_segments`` / ``release`` with one private claim per owner (the
:func:`charge_growth` and :func:`admit` helpers) and
``charge_growth_segments`` with lineage claims (with or without a
cross-owner root):

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
implementation alive as the differential reference. Driven by claim
*deltas*, it must behave exactly like the full-replace ledger that
re-registered every claim each round; ``FullReplaceLedger`` keeps that
one, and the eviction frontier is checked against a brute-force scan.
"""

import cProfile
from dataclasses import dataclass, field

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from private_claims import private_claims, private_node_id
from repro.core.config import OffloadMode, baseline_config, fasttts_config
from repro.core.pool import DevicePool
from repro.errors import CapacityError
from repro.hardware.memory import KVLedger, KVSegment
from repro.kvcache.radix import RadixTree
from repro.search.registry import build_algorithm
from repro.workloads.datasets import build_dataset

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


def charge_growth(ledger, owner, num_bytes):
    """Report ``owner``'s whole footprint as one private claim."""
    return ledger.charge_growth_segments(owner, private_claims(owner, num_bytes))


def admit(ledger, owner, num_bytes):
    """Admit ``owner``'s whole footprint as one private claim."""
    return ledger.admit_segments(owner, private_claims(owner, num_bytes))


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
            charge_growth(ledger, owner, payload)
            expected[owner] = payload
        elif kind == "restore":
            ledger.restore(owner)
        elif kind == "admit":
            admit(ledger, owner, payload)
            expected[owner] = payload
        elif kind == "release":
            ledger.release(owner)
            expected.pop(owner, None)
        elif kind == "grow_segs":
            if private_only:
                charge_growth(ledger, owner, sum(payload))
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
    # The running totals, recomputed from the segments.
    resident = [seg for seg in ledger._segments.values() if seg.resident]
    unique = sum(max(seg.owners.values()) for seg in resident)
    logical = sum(sum(seg.owners.values()) for seg in resident)
    assert ledger.resident_bytes == unique
    assert ledger.logical_resident_bytes == logical
    assert ledger.shared_bytes == logical - unique >= 0
    # Every tree node is claimed or leads to a claimed one (no leak), and
    # a node nobody claims holds nothing.
    assert all(ledger._segments[leaf].owners for leaf in ledger.tree.leaves())
    for seg in ledger._segments.values():
        if not seg.owners:
            assert not seg.resident and seg.num_bytes == seg.floor == 0


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
    Evictions are labelled by owner; :func:`private_labels` names them
    as the ledger does.
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


def byte_op(ledger, kind, *args):
    """``kind`` on ``ledger``, by private claim where it names bytes."""
    helper = {"charge_growth": charge_growth, "admit": admit}.get(kind)
    return helper(ledger, *args) if helper else getattr(ledger, kind)(*args)


def private_labels(result):
    """A model result with its owner-labelled evictions named as the
    ledger reports them: ``(private node id, bytes)``."""
    def named(evictions):
        return [(private_node_id(owner), moved) for owner, moved in evictions]

    if isinstance(result, tuple):  # (restored, evictions)
        return result[0], named(result[1])
    return named(result) if isinstance(result, list) else result


def swap_bytes(kind, result):
    """``(bytes written out, bytes read back)`` a ledger call returned."""
    if kind == "release":
        return 0, 0
    restored, evictions = result if isinstance(result, tuple) else (0, result)
    return sum(moved for _, moved in evictions), restored


class TestPrivateClaimsMatchTheWholeSessionLedger:
    """The ledger driven as an off lane drives it: one private claim per
    owner, and no claim at all at 0 bytes."""

    @given(byte_ops)
    # A lone owner over the budget, re-admitted holding nothing: its
    # dropped claim is freed, not written out.
    @example([("charge_growth", "a", CAPACITY + 10), ("admit", "a", 0)])
    # Swapped out, then a report of no KV: the swapped bytes come back.
    @example([("charge_growth", "a", 60), ("charge_growth", "b", 70),
              ("charge_growth", "a", 0)])
    @settings(max_examples=300, deadline=None)
    def test_differential_against_the_reference_model(self, op_list):
        ledger, model = KVLedger(CAPACITY), WholeSessionModel(CAPACITY)
        swapped_out = swapped_in = 0
        for kind, owner, payload in op_list:
            args = tuple(a for a in (owner, payload) if a is not None)
            try:
                expected = getattr(model, kind)(*args)
            except CapacityError:
                with pytest.raises(CapacityError):
                    byte_op(ledger, kind, *args)
                continue
            got = byte_op(ledger, kind, *args)
            assert got == private_labels(expected), (kind, args)
            out, back = swap_bytes(kind, got)
            swapped_out += out
            swapped_in += back
            for name in OWNERS:
                assert ledger.resident_of(name) == model.resident.get(name, 0)
                assert ledger.swapped_of(name) == model.swapped.get(name, 0)
            assert swapped_out == model.swapped_out
            assert swapped_in == model.swapped_in
            assert ledger.peak_resident_bytes == model.peak
        for name in OWNERS:
            ledger.release(name)
        assert ledger.owners == [] and len(ledger.tree) == 0

    def test_an_owner_with_no_kv_is_never_booked(self):
        """A report that claims nothing for an unknown owner makes no
        owner and moves no tick; nothing of it is ever evicted or
        restored, and the evictions around it match the model."""
        ledger, model = KVLedger(CAPACITY), WholeSessionModel(CAPACITY)
        assert charge_growth(ledger, "idle", 0) == model.charge_growth("idle", 0)
        assert ledger.owners == [] and ledger._tick == 0
        assert charge_growth(ledger, "a", 60) == private_labels(
            model.charge_growth("a", 60)
        )
        assert charge_growth(ledger, "b", 70) == private_labels(
            model.charge_growth("b", 70)
        ) == (0, [(private_node_id("a"), 60)])
        assert ledger.resize(10) == private_labels(model.resize(10)) == [
            (private_node_id("b"), 70)
        ]
        tick = ledger._tick
        assert ledger.restore("idle") == model.restore("idle") == (0, [])
        assert ledger.restore("never-seen") == (0, [])
        assert ledger._tick == tick  # no LRU stamp moved
        assert ledger.owners == ["a", "b"]

    def test_admit_moves_no_swap_counter(self):
        """The incoming bytes of an admission are traffic the caller
        bills, never a restore (admission reports evictions only) — even
        when the admitted owner had been swapped out here."""
        ledger = KVLedger(CAPACITY)
        charge_growth(ledger, "a", 60)
        charge_growth(ledger, "b", 70)  # swaps a out
        assert ledger.swapped_of("a") == 60
        evicted = admit(ledger, "a", 60)
        assert evicted == [(private_node_id("b"), 70)]
        assert ledger.resident_of("a") == 60 and ledger.swapped_of("a") == 0

    def test_admit_over_capacity_raises_before_anything_moves(self):
        ledger = KVLedger(CAPACITY)
        charge_growth(ledger, "a", 60)
        def books():
            claims = {o: ledger.claims_of(o) for o in ledger.owners}
            return ledger._tick, claims, ledger.resident_bytes

        before = books()
        with pytest.raises(CapacityError):
            admit(ledger, "b", CAPACITY + 1)
        assert books() == before
        assert ledger.resident_of("a") == 60 and "b" not in ledger.owners


class TestSharedKVLedgerInvariants:
    """Lineage claims, optionally colliding on one cross-owner root."""

    @given(ops, st.booleans())
    # c drops its leaf and its share of a's root when re-admitted whole
    # and private: the freed leaf uncovers the root, which must go too.
    @example([("grow_segs", 0, [24]), ("grow_segs", 2, [1, 1]), ("admit", 2, 77)], True)
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


def incoming_claims(sizes):
    """A root->leaf chain for an incoming owner: the shared root (the
    prompt analogue, node 7) plus step nodes no ``apply_ops`` owner ever
    touches, so overlap with a populated ledger comes only through the
    root or an explicit same-lineage peer."""
    claims, parent = [], None
    for depth, size in enumerate(sizes):
        node = 7 if depth == 0 else 5000 + depth
        claims.append(KVSegment(node, parent, size))
        parent = node
    return claims


class TestAdmitSegments:
    """``admit_segments`` places a whole claim list at once: unique bytes
    only, and transactionally."""

    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=3),
        ops,
        st.integers(0, 3),
    )
    # The shared root is swapped out with a 30 B host copy when the
    # incoming owner claims 1 B of it: all 30 B come back, and need room.
    @example([1], [("grow_segs", 0, [30]), ("grow", 1, 71)], 0)
    @settings(max_examples=100, deadline=None)
    def test_unique_planned_bytes_is_footprint_minus_resident_overlap(
        self, sizes, history, peer_depth
    ):
        ledger = KVLedger(CAPACITY)
        claims = incoming_claims(sizes)
        # Arbitrary co-resident history (may leave the shared root
        # resident), plus optionally a same-problem peer holding a prefix
        # of the incoming lineage.
        apply_ops(ledger, history, shared_root=True)
        if peer_depth:
            ledger.charge_growth_segments("peer", claims[:peer_depth])
        footprint = sum(c.num_bytes for c in claims)
        overlap = sum(
            min(c.num_bytes, ledger.resident_segment_bytes(c.node_id))
            for c in claims
        )
        assert ledger.unique_planned_bytes(footprint, claims) == footprint - overlap
        # The admission itself: the owner holds its full footprint, and
        # capacity is never exceeded.
        ledger.admit_segments("new", claims)
        assert ledger.resident_of("new") == footprint
        assert ledger.resident_bytes <= CAPACITY

    def test_failed_eviction_mid_admission_leaves_refcounts_untouched(
        self, monkeypatch
    ):
        """``admit_segments`` makes room *before* registering any claim;
        if eviction blows up mid-admission, no refcount may have moved."""
        ledger = KVLedger(CAPACITY)
        ledger.charge_growth_segments(
            "resident", lineage_claims(1, [40, 40], shared_root=False)
        )
        claims = incoming_claims([30, 30, 30])
        owners_before = {
            node: dict(ledger._segments[node].owners) for node in ledger._segments
        }
        resident_before = ledger.resident_bytes

        def boom(need, keep):
            raise RuntimeError("eviction failed mid-admission")

        monkeypatch.setattr(ledger, "_evict_for", boom)
        with pytest.raises(RuntimeError, match="mid-admission"):
            ledger.admit_segments("new", claims)

        assert "new" not in ledger.owners
        assert ledger.resident_bytes == resident_before
        assert {
            node: dict(ledger._segments[node].owners) for node in ledger._segments
        } == owners_before

    def test_a_claim_the_admission_drops_is_discarded_not_written_out(self):
        """Re-admitted without its leaf, an owner's leaf makes room unreported."""
        ledger = KVLedger(CAPACITY)
        root, leaf = KVSegment(7, None, 40), KVSegment(1001, 7, 30)
        ledger.charge_growth_segments("a", [root, leaf])
        ledger.charge_growth_segments("b", [KVSegment(50, None, 20)])
        # 30 new bytes on 90 resident: a's leaf is the LRU victim, and a
        # drops it anyway, so b keeps its KV and nothing is written out.
        assert ledger.admit_segments("a", [root, KVSegment(1002, 7, 30)]) == []
        assert ledger.resident_of("b") == 20 and ledger.resident_bytes == 90
        assert [c.node_id for c in ledger.claims_of("a")] == [7, 1002]

    def test_whole_footprint_capacity_check_raises_before_any_mutation(self):
        ledger = KVLedger(CAPACITY)
        ledger.charge_growth_segments(
            "resident", lineage_claims(1, [10], shared_root=False)
        )
        claims = incoming_claims([60, 60])  # 120 B > 100 B budget
        with pytest.raises(Exception) as excinfo:
            ledger.admit_segments("new", claims)
        assert "budget" in str(excinfo.value)
        assert "new" not in ledger.owners
        assert ledger.resident_of("resident") == 10


class _RefTree(RadixTree):
    """The lane tree as the reference kept it, beside its segment table:
    a claim inserts its node or re-sizes it, and a node is removed once it
    is a leaf nobody claims."""

    def ensure_node(self, node_id, parent_id, token_len):
        node = self._nodes.get(node_id)
        if node is None:
            return self.add_node(node_id, parent_id, token_len)
        if node.parent_id != parent_id:
            raise ValueError(f"node {node_id} already exists under another parent")
        node.token_len = token_len
        return node

    def remove_leaf(self, node_id):
        node = self._nodes.pop(node_id)
        assert not node.children
        if node.parent_id is not None:
            self._nodes[node.parent_id].children.discard(node_id)


@dataclass(slots=True)
class _RefSegment:
    resident: bool = False
    stamp: int = 0
    owners: dict = field(default_factory=dict)
    num_bytes: int = 0
    logical: int = 0


class FullReplaceLedger:
    """The ledger before claim deltas, as the reference.

    Every report re-registers all of the owner's claims and stamps each
    segment; eviction rescans every segment for each victim. ``_register``,
    ``_evictable``, ``_evict_for`` and ``charge_growth_segments`` are the
    replaced code, with every victim reported as ``(node id, bytes)``, an
    unknown owner's report of no claims ignored and a report that leaves
    an owner no claim billing its host copies, as the ledger does; the
    rest is what they need around them, with admission making room for a
    swapped-out segment's whole host copy, dropping the claims it no
    longer makes first, and refusing a kept footprint over the budget.
    """

    def __init__(self, capacity):
        self._capacity = capacity
        self._tree = _RefTree()
        self._segments, self._owner_segs = {}, {}
        self._tick = self._resident = self._logical = 0
        self.peak_resident_bytes = self.peak_logical_bytes = 0
        self.peak_shared_bytes = 0

    def resident_segment_bytes(self, node_id):
        seg = self._segments.get(node_id)
        return seg.num_bytes if seg is not None and seg.resident else 0

    def _drop_claim(self, owner, node_id):
        seg = self._segments[node_id]
        if seg.resident:
            self._resident -= seg.num_bytes
            self._logical -= seg.logical
        seg.logical -= seg.owners.pop(owner)
        if seg.owners:
            seg.num_bytes = max(seg.owners.values())
            if seg.resident:
                self._resident += seg.num_bytes
                self._logical += seg.logical
            return
        del self._segments[node_id]
        node = node_id
        while node is not None and node not in self._segments:
            radix_node = self._tree.get(node)
            if radix_node.children:
                break
            self._tree.remove_leaf(node)
            node = radix_node.parent_id

    def _register(self, owner, claims, new_ids):
        self._tick += 1
        held = self._owner_segs.get(owner, set())
        # Left with no claim, it ran on what it held: host copies count.
        from_host = 0 if claims else sum(
            self._segments[node].num_bytes
            for node in held if not self._segments[node].resident
        )
        for node in held - new_ids:
            self._drop_claim(owner, node)
        self._owner_segs[owner] = new_ids
        for claim in claims:
            node, num_bytes = claim.node_id, claim.num_bytes
            self._tree.ensure_node(node, claim.parent_id, num_bytes)
            seg = self._segments.get(node)
            if seg is None:
                seg = self._segments[node] = _RefSegment()
            elif seg.resident:
                self._resident -= seg.num_bytes
                self._logical -= seg.logical
            else:
                from_host += seg.num_bytes
            seg.logical += num_bytes - seg.owners.get(owner, 0)
            seg.owners[owner] = num_bytes
            seg.num_bytes = (
                num_bytes if num_bytes >= seg.num_bytes else max(seg.owners.values())
            )
            seg.resident = True
            seg.stamp = self._tick
            self._resident += seg.num_bytes
            self._logical += seg.logical
        return from_host

    def _evictable(self, node_id, keep):
        seg = self._segments[node_id]
        if not seg.resident or node_id in keep:
            return False
        return not any(
            child in self._segments and self._segments[child].resident
            for child in self._tree.get(node_id).children
        )

    def _evict_for(self, need, keep):
        evicted = []
        while need > 0:
            candidates = [
                node for node in self._segments if self._evictable(node, keep)
            ]
            if not candidates:
                break
            victim = min(candidates, key=lambda n: (self._segments[n].stamp, n))
            seg = self._segments[victim]
            seg.resident = False
            self._resident -= seg.num_bytes
            self._logical -= seg.logical
            need -= seg.num_bytes
            evicted.append((victim, seg.num_bytes))
        return evicted

    def _note_peaks(self):
        self.peak_resident_bytes = max(self.peak_resident_bytes, self._resident)
        self.peak_logical_bytes = max(self.peak_logical_bytes, self._logical)
        self.peak_shared_bytes = max(
            self.peak_shared_bytes, self._logical - self._resident
        )

    def charge_growth_segments(self, owner, segments):
        claims = list(segments)
        if not claims and owner not in self._owner_segs:
            return 0, self._evict_for(self._resident - self._capacity, set())
        keep = {claim.node_id for claim in claims}
        restored = self._register(owner, claims, keep)
        evicted = self._evict_for(self._resident - self._capacity, keep)
        self._note_peaks()
        return restored, evicted

    def restore(self, owner):
        nodes = self._owner_segs.get(owner, ())
        restored = 0
        for node in nodes:
            seg = self._segments[node]
            if not seg.resident:
                seg.resident = True
                restored += seg.num_bytes
                self._logical += seg.logical
        if not restored:
            return 0, []
        self._tick += 1
        for node in nodes:
            self._segments[node].stamp = self._tick
        self._resident += restored
        evicted = self._evict_for(self._resident - self._capacity, nodes)
        self._note_peaks()
        return restored, evicted

    def admit_segments(self, owner, segments):
        claims = list(segments)
        new_ids = {claim.node_id for claim in claims}
        footprint = incoming = 0
        for claim in claims:
            seg = self._segments.get(claim.node_id)
            others = seg.owners if seg is not None else {}
            # Every claimed segment ends up resident at its longest claim.
            size = max(
                [claim.num_bytes] + [b for o, b in others.items() if o != owner]
            )
            footprint += size
            if seg is not None and seg.resident:
                incoming += max(0, claim.num_bytes - seg.num_bytes)
            else:  # a swapped-out segment comes back at its longest claim
                incoming += size
        if footprint > self._capacity:
            raise CapacityError("over budget")
        held = self._owner_segs.get(owner, set())
        for node in held - new_ids:  # freed first, never written out
            self._drop_claim(owner, node)
        held.intersection_update(new_ids)
        evicted = self._evict_for(
            self._resident + incoming - self._capacity, new_ids
        )
        self._register(owner, claims, new_ids)
        self._note_peaks()
        return evicted

    def release(self, owner):
        before = self._resident
        for node in self._owner_segs.pop(owner, ()):
            self._drop_claim(owner, node)
        return before - self._resident

    def resize(self, capacity):
        self._capacity = capacity
        return self._evict_for(self._resident - self._capacity, set())

    # -- what the differential test compares --------------------------------

    def claims(self, owner):
        return {
            node: self._segments[node].owners[owner]
            for node in self._owner_segs.get(owner, ())
        }

    def stamps(self):
        return {node: seg.stamp for node, seg in self._segments.items()}


# A small lane forest: node -> parent. Claims are ancestor-closed subsets.
FOREST = {1: None, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: None, 8: 7, 9: 8}
DEPTH = {1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 0, 8: 1, 9: 2}
DELTA_OWNERS = ("a", "b", "c", "d")
# How a report is spelled: only what changed; every claim re-sent with
# what vanished (plus an id never claimed); every claim, no ``vanished``.
REPORT_SPELLINGS = ("delta", "resend", "whole")

# Few distinct lengths, so co-owners both agree and disagree on a node,
# and re-reported claims are often unchanged.
claim_sets = st.dictionaries(
    st.sampled_from(sorted(FOREST)), st.sampled_from([0, 10, 20, 30]), max_size=6
)
delta_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("report"), st.sampled_from(DELTA_OWNERS), claim_sets,
            st.sampled_from(REPORT_SPELLINGS),
        ),
        st.tuples(
            st.just("private"), st.sampled_from(DELTA_OWNERS),
            st.integers(0, 60), st.booleans(),
        ),
        st.tuples(st.just("restore"), st.sampled_from(DELTA_OWNERS), st.none(), st.none()),
        st.tuples(st.just("admit"), st.sampled_from(DELTA_OWNERS), claim_sets, st.none()),
        st.tuples(st.just("release"), st.sampled_from(DELTA_OWNERS), st.none(), st.none()),
        st.tuples(st.just("resize"), st.none(), st.integers(1, 130), st.none()),
    ),
    min_size=1,
    max_size=40,
)


def forest_claims(sizes):
    """An ancestor-closed claim list, parents first; a missing ancestor
    claims its first descendant's length."""
    sizes = dict(sizes)
    for node in sorted(sizes, key=DEPTH.get, reverse=True):
        parent = FOREST[node]
        while parent is not None and parent not in sizes:
            sizes[parent] = sizes[node]
            parent = FOREST[parent]
    return [
        KVSegment(node, FOREST[node], sizes[node])
        for node in sorted(sizes, key=lambda n: (DEPTH[n], n))
    ]


def assert_same_books(ledger, ref):
    assert ledger.owners == sorted(ref._owner_segs)
    for owner in ledger.owners:
        held = {c.node_id: c.num_bytes for c in ledger.claims_of(owner)}
        assert held == ref.claims(owner), owner
        assert ledger.resident_of(owner) == sum(
            b for n, b in held.items() if ref._segments[n].resident
        )
        assert ledger.swapped_of(owner) == sum(
            b for n, b in held.items() if not ref._segments[n].resident
        )
    assert ledger.resident_bytes == ref._resident
    assert ledger.logical_resident_bytes == ref._logical
    for name in ("peak_resident_bytes", "peak_logical_bytes", "peak_shared_bytes"):
        assert getattr(ledger, name) == getattr(ref, name), name
    # Residency and LRU stamps (per-owner ticks and floors vs explicit
    # stamps) of the claimed nodes, and every lane-tree node's parent and
    # length.
    claimed = {n: s for n, s in ledger._segments.items() if s.owners}
    assert {n: s.resident for n, s in claimed.items()} == {
        n: s.resident for n, s in ref._segments.items()
    }
    assert {n: ledger._stamp(s) for n, s in claimed.items()} == ref.stamps()
    assert {
        n: (node.parent_id, node.token_len) for n, node in ledger.tree._nodes.items()
    } == {
        n: (node.parent_id, node.token_len) for n, node in ref._tree._nodes.items()
    }


def run_delta_op(ledger, ref, held, op):
    """Apply one op to both ledgers: ``(got, want)``, or None when both
    refused it. ``held`` maps owner -> node ids the ledgers hold for it;
    the delta ledger hears changes, the reference whole claim lists."""
    kind, owner, payload, flag = op
    if kind == "report":
        claims = forest_claims(payload)
        before = ref.claims(owner)
        new = {c.node_id for c in claims}
        vanished = held.get(owner, set()) - new
        held[owner] = new
        if flag == "whole":
            got = ledger.charge_growth_segments(owner, claims)
        elif flag == "resend":
            vanished |= {99}  # ids it never claimed are ignored
            got = ledger.charge_growth_segments(owner, claims, sorted(vanished))
        else:
            upserts = [c for c in claims if before.get(c.node_id) != c.num_bytes]
            got = ledger.charge_growth_segments(owner, upserts, sorted(vanished))
        return got, ref.charge_growth_segments(owner, claims)
    if kind == "private":
        claims = private_claims(owner, payload)
        new = {c.node_id for c in claims}
        if flag:  # the whole list
            got = ledger.charge_growth_segments(owner, claims)
        else:
            vanished = held.get(owner, set()) - new
            got = ledger.charge_growth_segments(owner, claims, sorted(vanished))
        held[owner] = new
        return got, ref.charge_growth_segments(owner, claims)
    if kind == "admit":
        claims = forest_claims(payload)
        try:
            want = ref.admit_segments(owner, claims)
        except CapacityError:
            with pytest.raises(CapacityError):
                ledger.admit_segments(owner, claims)
            return None
        held[owner] = {c.node_id for c in claims}
        return ledger.admit_segments(owner, claims), want
    if kind == "restore":
        return ledger.restore(owner), ref.restore(owner)
    if kind == "release":
        held.pop(owner, None)
        return ledger.release(owner), ref.release(owner)
    return ledger.resize(payload), ref.resize(payload)


class TestDeltaMatchesFullReplace:
    """Claim deltas against the full-replace ledger, op by op.

    Histories mix co-owners that disagree on a node's length, owners that
    leave, owners switching between lineage and private claims, resize
    storms, restores and whole-list admissions (``admit_segments``).
    """

    @given(delta_ops)
    @example([  # b re-sizes a shared node; a re-asserts its length unsent
        ("report", "a", {2: 10}, "delta"),
        ("report", "b", {2: 20}, "delta"),
        ("report", "a", {2: 10}, "delta"),
    ])
    @settings(max_examples=4 * settings.default.max_examples, deadline=None)
    def test_same_returns_books_stamps_and_tree(self, op_list):
        ledger, ref = KVLedger(CAPACITY), FullReplaceLedger(CAPACITY)
        held: dict[str, set[int]] = {}
        for op in op_list:
            result = run_delta_op(ledger, ref, held, op)
            if result is not None:
                got, want = result
                assert got == want, op
            assert_same_books(ledger, ref)


def ledger_books(ledger):
    """Everything an admission may not touch when it refuses."""
    return (
        ledger._tick, ledger.resident_bytes,
        {owner: ledger.claims_of(owner) for owner in ledger.owners},
        {node: seg.resident for node, seg in ledger._segments.items()},
    )


class TestAdmissionFitsTheKeptFootprint:
    """An admission lands within the budget, or refuses before anything moves.

    Eviction cannot touch the segments the incoming owner claims, so the
    budget must hold all of them at their longest claim — a co-owner's
    longer copy, resident or swapped out, included — not just the incoming
    owner's own claim bytes.
    """

    @given(delta_ops, st.sampled_from(DELTA_OWNERS), claim_sets)
    # a's 30 B claims, swapped out by a storm, come back whole for a
    # newcomer claiming 10 B of each: 90 B kept on a 50 B budget.
    @example(
        [
            ("report", "a", {4: 30}, "delta"),
            ("resize", None, 1, None),
            ("resize", None, 50, None),
        ],
        "b",
        {4: 10},
    )
    # The same copies still resident: 3 x 30 B + 2 x 10 B kept on 95 B.
    @example(
        [("report", "a", {4: 30}, "delta"), ("resize", None, 95, None)],
        "b",
        {4: 10, 6: 10},
    )
    @settings(max_examples=300, deadline=None)
    def test_lands_within_budget_or_moves_nothing(self, history, owner, incoming):
        ledger, ref = KVLedger(CAPACITY), FullReplaceLedger(CAPACITY)
        held: dict[str, set[int]] = {}
        for op in history:
            run_delta_op(ledger, ref, held, op)
        before = ledger_books(ledger)
        try:
            ledger.admit_segments(owner, forest_claims(incoming))
        except CapacityError:
            assert ledger_books(ledger) == before
            return
        assert ledger.resident_bytes <= ledger.capacity_bytes


def brute_force_storm(ledger, capacity):
    """What ``resize(capacity)`` must report: victim after victim, the
    least ``(stamp, node)`` resident segment with no resident claimed
    child — the predicate eviction rescanned every segment for."""
    segments = ledger._segments
    resident = {node for node, seg in segments.items() if seg.resident}
    need = ledger.resident_bytes - capacity
    report = []
    while need > 0:
        frontier = [
            node for node in resident
            if not any(child in resident for child in ledger.tree.get(node).children)
        ]
        if not frontier:
            break
        victim = min(frontier, key=lambda n: (ledger._stamp(segments[n]), n))
        resident.remove(victim)
        num_bytes = segments[victim].num_bytes
        need -= num_bytes
        report.append((victim, num_bytes))
    return report


class TestEvictionFrontier:
    @given(delta_ops, st.integers(1, 130))
    @settings(max_examples=3 * settings.default.max_examples, deadline=None)
    def test_victims_are_the_brute_force_lru_leaf_frontier(self, op_list, capacity):
        ledger, ref = KVLedger(CAPACITY), FullReplaceLedger(CAPACITY)
        held: dict[str, set[int]] = {}
        for op in op_list:
            run_delta_op(ledger, ref, held, op)
        expected = brute_force_storm(ledger, capacity)
        assert ledger.resize(capacity) == expected

    def test_zero_byte_restore_keeps_its_stamp(self):
        """Zero bytes come back without a tick, so the segment stays as
        old as it was: the next storm takes it before younger ones."""
        ledger, ref = KVLedger(CAPACITY), FullReplaceLedger(CAPACITY)
        for book in (ledger, ref):
            book.charge_growth_segments("a", [KVSegment(25, None, 0)])
            book.charge_growth_segments("b", [KVSegment(20, None, 50)])
            assert book.resize(10) == [(25, 0), (20, 50)]
            book.resize(CAPACITY)
            book.charge_growth_segments("x", [KVSegment(40, None, 10)])
            assert book.restore("a") == (0, [])
            assert book.resize(5) == [(25, 0), (40, 10)]
        assert_same_books(ledger, ref)

    def test_reclaimed_ancestor_counts_its_resident_children(self):
        """A node left claim-less under a resident child, then claimed
        again, is no frontier segment: its child leaves first."""
        ledger, ref = KVLedger(CAPACITY), FullReplaceLedger(CAPACITY)
        root, child = KVSegment(1, None, 10), KVSegment(2, 1, 10)
        for book in (ledger, ref):
            book.charge_growth_segments("a", [root, child])
            book.charge_growth_segments("b", [root])
        # a lets the root go but keeps its child (a report no session
        # makes, but one the ledger takes) and b leaves: the root stays
        # in the tree, claim-less, as the child's ancestor.
        ledger.charge_growth_segments("a", [], [1])
        ref.charge_growth_segments("a", [child])
        ledger.release("b")
        ref.release("b")
        assert 1 in ledger.tree and not ledger._segments[1].owners
        for book in (ledger, ref):
            book.charge_growth_segments("d", [KVSegment(1, None, 5)])
        ledger.charge_growth_segments("a", [], ())  # the child is now newer
        ref.charge_growth_segments("a", [child])
        assert ledger.resize(1) == ref.resize(1) == [(2, 10), (1, 5)]
        assert_same_books(ledger, ref)

    def test_a_claim_less_ancestor_is_no_victim(self):
        """The storm that takes a claim-less ancestor's last resident
        child and goes on leaves the ancestor alone: it holds nothing to
        swap out."""
        ledger, ref = KVLedger(CAPACITY), FullReplaceLedger(CAPACITY)
        root, child = KVSegment(1, None, 10), KVSegment(2, 1, 10)
        for book in (ledger, ref):
            book.charge_growth_segments("a", [root, child])
        ledger.charge_growth_segments("a", [], [1])  # see the test above
        ref.charge_growth_segments("a", [child])
        for book in (ledger, ref):
            book.charge_growth_segments("b", [KVSegment(3, None, 10)])
        assert 1 in ledger.tree and not ledger._segments[1].owners
        assert brute_force_storm(ledger, 1) == [(2, 10), (3, 10)]
        assert ledger.resize(1) == ref.resize(1) == [(2, 10), (3, 10)]
        assert_same_books(ledger, ref)

    def test_frontier_rebuild_keeps_every_candidate(self):
        """300 reports of churn (one new leaf each, the last dropped — a
        history the Hypothesis strategies do not reach) leave a storm
        that still takes the brute-force scan's victims."""
        ledger = KVLedger(1 << 20)
        ledger.charge_growth_segments(
            "kept", [KVSegment(1, None, 10), KVSegment(2, 1, 10)]
        )
        gone: list[int] = []
        for node in range(100, 400):  # one new leaf per report, the last dropped
            ledger.charge_growth_segments("churn", [KVSegment(node, None, 1)], gone)
            gone = [node]
        expected = brute_force_storm(ledger, 1)
        assert [victim for victim, _ in expected] == [2, 1]
        assert ledger.resize(1) == expected

    def test_storm_costs_python_calls_linear_in_victims(self):
        """Evicting V of 2 000 resident segments costs O(V) Python calls —
        not a rescan of every segment per victim."""
        ledger = KVLedger(1 << 40)
        chains = []
        for owner in range(200):
            claims, parent = [], None
            for depth in range(10):
                node = owner * 100 + depth
                claims.append(KVSegment(node, parent, 100))
                parent = node
            chains.append(claims)
            ledger.charge_growth_segments(f"s{owner}", claims)
        for owner, claims in enumerate(chains):  # re-sent whole: a tick
            ledger.charge_growth_segments(f"s{owner}", claims)  # each
        assert len(ledger._segments) == 2000
        profiler = cProfile.Profile(subcalls=False, builtins=False)
        profiler.enable()
        evicted = ledger.resize(ledger.resident_bytes // 2)
        profiler.disable()
        victims = len(evicted)
        assert victims == 1000
        assert evicted[:10] == [(9 - d, 100) for d in range(10)]  # s0 first
        calls = sum(entry.callcount for entry in profiler.getstats())
        assert calls <= 4 * victims


def _session_lane(offload: bool, config=fasttts_config, kv_sharing="prefix"):
    """A lane (``kv_sharing="prefix"`` unless told) and the problem its
    sessions solve."""
    dataset = build_dataset("amc23", seed=0, size=1)
    config = config(
        memory_fraction=0.9, seed=0,
        offload=OffloadMode.FORCE if offload else OffloadMode.OFF,
    )
    lane = DevicePool.build(config, dataset, ["rtx4090"], kv_sharing=kv_sharing)[0]
    return lane, list(dataset)[0]


def resident_claims(session):
    return session.claim_names.resident(session)


class TestSessionDeltas:
    """What sessions report round by round adds up to their whole claim
    list (``ClaimNames.resident``).

    Three sessions of one problem (two canonical, so they share step
    segments, and one forked replica) step in a drawn order on a prefix
    lane, under resize storms, optionally offloading (a model switch every
    round). At n=16 the
    verifier's own cache evicts mid-solve; the baseline config has no
    prefix caching, so its caches drop their KV every round. After every
    round the ledger must hold exactly the session's whole list,
    and agree op for op with a full-replace ledger fed those claims whole.
    """

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=45),
        st.dictionaries(st.integers(0, 44), st.floats(0.2, 1.5), max_size=6),
        st.booleans(),
        st.sampled_from([fasttts_config, baseline_config]),
        st.sampled_from([4, 16]),
    )
    @settings(max_examples=25, deadline=None)
    def test_ledger_holds_kv_segments_after_every_round(
        self, order, storms, offload, config, n
    ):
        lane, problem = _session_lane(offload, config=config)
        ledger = lane.ledger
        ref = FullReplaceLedger(ledger.capacity_bytes)
        algorithm = build_algorithm("beam_search", n)
        server = lane.server
        sessions = [
            server.session(problem, algorithm, session_id="s0"),
            server.session(problem, algorithm, session_id="s1"),
            server.session(
                problem, algorithm, session_id="s2", rng=server.rng.fork("replica", 1)
            ),
        ]
        for turn, pick in enumerate(order):
            session = sessions[pick]
            if not session.state.live:
                continue
            assert ledger.restore(session.session_id) == ref.restore(session.session_id)
            session.step()
            if session.state.live:
                got = ledger.charge_growth_segments(
                    session.session_id, *lane.session_claims(session)
                )
                want = ref.charge_growth_segments(
                    session.session_id, resident_claims(session)
                )
                assert got == want
                assert set(ledger.claims_of(session.session_id)) == set(
                    resident_claims(session)
                )
            else:
                assert ledger.release(session.session_id) == ref.release(
                    session.session_id
                )
            if turn in storms:
                capacity = max(1, int(ledger.resident_bytes * storms[turn]))
                assert ledger.resize(capacity) == ref.resize(capacity)
            assert_same_books(ledger, ref)

    @pytest.mark.parametrize("offload", [False, True])
    def test_a_solve_adds_up_to_kv_segments(self, offload):
        """An n=16 solve alone: without offloading its verifier cache
        evicts mid-solve; with it the device holds one model's cache at a
        time. Every round's report still adds up to the whole list."""
        lane, problem = _session_lane(offload)
        ref = FullReplaceLedger(lane.ledger.capacity_bytes)
        session = lane.server.session(
            problem, build_algorithm("beam_search", 16), session_id="s0"
        )
        while True:
            session.step()
            if not session.state.live:
                break
            got = lane.ledger.charge_growth_segments(
                "s0", *lane.session_claims(session)
            )
            assert got == ref.charge_growth_segments("s0", resident_claims(session))
            assert set(lane.ledger.claims_of("s0")) == set(resident_claims(session))
            assert_same_books(lane.ledger, ref)
        assert session.outcome.plan.offload == offload
        assert offload or session.outcome.result.ver_evicted_segments > 0


class TestPrivateClaimsOfSessions:
    """What an off lane reports: one private root per session, named by
    the session alone, and nothing while the session holds no device KV."""

    def test_a_session_without_kv_holds_no_owner(self):
        """The baseline config flushes its KV every round: every report
        claims nothing, and the ledger never books the session."""
        lane, problem = _session_lane(False, baseline_config, kv_sharing="off")
        session = lane.server.session(
            problem, build_algorithm("beam_search", 4), session_id="s0"
        )
        rounds = 0
        while True:
            session.step()
            if not session.state.live:
                break
            rounds += 1
            assert session.resident_kv_bytes == 0
            assert lane.session_claims(session) == ((), None)
            assert lane.ledger.charge_growth_segments(
                "s0", *lane.session_claims(session)
            ) == (0, [])
            assert lane.ledger.owners == []
        assert rounds > 1 and lane.ledger._tick == 0

    def test_a_private_node_id_is_the_same_on_every_lane(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        problem = list(dataset)[0]
        config = fasttts_config(memory_fraction=0.9, seed=0)
        pool = DevicePool.build(config, dataset, ["rtx4090"] * 2, kv_sharing="off")
        named = []
        for lane in pool:
            session = lane.server.session(
                problem, build_algorithm("beam_search", 4), session_id="s0"
            )
            while not session.resident_kv_bytes:  # setup holds no KV yet
                session.step()
            (claim,), vanished = lane.session_claims(session)
            assert vanished is None and claim.parent_id is None
            assert claim.num_bytes == session.resident_kv_bytes > 0
            lane.ledger.charge_growth_segments("s0", [claim])
            named.append(claim.node_id)
            assert lane.ledger.claims_of("s0") == [claim]
        assert named == [private_node_id("s0")] * 2


class TestResyncIsDerived:
    """A report is the whole list exactly when the device caches differ
    from the previous report's; every other report is a delta. Nothing
    tells the naming that a model switch happened."""

    @staticmethod
    def report(lane, session):
        """One post-round report, applied; True when it was the whole list."""
        upserts, vanished = lane.session_claims(session)
        lane.ledger.charge_growth_segments(session.session_id, upserts, vanished)
        assert set(lane.ledger.claims_of(session.session_id)) == set(
            resident_claims(session)
        )
        return vanished is None

    def test_offloading_model_switches_resync_once_each(self):
        lane, problem = _session_lane(offload=True)
        session = lane.server.session(
            problem, build_algorithm("beam_search", 4), session_id="s0"
        )
        whole, on_device = [], []
        while True:
            session.step()
            if not session.state.live:
                break
            whole.append(self.report(lane, session))
            on_device.append([tag for tag, _, _ in session.device_caches()])
        switched = [False] + [
            now != before for before, now in zip(on_device, on_device[1:])
        ]
        assert whole == switched
        assert ["gen"] in on_device and ["ver"] in on_device
        assert whole.count(True) >= 2  # gen -> ver -> gen at least
