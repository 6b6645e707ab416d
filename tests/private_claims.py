"""Private ledger claims named as an off lane names them.

Shared by the ledger tests, which drive a ``KVLedger`` with the claims
``ClaimNames.private`` reports instead of building names of their own.
"""

from types import SimpleNamespace

from repro.core.claims import ClaimNames


def private_claims(owner, num_bytes):
    """``owner``'s whole footprint as an off lane names it: what
    ``ClaimNames.private`` reports for a session of that id and size
    (one private root claim, or none at 0 bytes)."""
    session = SimpleNamespace(session_id=owner, resident_kv_bytes=num_bytes)
    return ClaimNames({}).private(session)[0]


def private_node_id(owner):
    """The lane-tree node id of ``owner``'s private claim."""
    (claim,) = private_claims(owner, 1)
    return claim.node_id
