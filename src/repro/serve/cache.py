"""Digest-verified result cache for the capacity-advisor service.

Every cacheable value in the service is a deterministic function of a
canonical descriptor (a capacity query, one candidate configuration),
so the cache key is the descriptor's digest and the cached value can be
*re-verified on every read*: each entry stores the canonical digest of
its own payload, recomputed at lookup time.  An entry whose payload no
longer matches its recorded checksum — a bit flip in the resident dict,
a corrupted journal line on disk — is **quarantined and recomputed,
never served**.  That is the difference between a cache and a rumor
mill: a hit is exactly as trustworthy as a fresh computation.

Persistence reuses :class:`~repro.harness.checkpoint.CheckpointStore`
in ``on_corrupt="quarantine"`` mode: the journal's per-record checksums
(PR 10) catch on-disk corruption at open, and the in-memory checksum
here catches anything that happens after load.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..harness.checkpoint import CheckpointStore
from ..validation.digest import digest_payload

__all__ = ["DigestCache"]


class DigestCache:
    """In-memory cache with per-entry checksums and optional journal.

    ``store`` (optional) is a :class:`CheckpointStore` opened by the
    caller; puts are journaled through it (fsynced, crash-safe) and its
    surviving records seed the cache, so a restarted service serves
    digest-identical answers for queries it has already computed.
    """

    def __init__(self, store: Optional[CheckpointStore] = None) -> None:
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._store = store
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.quarantined_keys: List[str] = []
        if store is not None:
            # Journal records already survived the store's own checksum
            # check; re-wrap them so reads keep verifying.
            for key in list(store.keys()):
                payload = store.load(key)
                self._entries[key] = {
                    "payload": payload, "sha": digest_payload(payload)}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[Any]:
        """Verified lookup: a corrupt entry counts as a miss, never a hit.

        Returns the payload or ``None``.  On checksum mismatch the
        entry is dropped, its key is recorded in ``quarantined_keys``
        and the caller recomputes — by construction the corrupt value
        cannot reach a response.
        """
        self.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        actual = digest_payload(entry["payload"])
        if actual != entry["sha"]:
            self._entries.pop(key, None)
            self.quarantined += 1
            self.quarantined_keys.append(key)
            self.misses += 1
            return None
        self.hits += 1
        return entry["payload"]

    def put(self, key: str, payload: Any) -> None:
        """Insert (idempotent per key) and journal when persistent."""
        if key in self._entries:
            return
        self._entries[key] = {"payload": payload,
                              "sha": digest_payload(payload)}
        if self._store is not None:
            self._store.save(key, payload)

    #: The store spelling of :meth:`put`, so a cache can back
    #: :func:`~repro.harness.checkpoint.journaled_map` directly.
    save = put

    def corrupt(self, key: str) -> bool:
        """Chaos-harness hook: flip the resident payload for ``key``.

        Returns True when an entry existed to corrupt.  The next
        :meth:`get` must quarantine it — tests assert exactly that.
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry["payload"] = {"corrupted": True,
                            "was": entry["payload"]}
        return True

    def snapshot(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "lookups": self.lookups,
                "hits": self.hits, "misses": self.misses,
                "quarantined": self.quarantined}
