"""The bounded per-flow state table of the OpenState abstraction.

OpenState's core data structure is a *state table*: per-flow entries
looked up with a **lookup-scope** key and written with an
**update-scope** key.  Keeping the two scopes separate is what lets one
packet modify the state another flow will read (the canonical example is
port knocking: the knock updates the state the later data connection
looks up).  Here both scopes are key-extractor callables over the
simulator's :class:`~repro.packet.flowkey.FlowKey`; the default is the
direction-independent canonical 5-tuple, which makes the table
bidirectional the way conntrack is.

The table follows the same cache-discipline contract as the EMC and the
megaflow cache:

* **bounded** — a capacity cap with LRU eviction on insert, so a SYN
  flood cannot grow it without bound;
* **idle eviction on lookup** — expiry is decided against the simulated
  clock passed by the caller, never wall clock, so runs are
  deterministic and replayable;
* **precise invalidation** — ``invalidate_matching(match)`` removes
  exactly the entries whose representative flow key a flowmod's match
  covers, mirroring ``ExactMatchCache.invalidate_matching``.
"""

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.packet.flowkey import FlowKey

#: Default key scope: the direction-independent canonical 5-tuple
#: (both directions of a transport flow map to the same entry).
def canonical_scope(key: FlowKey) -> Tuple[int, int, int, int, int]:
    if (key.ip_src, key.l4_src) <= (key.ip_dst, key.l4_dst):
        return (key.ip_src, key.ip_dst, key.ip_proto,
                key.l4_src, key.l4_dst)
    return (key.ip_dst, key.ip_src, key.ip_proto,
            key.l4_dst, key.l4_src)


def exact_scope(key: FlowKey) -> Tuple[int, int, int, int, int]:
    """Directional 5-tuple: each direction gets its own entry."""
    return (key.ip_src, key.ip_dst, key.ip_proto, key.l4_src, key.l4_dst)


def source_scope(key: FlowKey) -> int:
    """Per-source-host scope (rate limiting, scan detection)."""
    return key.ip_src


KeyScope = Callable[[FlowKey], Any]


class StateEntry:
    """One tracked flow: an XFSM state label plus per-flow registers."""

    __slots__ = ("scope_key", "flow_key", "state", "data",
                 "created", "last_seen")

    def __init__(self, scope_key: Any, flow_key: FlowKey, state: str,
                 data: Dict[str, Any], now: float) -> None:
        self.scope_key = scope_key
        self.flow_key = flow_key      # representative, for invalidation
        self.state = state
        self.data = data              # XFSM registers (counters, tokens)
        self.created = now
        self.last_seen = now

    def idle_for(self, now: float) -> float:
        return now - self.last_seen

    def __repr__(self) -> str:
        return "<StateEntry %r state=%s>" % (self.scope_key, self.state)


class StateTable:
    """Bounded per-flow state storage with split lookup/update scopes."""

    def __init__(
        self,
        name: str = "state",
        capacity: int = 65536,
        idle_timeout: float = 30.0,
        lookup_scope: KeyScope = canonical_scope,
        update_scope: Optional[KeyScope] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("state table capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.idle_timeout = idle_timeout
        self.lookup_scope = lookup_scope
        self.update_scope = update_scope or lookup_scope
        self._entries: "OrderedDict[Any, StateEntry]" = OrderedDict()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.updates = 0
        self.evictions_idle = 0
        self.evictions_capacity = 0
        self.invalidations = 0
        self.deletes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    # -- the data-path operations --------------------------------------------

    def lookup(self, flow_key: FlowKey, now: float) -> Optional[StateEntry]:
        """Lookup-scope read; idle entries are evicted on the spot.

        Evict-on-lookup keeps expiry a pure function of the simulated
        clock: no background timer, no wall-clock drift, bit-identical
        reruns.
        """
        self.lookups += 1
        scope_key = self.lookup_scope(flow_key)
        entry = self._entries.get(scope_key)
        if entry is None:
            self.misses += 1
            return None
        if entry.idle_for(now) >= self.idle_timeout:
            del self._entries[scope_key]
            self.evictions_idle += 1
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(scope_key)
        return entry

    def update(self, flow_key: FlowKey, state: str, now: float,
               data: Optional[Dict[str, Any]] = None) -> StateEntry:
        """Update-scope write: insert or refresh the entry.

        At capacity the least-recently-used entry is evicted to make
        room — the bound that keeps a SYN flood from exhausting memory.
        """
        scope_key = self.update_scope(flow_key)
        entry = self._entries.get(scope_key)
        if entry is None:
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.evictions_capacity += 1
            entry = StateEntry(scope_key, flow_key, state,
                               data if data is not None else {}, now)
            self._entries[scope_key] = entry
            self.inserts += 1
            return entry
        entry.state = state
        entry.last_seen = now
        if data is not None:
            entry.data = data
        self._entries.move_to_end(scope_key)
        self.updates += 1
        return entry

    def delete(self, flow_key: FlowKey) -> bool:
        scope_key = self.update_scope(flow_key)
        if self._entries.pop(scope_key, None) is not None:
            self.deletes += 1
            return True
        return False

    # -- housekeeping and the invalidation contract --------------------------

    def sweep(self, now: float) -> int:
        """Evict every idle-expired entry; returns how many went.

        The watchdog runs this against bypass-carried tables so a table
        whose flows migrated onto the p-2-p channel still sheds dead
        entries even though the switch no longer looks them up.
        """
        expired = [scope_key for scope_key, entry in self._entries.items()
                   if entry.idle_for(now) >= self.idle_timeout]
        for scope_key in expired:
            del self._entries[scope_key]
        self.evictions_idle += len(expired)
        return len(expired)

    def invalidate_matching(self, match) -> int:
        """Drop entries whose representative flow key ``match`` covers —
        the EMC precise-invalidation contract, applied to flow state:
        when the rule that delegated these flows is removed, their
        state must not leak into whatever rule replaces it."""
        stale = [scope_key for scope_key, entry in self._entries.items()
                 if match.matches(entry.flow_key)]
        for scope_key in stale:
            del self._entries[scope_key]
        self.invalidations += len(stale)
        return len(stale)

    def entries(self):
        """Snapshot iteration (appctl ``state/show``)."""
        return list(self._entries.values())
