"""The bounded per-flow state table (repro.state.table) and the
conntrack determinism/observability satellite.

The StateTable is the storage half of the OpenState tier: split
lookup/update scopes, LRU capacity bound, idle **eviction on lookup**
(expiry is a pure function of the simulated clock, so reruns are
bit-identical), and the EMC-style precise-invalidation contract.  The
second half of this file pins the matching guest-side behaviour: the
ConnectionTracker's evict-on-lookup determinism and its
``repro_conntrack_*`` metrics collector.
"""

from repro.apps.conntrack import ConnectionTracker
from repro.obs.export import prometheus_text
from repro.obs.plane import Observability
from repro.openflow.match import Match
from repro.packet.builder import make_udp_packet
from repro.packet.flowkey import extract_flow_key
from repro.packet.headers import IP_PROTO_UDP
from repro.state.table import (
    StateTable,
    canonical_scope,
    exact_scope,
    source_scope,
)

from tests.helpers import mk_mbuf

import pytest


def key(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1000,
        dst_port=2000):
    packet = make_udp_packet(src_ip=src_ip, dst_ip=dst_ip,
                             src_port=src_port, dst_port=dst_port)
    return extract_flow_key(packet, 0)


FORWARD = key()
REVERSE = key(src_ip="10.0.0.2", dst_ip="10.0.0.1",
              src_port=2000, dst_port=1000)


class TestScopes:
    def test_canonical_scope_is_direction_independent(self):
        assert canonical_scope(FORWARD) == canonical_scope(REVERSE)

    def test_exact_scope_is_directional(self):
        assert exact_scope(FORWARD) != exact_scope(REVERSE)

    def test_source_scope_keys_on_source_host(self):
        assert source_scope(FORWARD) == FORWARD.ip_src
        assert source_scope(key(src_port=9999)) == source_scope(FORWARD)


class TestStateTable:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            StateTable(capacity=0)

    def test_miss_then_insert_then_hit(self):
        table = StateTable(capacity=4)
        assert table.lookup(FORWARD, 0.0) is None
        table.update(FORWARD, "ESTABLISHED", 0.0, {"n": 1})
        entry = table.lookup(FORWARD, 0.1)
        assert entry is not None and entry.state == "ESTABLISHED"
        assert entry.data == {"n": 1}
        assert (table.misses, table.hits, table.inserts) == (1, 1, 1)

    def test_bidirectional_under_canonical_scope(self):
        table = StateTable(capacity=4)
        table.update(FORWARD, "SYN_SENT", 0.0)
        entry = table.lookup(REVERSE, 0.1)  # the reply direction
        assert entry is not None and entry.state == "SYN_SENT"
        assert len(table) == 1

    def test_update_refreshes_existing_entry(self):
        table = StateTable(capacity=4)
        first = table.update(FORWARD, "NEW", 0.0)
        second = table.update(REVERSE, "ESTABLISHED", 1.0)
        assert first is second  # canonical scope: same entry
        assert second.state == "ESTABLISHED"
        assert second.last_seen == 1.0
        assert (table.inserts, table.updates) == (1, 1)

    def test_capacity_bound_evicts_lru(self):
        table = StateTable(capacity=2, lookup_scope=exact_scope)
        key_a = key(src_port=1)
        key_b = key(src_port=2)
        key_c = key(src_port=3)
        table.update(key_a, "A", 0.0)
        table.update(key_b, "B", 0.0)
        table.lookup(key_a, 0.1)            # touch A: B becomes LRU
        table.update(key_c, "C", 0.2)       # evicts B, not A
        assert len(table) == 2
        assert table.lookup(key_b, 0.3) is None
        assert table.lookup(key_a, 0.3) is not None
        assert table.evictions_capacity == 1

    def test_evict_on_lookup_is_deterministic(self):
        """Expiry happens at the lookup that observes it — a pure
        function of the caller's simulated clock, never wall time."""
        def run():
            table = StateTable(capacity=4, idle_timeout=1.0)
            table.update(FORWARD, "ESTABLISHED", 0.0)
            alive = table.lookup(FORWARD, 0.999) is not None
            gone = table.lookup(FORWARD, 1.999) is None  # idle >= 1.0
            return (alive, gone, len(table), table.evictions_idle,
                    table.hits, table.misses)

        first, second = run(), run()
        assert first == second == (True, True, 0, 1, 1, 1)

    def test_sweep_evicts_every_expired_entry(self):
        table = StateTable(capacity=8, idle_timeout=1.0,
                           lookup_scope=exact_scope)
        table.update(key(src_port=1), "A", 0.0)
        table.update(key(src_port=2), "B", 0.0)
        table.update(key(src_port=3), "C", 0.8)
        assert table.sweep(1.5) == 2      # A and B idle >= 1.0
        assert len(table) == 1
        assert table.evictions_idle == 2

    def test_invalidate_matching_is_precise(self):
        table = StateTable(capacity=8, lookup_scope=exact_scope)
        table.update(key(src_port=1), "A", 0.0)
        table.update(key(src_port=2), "B", 0.0)
        gone = table.invalidate_matching(
            Match(eth_type=0x0800, ip_proto=IP_PROTO_UDP, l4_src=1))
        assert gone == 1
        assert table.lookup(key(src_port=1), 0.1) is None
        assert table.lookup(key(src_port=2), 0.1) is not None
        assert table.invalidations == 1

    def test_delete(self):
        table = StateTable(capacity=8, lookup_scope=exact_scope)
        table.update(key(src_port=1), "A", 0.0)
        table.update(key(src_port=2), "B", 0.0)
        assert table.delete(key(src_port=1)) is True
        assert table.delete(key(src_port=1)) is False
        assert len(table) == 1

    def test_entries_snapshot(self):
        table = StateTable(capacity=8, lookup_scope=exact_scope)
        table.update(key(src_port=1), "A", 0.0)
        table.update(key(src_port=2), "B", 0.0)
        assert sorted(entry.state for entry in table.entries()) \
            == ["A", "B"]


class TestConntrackEvictOnLookup:
    """Satellite: the guest tracker mirrors the table's discipline —
    an idle-expired connection dies at the lookup that notices, with a
    dedicated counter, deterministically."""

    def observe(self, tracker, now):
        mbuf = mk_mbuf()
        tracker.observe(extract_flow_key(mbuf.packet, 0), mbuf, now,
                        from_inside=True)

    def test_lookup_with_clock_evicts_idle_entry(self):
        tracker = ConnectionTracker(idle_timeout=1.0)
        self.observe(tracker, 0.0)
        assert tracker.lookup(FORWARD, now=0.5) is not None
        assert tracker.lookup(FORWARD, now=1.5) is None
        assert len(tracker) == 0
        assert tracker.evicted_on_lookup == 1
        assert tracker.evicted_idle == 1

    def test_lookup_without_clock_never_evicts(self):
        # Legacy callers that pass no clock read-only probe the table.
        tracker = ConnectionTracker(idle_timeout=1.0)
        self.observe(tracker, 0.0)
        assert tracker.lookup(FORWARD) is not None
        assert tracker.evicted_on_lookup == 0

    def test_eviction_point_is_deterministic(self):
        def run():
            tracker = ConnectionTracker(idle_timeout=1.0)
            self.observe(tracker, 0.0)
            probes = [tracker.lookup(FORWARD, now=t) is not None
                      for t in (0.25, 0.75, 0.9999, 1.0, 1.5)]
            return probes, tracker.evicted_on_lookup, len(tracker)

        first, second = run(), run()
        assert first == second
        assert first[0] == [True, True, True, False, False]
        assert first[1] == 1  # evicted exactly once, at the 1.0 probe

    def test_observe_after_lookup_eviction_recreates(self):
        tracker = ConnectionTracker(idle_timeout=1.0)
        self.observe(tracker, 0.0)
        assert tracker.lookup(FORWARD, now=2.0) is None
        self.observe(tracker, 2.0)
        assert len(tracker) == 1
        assert tracker.created_total == 2


class TestConntrackCollector:
    def test_exports_repro_conntrack_metrics(self):
        tracker = ConnectionTracker(max_connections=128,
                                    idle_timeout=1.0)
        mbuf = mk_mbuf()
        tracker.observe(extract_flow_key(mbuf.packet, 0), mbuf, 0.0,
                        from_inside=True)
        tracker.lookup(FORWARD, now=5.0)  # one evict-on-lookup
        obs = Observability()
        obs.register_conntrack(tracker, vm_name="vm1")
        text = prometheus_text(obs.registry)
        assert 'repro_conntrack_connections{vm="vm1"} 0' in text
        assert 'repro_conntrack_capacity{vm="vm1"} 128' in text
        assert 'repro_conntrack_created_total{vm="vm1"} 1' in text
        assert 'repro_conntrack_evicted_on_lookup_total{vm="vm1"} 1' \
            in text
        assert 'repro_conntrack_rejected_full_total{vm="vm1"} 0' in text
