"""Unit tests for the EMC and the tuple-space classifier."""

import pytest

from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry, FlowTable
from repro.packet import extract_flow_key, make_udp_packet
from repro.packet.headers import ETH_TYPE_IPV4, ipv4_to_int
from repro.vswitch.classifier import TupleSpaceClassifier
from repro.vswitch.emc import ExactMatchCache


def key(in_port=1, **kwargs):
    return extract_flow_key(make_udp_packet(**kwargs), in_port)


def entry(match, out=2, priority=0x8000):
    return FlowEntry(match, [OutputAction(out)], priority=priority)


class TestEmc:
    def test_miss_then_hit(self):
        emc = ExactMatchCache()
        k = key()
        assert emc.lookup(k) is None
        flow = entry(Match(in_port=1))
        emc.insert(k, flow)
        assert emc.lookup(k) is flow
        assert emc.hits == 1 and emc.misses == 1

    def test_eviction_at_capacity(self):
        # insert_inv_prob=1 turns the probabilistic filter off so the
        # eviction path is exercised deterministically.
        emc = ExactMatchCache(capacity=2, insert_inv_prob=1)
        keys = [key(src_port=1000 + i) for i in range(3)]
        for k in keys:
            emc.insert(k, entry(Match(in_port=1)))
        assert emc.evictions == 1
        assert emc.lookup(keys[0]) is None  # oldest evicted

    def test_reinsert_same_key_no_eviction(self):
        emc = ExactMatchCache(capacity=1)
        k = key()
        emc.insert(k, entry(Match(in_port=1)))
        emc.insert(k, entry(Match(in_port=1)))
        assert emc.evictions == 0

    def test_hit_rate(self):
        emc = ExactMatchCache()
        k = key()
        emc.lookup(k)
        emc.insert(k, entry(Match(in_port=1)))
        emc.lookup(k)
        assert emc.hit_rate == 0.5

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ExactMatchCache(capacity=0)

    def test_traversal_values_round_trip(self):
        # The datapath caches pipeline traversal *tuples*, not bare
        # entries; the cache must hand them back unchanged.
        emc = ExactMatchCache()
        k = key()
        traversal = (entry(Match(in_port=1)), entry(Match()))
        emc.insert(k, traversal)
        assert emc.lookup(k) is traversal

    def test_precise_invalidation_only_affects_entry(self):
        emc = ExactMatchCache()
        flow_a = entry(Match(in_port=1))
        flow_b = entry(Match(in_port=2))
        ka, kb = key(in_port=1), key(in_port=2)
        emc.insert(ka, (flow_a,))
        emc.insert(kb, (flow_b,))
        assert emc.invalidate_entry(flow_a) == 1
        assert emc.precise_evictions == 1
        # The invalidated key is a stale hit; the other key survives.
        assert emc.lookup(ka) is None
        assert emc.stale_hits == 1
        assert emc.lookup(kb) == (flow_b,)

    def test_precise_invalidation_idempotent(self):
        emc = ExactMatchCache()
        flow = entry(Match(in_port=1))
        emc.insert(key(), (flow,))
        assert emc.invalidate_entry(flow) == 1
        assert emc.invalidate_entry(flow) == 0
        assert emc.precise_evictions == 1

    def test_invalidate_matching_covers_only_matching_keys(self):
        emc = ExactMatchCache()
        flow = entry(Match())
        k1, k2 = key(in_port=1), key(in_port=2)
        emc.insert(k1, (flow,))
        emc.insert(k2, (flow,))
        assert emc.invalidate_matching(Match(in_port=1)) == 1
        assert emc.lookup(k1) is None  # covered by the new rule's match
        assert emc.lookup(k2) == (flow,)

    def test_stale_aware_eviction_prefers_tombstones(self):
        emc = ExactMatchCache(capacity=2, insert_inv_prob=1)
        flow_a = entry(Match(in_port=1))
        flow_b = entry(Match(in_port=2))
        ka, kb = key(in_port=1), key(in_port=2)
        emc.insert(ka, (flow_a,))
        emc.insert(kb, (flow_b,))
        emc.invalidate_entry(flow_b)
        # At capacity: the tombstoned entry dies, the live oldest lives.
        emc.insert(key(in_port=3), (entry(Match(in_port=3)),))
        assert emc.stale_evictions == 1
        assert emc.evictions == 0
        assert emc.lookup(ka) == (flow_a,)

    def test_probabilistic_insertion_skips_above_threshold(self):
        emc = ExactMatchCache(capacity=8, insert_inv_prob=8,
                              insert_threshold=0.5)
        for i in range(64):
            emc.insert(key(src_port=2000 + i), (entry(Match()),))
        assert emc.insertions_skipped > 0
        assert emc.insertions + emc.insertions_skipped == 64
        # Below the threshold nothing was gated.
        assert emc.insertions >= emc.capacity * emc.insert_threshold

    def test_probabilistic_insertion_deterministic(self):
        def admitted():
            emc = ExactMatchCache(capacity=8, insert_inv_prob=8)
            for i in range(64):
                emc.insert(key(src_port=2000 + i), (entry(Match()),))
            return emc.insertions, emc.insertions_skipped

        assert admitted() == admitted()

    def test_refresh_never_gated(self):
        emc = ExactMatchCache(capacity=8, insert_inv_prob=8)
        k = key()
        emc.insert(k, (entry(Match()),))
        for i in range(3):
            emc.insert(key(src_port=3000 + i), (entry(Match()),))
        # Occupancy is now at the gating threshold, but refreshing a
        # cached key must always be admitted.
        before = emc.insertions
        emc.insert(k, (entry(Match()),))
        assert emc.insertions == before + 1
        assert emc.insertions_skipped == 0


class TestClassifier:
    def test_lookup_matches_table(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        table.add(entry(Match(in_port=1), out=2, priority=10))
        table.add(entry(Match(in_port=2), out=3, priority=10))
        k = key(in_port=1)
        assert classifier.lookup(k) is table.lookup(k)

    def test_priority_across_subtables(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        low = entry(Match(in_port=1), out=2, priority=5)
        high = entry(
            Match(in_port=1, eth_type=ETH_TYPE_IPV4), out=3, priority=50
        )
        table.add(low)
        table.add(high)
        assert classifier.lookup(key(in_port=1)) is high

    def test_masked_subtable(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        subnet = entry(
            Match(eth_type=ETH_TYPE_IPV4,
                  ip_dst=(ipv4_to_int("10.0.0.0"), 0xFF000000)),
            out=4,
        )
        table.add(subnet)
        assert classifier.lookup(key(dst_ip="10.9.9.9")) is subnet
        assert classifier.lookup(key(dst_ip="11.0.0.1")) is None

    def test_removal_tracked(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        table.add(entry(Match(in_port=1), out=2))
        table.delete(Match(in_port=1))
        assert classifier.lookup(key(in_port=1)) is None
        assert classifier.subtable_count == 0

    def test_replace_tracked(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        table.add(entry(Match(in_port=1), out=2, priority=5))
        new = entry(Match(in_port=1), out=9, priority=5)
        table.add(new)
        assert classifier.lookup(key(in_port=1)) is new
        assert len(classifier) == 1

    def test_equal_priority_fifo_tiebreak_matches_table(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        first = entry(Match(in_port=1), out=2, priority=7)
        second = entry(Match(), out=3, priority=7)
        table.add(first)
        table.add(second)
        k = key(in_port=1)
        assert classifier.lookup(k) is table.lookup(k) is first

    def test_wildcard_subtable(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        catch_all = entry(Match(), out=9, priority=0)
        table.add(catch_all)
        assert classifier.lookup(key()) is catch_all

    def test_max_priority_pruning_recomputed(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        high = entry(Match(in_port=1), out=2, priority=100)
        low = entry(Match(in_port=2), out=3, priority=1)
        table.add(high)
        table.add(low)
        table.delete(Match(in_port=1), strict=True, priority=100)
        assert classifier.lookup(key(in_port=2)) is low

    def test_bind_existing_table(self):
        table = FlowTable()
        table.add(entry(Match(in_port=1), out=2))
        classifier = TupleSpaceClassifier(table)
        assert classifier.lookup(key(in_port=1)) is not None

    def test_ranked_order_descends_by_priority(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        table.add(entry(Match(in_port=1), out=2, priority=1))
        table.add(entry(Match(in_port=1, eth_type=ETH_TYPE_IPV4),
                        out=3, priority=99))
        priorities = [row[2] for row in classifier.ranking()]
        assert priorities == sorted(priorities, reverse=True)

    def test_early_exit_skips_lower_priority_subtables(self):
        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        table.add(entry(Match(in_port=1), out=2, priority=100))
        table.add(entry(Match(in_port=1, eth_type=ETH_TYPE_IPV4),
                        out=3, priority=1))
        probed_before = classifier.subtables_probed
        assert classifier.lookup(key(in_port=1)).priority == 100
        # The priority-1 subtable was never probed: the ranked scan
        # breaks once no remaining subtable can outrank the winner.
        assert classifier.subtables_probed == probed_before + 1

    def test_lookup_hinted_confirms_correct_hint(self):
        from repro.vswitch.classifier import signature_of

        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        rule = entry(Match(in_port=1), out=2, priority=10)
        table.add(rule)
        found, confirmed = classifier.lookup_hinted(
            key(in_port=1), signature_of(rule))
        assert found is rule and confirmed

    def test_lookup_hinted_never_trusts_outranked_hint(self):
        from repro.vswitch.classifier import signature_of

        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        low = entry(Match(in_port=1), out=2, priority=5)
        high = entry(Match(in_port=1, eth_type=ETH_TYPE_IPV4),
                     out=3, priority=50)
        table.add(low)
        table.add(high)
        # Hint points at the low-priority subtable; verification must
        # still surface the high-priority winner.
        found, confirmed = classifier.lookup_hinted(
            key(in_port=1), signature_of(low))
        assert found is high and not confirmed

    def test_lookup_hinted_stale_signature_falls_back(self):
        from repro.vswitch.classifier import signature_of

        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        rule = entry(Match(in_port=1), out=2)
        table.add(rule)
        stale = signature_of(entry(Match(in_port=1,
                                         eth_type=ETH_TYPE_IPV4)))
        found, confirmed = classifier.lookup_hinted(key(in_port=1), stale)
        assert found is rule and not confirmed

    def test_lookup_hinted_equal_priority_fifo_across_subtables(self):
        from repro.vswitch.classifier import signature_of

        table = FlowTable()
        classifier = TupleSpaceClassifier(table)
        first = entry(Match(in_port=1), out=2, priority=7)
        second = entry(Match(), out=3, priority=7)
        table.add(first)
        table.add(second)
        # Hinting at the wildcard subtable must not beat FIFO order.
        found, confirmed = classifier.lookup_hinted(
            key(in_port=1), signature_of(second))
        assert found is first and not confirmed


class TestSmc:
    def test_probe_miss_then_hit(self):
        from repro.vswitch.smc import SignatureMatchCache

        smc = SignatureMatchCache(capacity=16)
        k = key()
        assert smc.probe(k) is None
        signature = frozenset([("in_port", 0xFFFFFFFF)])
        smc.insert(k, signature)
        assert smc.probe(k) == signature
        smc.account(True)
        smc.account(False)
        assert smc.hits == 1 and smc.misses == 1
        assert smc.hit_rate == 0.5

    def test_collision_overwrites(self):
        from repro.vswitch.smc import SignatureMatchCache

        smc = SignatureMatchCache(capacity=1)  # every key collides
        sig_a = frozenset([("in_port", 0xFFFFFFFF)])
        sig_b = frozenset([("eth_type", 0xFFFF)])
        smc.insert(key(in_port=1), sig_a)
        smc.insert(key(in_port=2), sig_b)
        assert smc.replacements == 1
        assert len(smc) == 1
        assert smc.probe(key(in_port=3)) == sig_b

    def test_capacity_must_be_power_of_two(self):
        from repro.vswitch.smc import SignatureMatchCache

        with pytest.raises(ValueError):
            SignatureMatchCache(capacity=12)
        with pytest.raises(ValueError):
            SignatureMatchCache(capacity=0)
