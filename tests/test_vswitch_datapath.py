"""Unit tests for the datapath fast path."""

import pytest

from repro.mem.memzone import MemzoneRegistry
from repro.openflow.actions import (
    ControllerAction,
    OutputAction,
    SetFieldAction,
)
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry, FlowTable
from repro.packet.headers import ETH_TYPE_IPV4, Ethernet, MacAddress
from repro.vswitch.datapath import Datapath
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import drain, mk_mbuf


@pytest.fixture
def switch():
    return VSwitchd()


def add_flow(switch, match, actions, priority=0x8000):
    switch.bridge.table.add(FlowEntry(match, actions, priority=priority))


class TestForwarding:
    def test_port_to_port_forward(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport),
                 [OutputAction(b.ofport)])
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        cost = switch.step_dataplane()
        assert cost > 0
        delivered = drain(b.rings.to_guest)
        assert delivered == [mbuf]
        assert a.rx_packets == 1 and b.tx_packets == 1

    def test_table_miss_drops_without_connection(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert switch.datapath.miss_upcalls == 1
        assert mbuf.refcnt == 0  # freed

    def test_second_packet_hits_emc(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        for _ in range(2):
            a.rings.to_switch.enqueue(mk_mbuf())
            switch.step_dataplane()
        assert switch.datapath.classifier_hits == 1
        assert switch.datapath.emc_hits == 1

    def test_emc_disabled(self):
        switch = VSwitchd()
        switch.datapath.emc_enabled = False
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        for _ in range(2):
            a.rings.to_switch.enqueue(mk_mbuf())
            switch.step_dataplane()
        assert switch.datapath.emc_hits == 0
        assert switch.datapath.classifier_hits == 2

    def test_flow_counters_updated(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        mbuf = mk_mbuf(frame_size=64)
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        entry = switch.bridge.table.entries()[0]
        assert entry.packet_count == 1
        assert entry.byte_count == 64

    def test_drop_rule(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        add_flow(switch, Match(in_port=a.ofport), [])  # explicit drop
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert mbuf.refcnt == 0
        assert switch.datapath.miss_upcalls == 0

    def test_multicast_refcounts(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        c = switch.add_dpdkr_port("dpdkr2")
        add_flow(switch, Match(in_port=a.ofport),
                 [OutputAction(b.ofport), OutputAction(c.ofport)])
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert drain(b.rings.to_guest) == [mbuf]
        assert drain(c.rings.to_guest) == [mbuf]
        assert mbuf.refcnt == 2

    def test_output_to_unknown_port_drops(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(99)])
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert mbuf.refcnt == 0

    def test_tx_ring_overflow_counts_drops(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1", ring_size=4)
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        for _ in range(8):
            a.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        assert b.tx_packets == 3  # ring capacity - 1
        assert b.tx_dropped == 5

    def test_set_field_rewrites_and_reroutes(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        new_mac = 0x020000000099
        add_flow(switch, Match(in_port=a.ofport),
                 [SetFieldAction("eth_dst", new_mac),
                  OutputAction(b.ofport)])
        mbuf = mk_mbuf()
        a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        delivered = drain(b.rings.to_guest)[0]
        assert delivered.packet.get(Ethernet).dst == MacAddress(new_mac)
        assert delivered.userdata is None  # flow-key cache invalidated

    def test_controller_action_upcalls(self):
        upcalls = []
        table = FlowTable()
        datapath = Datapath(
            table,
            upcall_handler=lambda m, p, r: upcalls.append((p, r)) or m.free(),
        )
        registry = MemzoneRegistry()
        from repro.dpdk.dpdkr import DpdkrSharedRings
        from repro.vswitch.ports import DpdkrOvsPort

        port = DpdkrOvsPort(1, DpdkrSharedRings(registry, "dpdkr0"))
        datapath.add_port(port)
        table.add(FlowEntry(Match(in_port=1), [ControllerAction()]))
        port.rings.to_switch.enqueue(mk_mbuf())
        datapath.process_ports([port])
        assert upcalls == [(1, "action")]


class TestPortManagement:
    def test_duplicate_ofport_rejected(self, switch):
        switch.add_dpdkr_port("dpdkr0", ofport=5)
        with pytest.raises(ValueError):
            switch.add_dpdkr_port("dpdkr1", ofport=5)

    def test_del_port(self, switch):
        port = switch.add_dpdkr_port("dpdkr0")
        removed = switch.del_port(port.ofport)
        assert removed is port
        with pytest.raises(ValueError):
            switch.datapath.remove_port(port.ofport)

    def test_port_by_name(self, switch):
        port = switch.add_dpdkr_port("dpdkr7")
        assert switch.port_by_name("dpdkr7") is port
        with pytest.raises(KeyError):
            switch.port_by_name("nope")

    def test_core_assignment_round_robin(self):
        switch = VSwitchd(n_pmd_cores=2)
        for index in range(4):
            switch.add_dpdkr_port("dpdkr%d" % index)
        assignment = switch.core_assignment()
        assert len(assignment[0]) == 2 and len(assignment[1]) == 2


class TestVectorizedFastPath:
    def _wire(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        return a, b

    def test_burst_grouped_into_flow_batches(self, switch):
        a, b = self._wire(switch)
        # Two flows interleaved in one burst: A B A B A B.
        for i in range(6):
            a.rings.to_switch.enqueue(mk_mbuf(src_port=1000 + i % 2))
        switch.step_dataplane()
        datapath = switch.datapath
        assert datapath.flow_batches == 2
        assert datapath.packets_batched == 6
        assert datapath.batch_fill_counts == {3: 2}
        assert datapath.avg_batch_fill == 3.0
        assert len(drain(b.rings.to_guest)) == 6

    def test_batch_resolves_once_per_distinct_flow(self, switch):
        a, b = self._wire(switch)
        for _ in range(8):
            a.rings.to_switch.enqueue(mk_mbuf(src_port=1000))
        switch.step_dataplane()
        # One classifier resolution served all 8 packets; counters
        # still count packets, not flow batches.
        assert switch.datapath.classifier_hits == 8
        assert switch.datapath.classifier.lookups == 1
        assert len(drain(b.rings.to_guest)) == 8

    def test_same_flow_order_preserved(self, switch):
        a, b = self._wire(switch)
        mbufs = [mk_mbuf(src_port=1000) for _ in range(4)]
        for mbuf in mbufs:
            a.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        assert drain(b.rings.to_guest) == mbufs

    def test_smc_serves_after_emc_disabled(self):
        switch = VSwitchd()
        switch.datapath.emc_enabled = False
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        for _ in range(2):
            a.rings.to_switch.enqueue(mk_mbuf())
            switch.step_dataplane()
        datapath = switch.datapath
        # First packet: full dpcls walk, SMC learns the subtable.
        # Second packet: validated SMC hit.
        assert datapath.smc.hits == 1
        assert datapath.smc_hits == 1
        assert datapath.classifier_hits == 2  # smc_hits is a subset
        assert datapath.emc_hits == 0
        assert len(drain(b.rings.to_guest)) == 2

    def test_smc_disabled_uses_dpcls_only(self):
        switch = VSwitchd()
        switch.datapath.emc_enabled = False
        switch.datapath.smc_enabled = False
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        for _ in range(2):
            a.rings.to_switch.enqueue(mk_mbuf())
            switch.step_dataplane()
        assert switch.datapath.smc_hits == 0
        assert switch.datapath.smc.hits == 0
        assert switch.datapath.classifier_hits == 2

    def test_precise_invalidation_spares_unrelated_flows(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        b = switch.add_dpdkr_port("dpdkr1")
        c = switch.add_dpdkr_port("dpdkr2")
        add_flow(switch, Match(in_port=a.ofport), [OutputAction(b.ofport)])
        add_flow(switch, Match(in_port=c.ofport), [OutputAction(b.ofport)])
        for port in (a, c):
            port.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        assert len(switch.datapath.emc) == 2
        # Deleting the rule for port c tombstones only c's cached key.
        switch.bridge.table.delete(Match(in_port=c.ofport))
        assert switch.datapath.emc.precise_evictions == 1
        a.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        assert switch.datapath.emc_hits == 1  # a's entry survived

    def test_batch_upcall_per_packet(self, switch):
        a = switch.add_dpdkr_port("dpdkr0")
        upcalls = []
        switch.datapath.upcall_handler = \
            lambda mbuf, in_port, reason: (upcalls.append(reason),
                                           mbuf.free())
        for _ in range(3):
            a.rings.to_switch.enqueue(mk_mbuf())
        switch.step_dataplane()
        assert switch.datapath.miss_upcalls == 3
        assert upcalls == ["no_match"] * 3
