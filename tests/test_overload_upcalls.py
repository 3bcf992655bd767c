"""Bounded upcall path: admission order, priority classes, conservation.

The invariant every test here circles back to is packet conservation:
``offered == dispatched + queued + accounted sheds`` — a miss storm may
shed upcalls, but never silently.
"""

import pytest

from repro.overload import BoundedUpcallQueue, UpcallPolicy
from repro.openflow.controller import ControllerConnection, SimpleController
from repro.vswitch.appctl import AppCtl
from repro.vswitch.datapath import Datapath
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import mk_mbuf


def conserved(queue, offered):
    """offered == dispatched + still queued + accounted sheds."""
    return offered == queue.dispatched + queue.depth + queue.shed_total


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            UpcallPolicy(max_queue=0)
        with pytest.raises(ValueError):
            UpcallPolicy(max_queue=8, control_reserve=8)
        with pytest.raises(ValueError):
            UpcallPolicy(port_quota=0)
        with pytest.raises(ValueError):
            UpcallPolicy(port_rate_pps=-1)


class TestAdmission:
    def test_port_quota_sheds_beyond_fair_share(self):
        queue = BoundedUpcallQueue(UpcallPolicy(max_queue=64,
                                                port_quota=4))
        mbufs = [mk_mbuf() for _ in range(10)]
        results = [queue.admit(m, 1, "no_match") for m in mbufs]
        assert results == [True] * 4 + [False] * 6
        assert queue.shed == {"port_quota": 6}
        assert queue.queued_for(1) == 4
        # Shed mbufs are freed, queued ones are still owned.
        assert all(m.refcnt == 0 for m in mbufs[4:])
        assert all(m.refcnt == 1 for m in mbufs[:4])
        # A second port still has its own quota.
        assert queue.admit(mk_mbuf(), 2, "no_match")
        assert conserved(queue, 11)

    def test_global_cap_reserves_room_for_control(self):
        queue = BoundedUpcallQueue(UpcallPolicy(
            max_queue=8, control_reserve=2, port_quota=100))
        for _ in range(10):
            queue.admit(mk_mbuf(), 1, "no_match")
        # Misses fill only max_queue - control_reserve slots.
        assert queue.depth == 6
        assert queue.shed["queue_full"] == 4
        # The reserve admits control upcalls even now.
        assert queue.admit(mk_mbuf(), 1, "action")
        assert queue.admit(mk_mbuf(), 1, "revalidation")
        assert queue.control_depth == 2
        assert queue.depth == 8
        assert conserved(queue, 12)

    def test_control_evicts_newest_miss_when_full(self):
        queue = BoundedUpcallQueue(UpcallPolicy(
            max_queue=4, control_reserve=0, port_quota=100))
        for _ in range(4):
            queue.admit(mk_mbuf(), 1, "no_match")
        assert queue.depth == 4
        assert queue.admit(mk_mbuf(), 2, "action")
        assert queue.depth == 4
        assert queue.evicted_for_control == 1
        assert queue.shed["evicted"] == 1
        assert conserved(queue, 5)

    def test_control_overflow_when_queue_is_all_control(self):
        queue = BoundedUpcallQueue(UpcallPolicy(
            max_queue=2, control_reserve=0, port_quota=100))
        assert queue.admit(mk_mbuf(), 1, "action")
        assert queue.admit(mk_mbuf(), 1, "action")
        assert not queue.admit(mk_mbuf(), 1, "action")
        assert queue.shed == {"control_overflow": 1}
        assert conserved(queue, 3)

    def test_token_bucket_rate_limits_per_port(self):
        clock = {"now": 0.0}
        queue = BoundedUpcallQueue(
            UpcallPolicy(max_queue=100, port_quota=100,
                         port_rate_pps=10.0, port_burst=2.0),
            clock=lambda: clock["now"],
        )
        assert queue.admit(mk_mbuf(), 1, "no_match")
        assert queue.admit(mk_mbuf(), 1, "no_match")
        assert not queue.admit(mk_mbuf(), 1, "no_match")
        assert queue.shed == {"rate_limited": 1}
        # Refill admits again; other ports have their own bucket.
        clock["now"] = 0.1
        assert queue.admit(mk_mbuf(), 1, "no_match")
        assert queue.admit(mk_mbuf(), 2, "no_match")


class TestDispatch:
    def test_control_class_dispatches_first(self):
        queue = BoundedUpcallQueue(UpcallPolicy(max_queue=16,
                                                control_reserve=4,
                                                port_quota=16))
        queue.admit(mk_mbuf(), 1, "no_match")
        queue.admit(mk_mbuf(), 1, "action")
        queue.admit(mk_mbuf(), 1, "no_match")
        seen = []
        queue.dispatch(lambda m, p, r: (seen.append(r), m.free()))
        assert seen == ["action", "no_match", "no_match"]
        assert queue.depth == 0
        assert conserved(queue, 3)

    def test_budget_bounds_one_dispatch_round(self):
        queue = BoundedUpcallQueue(UpcallPolicy(max_queue=16,
                                                control_reserve=4,
                                                port_quota=16,
                                                dispatch_batch=2))
        for _ in range(5):
            queue.admit(mk_mbuf(), 1, "no_match")
        handled = []
        handler = lambda m, p, r: (handled.append(m), m.free())
        assert queue.dispatch(handler) == 2          # policy batch
        assert queue.dispatch(handler, budget=1) == 1
        assert queue.dispatch(handler, budget=100) == 2
        assert queue.depth == 0 and len(handled) == 5

    def test_dispatch_releases_port_quota(self):
        queue = BoundedUpcallQueue(UpcallPolicy(max_queue=16,
                                                control_reserve=4,
                                                port_quota=2))
        queue.admit(mk_mbuf(), 1, "no_match")
        queue.admit(mk_mbuf(), 1, "no_match")
        assert not queue.admit(mk_mbuf(), 1, "no_match")
        queue.dispatch(lambda m, p, r: m.free())
        assert queue.queued_for(1) == 0
        assert queue.admit(mk_mbuf(), 1, "no_match")


class TestDatapathIntegration:
    def test_miss_storm_is_bounded_and_conserved(self):
        connection = ControllerConnection()
        switch = VSwitchd(
            connection=connection,
            upcall_policy=UpcallPolicy(max_queue=8, control_reserve=2,
                                       port_quota=4, dispatch_batch=4),
        )
        controller = SimpleController(connection)
        port = switch.add_dpdkr_port("dpdkr0")
        mbufs = [mk_mbuf() for _ in range(32)]
        for mbuf in mbufs:
            port.rings.to_switch.enqueue(mbuf)
        switch.step_dataplane()
        queue = switch.upcall_queue
        # One burst: port quota admits 4, the rest shed with a reason.
        assert switch.datapath.upcalls_no_match == 32
        assert queue.admitted_miss + queue.shed_total == 32
        assert queue.shed_total == 28
        # Dispatch ran inside the iteration (budget 4): all admitted
        # upcalls reached the controller as packet-ins.
        assert queue.dispatched == 4
        assert queue.depth == 0
        controller.poll()
        assert len(controller.packet_ins) == 4
        # Nothing leaked: every mbuf was freed (shed or dispatched).
        assert all(m.refcnt == 0 for m in mbufs)

    def test_queue_depth_never_exceeds_cap_across_bursts(self):
        switch = VSwitchd(
            connection=ControllerConnection(),
            upcall_policy=UpcallPolicy(max_queue=8, control_reserve=2,
                                       port_quota=8, dispatch_batch=1),
        )
        port = switch.add_dpdkr_port("dpdkr0")
        offered = 0
        for _burst in range(6):
            for _ in range(8):
                port.rings.to_switch.enqueue(mk_mbuf())
                offered += 1
            switch.step_dataplane()
            queue = switch.upcall_queue
            assert queue.depth <= queue.policy.max_queue
        queue = switch.upcall_queue
        assert queue.high_watermark <= queue.policy.max_queue
        assert conserved(queue, switch.datapath.upcalls_no_match)
        assert switch.datapath.upcalls_no_match == offered

    def test_raw_datapath_owns_queue_and_dispatches(self):
        from repro.dpdk.dpdkr import DpdkrSharedRings
        from repro.mem.memzone import MemzoneRegistry
        from repro.openflow.table import FlowTable
        from repro.vswitch.ports import DpdkrOvsPort

        seen = []
        datapath = Datapath(
            FlowTable(),
            upcall_handler=lambda m, p, r: (seen.append((p, r)),
                                            m.free()),
        )
        assert isinstance(datapath.upcall_queue, BoundedUpcallQueue)
        rings = DpdkrSharedRings(MemzoneRegistry(), "dpdkr0")
        datapath.add_port(DpdkrOvsPort(1, rings))
        mbuf = mk_mbuf()
        datapath.ports[1].rings.to_switch.enqueue(mbuf)
        datapath.process_ports(list(datapath.ports.values()))
        # The miss was queued and dispatched by the end of the iteration.
        assert seen == [(1, "no_match")]
        assert datapath.upcall_queue.dispatched == 1
        assert datapath.upcall_queue.depth == 0
        assert mbuf.refcnt == 0

    def test_controller_output_without_handler_is_freed(self):
        from repro.dpdk.dpdkr import DpdkrSharedRings
        from repro.mem.memzone import MemzoneRegistry
        from repro.openflow.actions import ControllerAction
        from repro.openflow.match import Match
        from repro.openflow.table import FlowEntry, FlowTable
        from repro.vswitch.ports import DpdkrOvsPort

        table = FlowTable()
        datapath = Datapath(table)
        port = DpdkrOvsPort(1, DpdkrSharedRings(MemzoneRegistry(),
                                                "dpdkr0"))
        datapath.add_port(port)
        table.add(FlowEntry(Match(in_port=1), [ControllerAction()]))
        mbuf = mk_mbuf()
        port.rings.to_switch.enqueue(mbuf)
        datapath.process_ports([port])
        # No handler: the dispatched packet-in is dropped, not leaked.
        assert datapath.upcalls_action == 1
        assert datapath.upcall_queue.dispatched == 1
        assert mbuf.refcnt == 0


class TestAppctl:
    def test_overload_show_and_set(self):
        switch = VSwitchd(connection=ControllerConnection())
        appctl = AppCtl(switch)
        text = appctl.run("overload/show")
        assert "upcall queue: depth=0/256" in text
        assert "fail mode: standalone" in text
        assert appctl.run("overload/set", "max_queue 64") == "max_queue=64"
        assert switch.upcall_queue.policy.max_queue == 64
        assert appctl.run("overload/set",
                          "fail_mode secure") == "fail_mode=secure"
        assert switch.failmode.mode.value == "secure"
        assert "unknown knob" in appctl.run("overload/set", "nope 1")
        assert "usage" in appctl.run("overload/set", "just-one-token")
