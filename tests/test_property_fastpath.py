"""Property: the flow-batched, four-tier-cached fast path is
observationally equivalent to an uncached per-packet classifier walk.

Two identical switches are driven with the same random interleaving of
traffic bursts (with duplicate flows per burst), flowmods between
bursts, and set-field rewrites mid-burst.  The switch under test runs
the fast path as deployed: whole bursts per iteration, EMC, SMC and
megaflow on.  The reference runs the same datapath with every cache
tier off and one packet per ``step_dataplane()``, so every packet is
resolved by its own tuple-space walk and no flow batch ever holds more
than one packet.  The two are then compared:

* every output port delivered the same multiset of packets, with the
  same final header contents;
* packets of the *same flow* kept their relative order (different flows
  may legally interleave differently: that is what flow batching does
  in real OVS too);
* per-rule packet/byte accounting agrees;
* aggregate datapath counters (packets processed, upcalls, pipeline
  drops, resolved packets) agree.  The per-tier split (EMC vs SMC vs
  megaflow vs plain classifier hits) intentionally differs — the
  reference serves every packet from the classifier — but the totals
  must not.

A second property pins down precise EMC invalidation: a datapath-style
EMC whose listener tombstones only the affected keys never serves a
stale rule, agreeing with the linear table lookup under churn.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.openflow.actions import OutputAction, SetFieldAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry, FlowTable
from repro.packet.flowkey import FlowKey
from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_UDP, Udp
from repro.vswitch.classifier import TupleSpaceClassifier
from repro.vswitch.emc import ExactMatchCache
from repro.vswitch.vswitchd import VSwitchd

from tests.helpers import mk_mbuf

PORT_NAMES = ("p0", "p1", "p2")
FLOW_SRC_PORTS = (1000, 1001, 1002, 1003)
REWRITE_DST = 9999

# One op is one of:
#   ("burst", rx_port_index, [flow_index, ...])   enqueue + step
#   ("add", in_port_index|None, flow_index|None, action_kind,
#    out_port_index, priority)                    install a rule
#   ("del", in_port_index)                        delete rules by in_port
ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("burst"),
            st.integers(0, len(PORT_NAMES) - 1),
            st.lists(st.integers(0, len(FLOW_SRC_PORTS) - 1),
                     min_size=1, max_size=8),
        ),
        st.tuples(
            st.just("add"),
            st.sampled_from([None, 0, 1, 2]),
            st.sampled_from([None, 0, 1, 2, 3]),
            st.sampled_from(["out", "setfield", "multi", "drop"]),
            st.integers(0, len(PORT_NAMES) - 1),
            st.sampled_from([10, 20]),
        ),
        st.tuples(st.just("del"), st.integers(0, len(PORT_NAMES) - 1)),
    ),
    min_size=1,
    max_size=14,
)


class Harness:
    """One switch plus the bookkeeping to replay and observe a run."""

    def __init__(self, per_packet: bool) -> None:
        self.switch = VSwitchd(name="br-%s"
                               % ("ref" if per_packet else "fast"))
        self.per_packet = per_packet
        if per_packet:
            datapath = self.switch.datapath
            datapath.emc_enabled = False
            datapath.smc_enabled = False
            datapath.megaflow_enabled = False
        self.ports = [self.switch.add_dpdkr_port(name)
                      for name in PORT_NAMES]
        self.entries = []       # parallel across harnesses
        self.mbufs = []         # keep refs so id() stays unique
        self.seq_of = {}        # id(mbuf) -> sequence number
        self.delivered = {name: [] for name in PORT_NAMES}

    def _match(self, in_port_index, flow_index) -> Match:
        constraints = {}
        if in_port_index is not None:
            constraints["in_port"] = self.ports[in_port_index].ofport
        if flow_index is not None:
            constraints["eth_type"] = ETH_TYPE_IPV4
            constraints["ip_proto"] = IP_PROTO_UDP
            constraints["l4_src"] = FLOW_SRC_PORTS[flow_index]
        return Match(**constraints)

    def apply(self, op, seq_base: int) -> None:
        kind = op[0]
        if kind == "add":
            _kind, in_port_index, flow_index, action_kind, out, prio = op
            actions = {
                "out": [OutputAction(self.ports[out].ofport)],
                "setfield": [SetFieldAction("l4_dst", REWRITE_DST),
                             OutputAction(self.ports[out].ofport)],
                "multi": [OutputAction(self.ports[out].ofport),
                          OutputAction(self.ports[(out + 1) % 3].ofport)],
                "drop": [],
            }[action_kind]
            entry = FlowEntry(self._match(in_port_index, flow_index),
                              actions, priority=prio)
            self.entries.append(entry)
            self.switch.bridge.table.add(entry)
        elif kind == "del":
            _kind, in_port_index = op
            self.switch.bridge.table.delete(
                self._match(in_port_index, None))
        else:
            _kind, rx_index, flow_indices = op
            rx = self.ports[rx_index]
            for offset, flow_index in enumerate(flow_indices):
                mbuf = mk_mbuf(src_port=FLOW_SRC_PORTS[flow_index])
                self.mbufs.append(mbuf)
                self.seq_of[id(mbuf)] = seq_base + offset
                rx.rings.to_switch.enqueue(mbuf)
                if self.per_packet:
                    self.switch.step_dataplane()
            if not self.per_packet:
                self.switch.step_dataplane()
            self.collect()

    def collect(self) -> None:
        for port in self.ports:
            for mbuf in port.rings.to_guest.dequeue_burst(1024):
                udp = mbuf.packet.get(Udp)
                self.delivered[port.name].append(
                    (self.seq_of[id(mbuf)], udp.src_port, udp.dst_port)
                )


@settings(max_examples=60, deadline=None)
@given(ops_strategy)
# A higher-priority rule covering an already-cached flow: a cache tier
# that kept serving the old resolution would diverge from the walk.
@example([("add", 0, None, "out", 1, 10), ("burst", 0, [0]),
          ("add", None, 0, "out", 2, 20), ("burst", 0, [0])])
def test_cached_batched_path_equals_uncached_per_packet_walk(ops):
    ref = Harness(per_packet=True)
    fast = Harness(per_packet=False)
    seq = 0
    for op in ops:
        ref.apply(op, seq)
        fast.apply(op, seq)
        if op[0] == "burst":
            seq += len(op[2])

    for name in PORT_NAMES:
        got_ref = ref.delivered[name]
        got_fast = fast.delivered[name]
        # Same packets with the same final headers (multiset equality).
        assert sorted(got_ref) == sorted(got_fast)
        # Per-flow order preserved (flow = original UDP source port;
        # set-field only rewrites the destination).
        for flow in FLOW_SRC_PORTS:
            assert [rec for rec in got_ref if rec[1] == flow] \
                == [rec for rec in got_fast if rec[1] == flow]

    dp_ref = ref.switch.datapath
    dp_fast = fast.switch.datapath
    assert dp_ref.packets_processed == dp_fast.packets_processed
    assert dp_ref.miss_upcalls == dp_fast.miss_upcalls
    assert dp_ref.pipeline_drops == dp_fast.pipeline_drops
    # Resolved packets agree even though the tier split differs.
    assert (dp_ref.emc_hits + dp_ref.classifier_hits
            == dp_fast.emc_hits + dp_fast.classifier_hits)
    # The reference resolved every packet by its own classifier walk.
    assert dp_ref.emc_hits == dp_ref.smc_hits == dp_ref.megaflow_hits == 0

    # Per-rule accounting: rules were installed in lockstep, so the
    # parallel entry lists line up pairwise.
    assert len(ref.entries) == len(fast.entries)
    for entry_r, entry_f in zip(ref.entries, fast.entries):
        assert entry_r.packet_count == entry_f.packet_count
        assert entry_r.byte_count == entry_f.byte_count


# -- precise invalidation property -----------------------------------------

PORTS = [1, 2, 3]
L4S = [1000, 2000]


def make_key(in_port, l4_dst):
    return FlowKey(
        in_port=in_port, eth_src=2, eth_dst=3, eth_type=ETH_TYPE_IPV4,
        vlan_vid=0, ip_src=0x0A000001, ip_dst=0x0A000002,
        ip_proto=IP_PROTO_UDP, ip_tos=0, l4_src=1, l4_dst=l4_dst,
    )


ALL_KEYS = [make_key(p, d) for p in PORTS for d in L4S]


@st.composite
def match_strategy(draw):
    constraints = {}
    if draw(st.booleans()):
        constraints["in_port"] = draw(st.sampled_from(PORTS))
    if draw(st.booleans()):
        constraints["eth_type"] = ETH_TYPE_IPV4
        if draw(st.booleans()):
            constraints["ip_proto"] = IP_PROTO_UDP
            if draw(st.booleans()):
                constraints["l4_dst"] = draw(st.sampled_from(L4S))
    return Match(**constraints)


churn = st.lists(
    st.one_of(
        st.tuples(st.just("add"), match_strategy(), st.integers(0, 5)),
        st.tuples(st.just("del"), match_strategy(), st.integers(0, 5)),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(churn)
def test_precise_invalidation_never_serves_stale(ops):
    """Datapath-style EMC with *precise* (tombstone) invalidation always
    agrees with the table's linear lookup, evicting only the keys each
    flowmod touches (test_property_classifier.py runs the same listener
    with the probabilistic-insertion filter on)."""
    table = FlowTable()
    classifier = TupleSpaceClassifier(table)
    emc = ExactMatchCache(capacity=8, insert_inv_prob=1)

    def on_change(kind, entry):
        if kind == "added":
            emc.invalidate_matching(entry.match)
        else:
            emc.invalidate_entry(entry)

    table.add_listener(on_change)
    for op, match, priority in ops:
        if op == "add":
            table.add(FlowEntry(match, [OutputAction(9)],
                                priority=priority))
        else:
            table.delete(match, strict=True, priority=priority)
        for key in ALL_KEYS:
            cached = emc.lookup(key)
            if cached is None:
                entry = classifier.lookup(key)
                if entry is not None:
                    emc.insert(key, (entry,))
            else:
                entry = cached[0]
            assert entry is table.lookup(key)
