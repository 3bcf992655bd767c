"""Property: the tuple-space classifier always agrees with the linear
priority lookup of the flow table, across random rule churn."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry, FlowTable
from repro.packet.flowkey import FlowKey
from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_UDP
from repro.vswitch.classifier import TupleSpaceClassifier
from repro.vswitch.emc import ExactMatchCache

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


@settings(max_examples=200, deadline=None)
@given(churn)
def test_classifier_equals_table_lookup(ops):
    table = FlowTable()
    classifier = TupleSpaceClassifier(table)
    for op, match, priority in ops:
        if op == "add":
            table.add(FlowEntry(match, [OutputAction(9)],
                                priority=priority))
        else:
            table.delete(match, strict=True, priority=priority)
        for key in ALL_KEYS:
            assert classifier.lookup(key) is table.lookup(key)


@settings(max_examples=100, deadline=None)
@given(churn)
def test_emc_backed_lookup_equals_table(ops):
    """A datapath-style EMC + classifier pipeline, with the datapath's
    precise invalidation on every change, never serves a stale rule."""
    table = FlowTable()
    classifier = TupleSpaceClassifier(table)
    emc = ExactMatchCache(capacity=8)

    def invalidate(kind, entry):
        if kind == "added":
            emc.invalidate_matching(entry.match)
        else:
            emc.invalidate_entry(entry)

    table.add_listener(invalidate)
    for op, match, priority in ops:
        if op == "add":
            table.add(FlowEntry(match, [OutputAction(9)],
                                priority=priority))
        else:
            table.delete(match, strict=True, priority=priority)
        for key in ALL_KEYS:
            entry = emc.lookup(key)
            if entry is None:
                entry = classifier.lookup(key)
                if entry is not None:
                    emc.insert(key, entry)
            assert entry is table.lookup(key)
