"""Overload control benchmark family: miss storms and controller
outages (formerly ``scripts/bench_overload.py``).

Two scenarios, three runs, one document (family tag
``repro-bench-overload/1``):

* ``storm`` — one PMD core forwards a cache-hitting "good" flow while a
  second port offers a miss storm at twice the good load, with the
  bounded upcall queue plus the RX overload monitor (``bounded``).
* ``outage`` — a switch forwarding controller-installed flows loses its
  controller mid-run while new traffic appears; ``standalone`` falls
  back to local L2 learning, ``secure`` buffers packet-ins and freezes
  flow expiry so controller state survives.

The committed ``BENCH_overload.json`` is a full run.
"""

import sys

from repro.bench.workloads import (
    attach_checks,
    missing_keys,
    new_doc,
    resolve_seed,
)
from repro.bench.schema import validate_document
from repro.dpdk.dpdkr import DpdkrPmd
from repro.openflow.actions import OutputAction
from repro.openflow.controller import ControllerConnection, SimpleController
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry
from repro.overload import FailModePolicy, UpcallPolicy
from repro.overload.failmode import FALLBACK_COOKIE
from repro.packet.builder import make_udp_packet
from repro.packet.flowkey import extract_flow_key
from repro.sim.engine import Environment
from repro.traffic.generator import SourceApp
from repro.traffic.profiles import Template, TrafficProfile, uniform_profile
from repro.traffic.sink import SinkApp
from repro.vswitch.vswitchd import VSwitchd

FAMILY = "overload"
SCHEMA = "repro-bench-overload/1"
GENERATOR = "scripts/bench_overload.py"
DEFAULT_OUT = "BENCH_overload.json"
DEFAULT_SEED = None

GOOD_PPS = 1.5e6
STORM_RATIO = 2.0  # storm offered at 2x the good load


def mac_profile(name, src_mac, dst_mac, flows=2):
    """A small UDP profile with explicit MACs (the fallback learns from
    source addresses, so each direction needs its own)."""
    templates = []
    for flow in range(flows):
        packet = make_udp_packet(
            src_port=1000 + flow, dst_port=2000, frame_size=64,
            src_mac=src_mac, dst_mac=dst_mac,
        )
        templates.append(Template(
            packet=packet, wire_length=packet.wire_length,
            flow_key=extract_flow_key(packet, in_port=0),
        ))
    return TrafficProfile(name=name, templates=tuple(templates))


# -- scenario 1: miss storm ---------------------------------------------------


def run_storm(duration, warmup):
    """The storm run: bounded upcall queue plus the overload monitor."""
    env = Environment()
    switch = VSwitchd(
        env=env, connection=ControllerConnection(), name="bench-overload",
        upcall_policy=UpcallPolicy(
            max_queue=512, control_reserve=32, port_quota=256,
            port_rate_pps=2000.0, port_burst=64.0, dispatch_batch=8,
        ),
        overload=True,
    )
    good_rx = switch.add_dpdkr_port("good-rx", ofport=1)
    storm_rx = switch.add_dpdkr_port("storm-rx", ofport=2)
    good_tx = switch.add_dpdkr_port("good-tx", ofport=100)
    # The good flow hits the caches; the storm port has no flow at all,
    # so every storm packet is a table miss.
    switch.bridge.table.add(FlowEntry(
        Match(in_port=good_rx.ofport), [OutputAction(good_tx.ofport)],
        priority=10,
    ))
    profile = uniform_profile(64, flows=4)
    source_good = SourceApp("src-good", DpdkrPmd(1, good_rx.rings),
                            profile=profile, rate_pps=GOOD_PPS)
    source_storm = SourceApp("src-storm", DpdkrPmd(2, storm_rx.rings),
                             profile=profile,
                             rate_pps=GOOD_PPS * STORM_RATIO)
    sink = SinkApp("sink-good", DpdkrPmd(100, good_tx.rings),
                   record_latency=False)
    switch.start()
    for app in (source_good, source_storm, sink):
        app.start(env)
    env.run(until=warmup)
    switch.reset_pmd_accounting()
    received_mark = sink.received
    env.run(until=warmup + duration)
    delivered = sink.received - received_mark
    datapath = switch.datapath
    queue = switch.upcall_queue
    connection = switch.bridge.connection
    out = {
        "good_offered_pps": GOOD_PPS,
        "storm_offered_pps": GOOD_PPS * STORM_RATIO,
        "goodput_mpps": round(delivered / duration / 1e6, 4),
        "delivered": delivered,
        "storm_rx_packets": storm_rx.rx_packets,
        "upcalls_no_match": datapath.upcalls_no_match,
        "rx_early_drops": dict(datapath.rx_early_drops),
        "packet_ins_sent": switch.bridge.packet_ins_sent,
        "controller_dropped_to_controller":
            connection.dropped_to_controller,
        "core_busy": [round(loop.utilization, 4)
                      for loop in switch._pmd_loops],
        "queue": {
            "max_queue": queue.policy.max_queue,
            "depth": queue.depth,
            "high_watermark": queue.high_watermark,
            "admitted_total": queue.admitted_total,
            "dispatched": queue.dispatched,
            "shed_total": queue.shed_total,
            "shed": dict(queue.shed),
        },
        "monitor": switch.overload.stats(),
    }
    switch.stop()
    for app in (source_good, source_storm, sink):
        app.stop()
    return out


# -- scenario 2: controller outage --------------------------------------------


def run_outage_variant(mode, settle, pre_run, outage_len):
    """One outage run; ``mode`` is ``standalone`` or ``secure``.

    Timeline: controller installs flows, pre-outage traffic warms the
    caches, the controller dies at ``t1`` while a brand-new traffic pair
    starts, the peer comes back at ``t2`` and the switch reconnects via
    backoff.  Flow state is snapshotted right before the outage and
    right after the reconnect.
    """
    env = Environment()
    connection = ControllerConnection()
    # The idle flow never matches traffic; it is timed to expire midway
    # through the outage unless secure mode freezes expiry.
    idle_timeout = (pre_run - settle) + outage_len / 2.0
    switch = VSwitchd(
        env=env, connection=connection, name="bench-outage",
        fail_mode=mode,
        upcall_policy=UpcallPolicy(max_queue=64, control_reserve=8,
                                   port_quota=16, dispatch_batch=8),
        failmode_policy=FailModePolicy(
            max_pending_packet_ins=128,
            backoff_base=0.002, backoff_max=0.02,
        ),
    )
    controller = SimpleController(connection)
    ports = {name: switch.add_dpdkr_port(name, ofport=ofport)
             for ofport, name in enumerate(("a", "b", "c", "d"), 1)}
    controller.install_flow(Match(in_port=ports["a"].ofport),
                            [OutputAction(ports["b"].ofport)])
    controller.install_flow(Match(in_port=ports["b"].ofport),
                            [OutputAction(ports["a"].ofport)])
    # Pre-outage pair on a<->b; the new pair on c<->d appears only once
    # the controller is gone, so every one of its packets is a miss.
    sources = {
        "a": SourceApp("src-a", DpdkrPmd(1, ports["a"].rings),
                       profile=mac_profile("a->b", "02:00:00:00:00:01",
                                           "02:00:00:00:00:02"),
                       rate_pps=2e5),
        "b": SourceApp("src-b", DpdkrPmd(2, ports["b"].rings),
                       profile=mac_profile("b->a", "02:00:00:00:00:02",
                                           "02:00:00:00:00:01"),
                       rate_pps=2e5),
        "c": SourceApp("src-c", DpdkrPmd(3, ports["c"].rings),
                       profile=mac_profile("c->d", "02:00:00:00:00:03",
                                           "02:00:00:00:00:04"),
                       rate_pps=2e5),
        "d": SourceApp("src-d", DpdkrPmd(4, ports["d"].rings),
                       profile=mac_profile("d->c", "02:00:00:00:00:04",
                                           "02:00:00:00:00:03"),
                       rate_pps=2e5),
    }
    sinks = {name: SinkApp("sink-%s" % name,
                           DpdkrPmd(10 + port.ofport, port.rings),
                           record_latency=False)
             for name, port in ports.items()}
    switch.start()
    for sink in sinks.values():
        sink.start(env)
    env.run(until=settle)  # control loop processes the flowmods
    # The idle flow is installed straight into the table: the OF1.3
    # wire codec carries idle_timeout as whole seconds, and this run
    # needs a sub-second one.
    idle_entry = FlowEntry(
        Match(in_port=77), [OutputAction(ports["b"].ofport)],
        priority=10, cookie=0x1D7E, idle_timeout=idle_timeout,
        install_time=env.now,
    )
    switch.bridge.table.add(idle_entry)
    sources["a"].start(env)
    sources["b"].start(env)
    env.run(until=pre_run)
    pre_flow_ids = {entry.flow_id
                    for entry in switch.bridge.table.entries()}
    idle_flow_id = idle_entry.flow_id
    # t1: the controller dies; the new pair starts in the same instant.
    connection.peer_available = False
    connection.disconnect()
    sources["c"].start(env)
    sources["d"].start(env)
    old_mark = sinks["a"].received + sinks["b"].received
    new_mark = sinks["c"].received + sinks["d"].received
    env.run(until=pre_run + outage_len)
    old_delivered = (sinks["a"].received + sinks["b"].received) - old_mark
    new_delivered = (sinks["c"].received + sinks["d"].received) - new_mark
    failmode = switch.failmode
    queue = switch.upcall_queue
    during = {
        "old_pair_delivered": old_delivered,
        "new_pair_delivered": new_delivered,
        "forwarded_mpps": round(
            (old_delivered + new_delivered) / outage_len / 1e6, 4),
        "new_pair_mpps": round(new_delivered / outage_len / 1e6, 4),
        "queue_high_watermark": queue.high_watermark,
        "pending_packet_ins": failmode.pending_packet_ins,
        "packet_ins_buffered": failmode.packet_ins_buffered,
        "packet_ins_shed": failmode.packet_ins_shed,
        "fallback_flows_installed": failmode.fallback.flows_installed,
        "emc_entries": len(switch.datapath.emc),
    }
    # t2: the peer comes back; stop the new pair and poll the control
    # loop until the backoff reconnect lands.
    sources["c"].stop()
    sources["d"].stop()
    connection.peer_available = True
    for _ in range(200):
        env.run(until=env.now + 0.002)
        if failmode.state == "connected":
            break
    post_entries = switch.bridge.table.entries()
    post_flow_ids = {entry.flow_id for entry in post_entries}
    recovery = {
        "reconnected": failmode.state == "connected",
        "reconnect_attempts": failmode.reconnect_attempts,
        "reconnect_failures": failmode.reconnect_failures,
        "fallback_flows_removed": failmode.fallback_flows_removed,
        "fallback_flows_left": sum(
            1 for entry in post_entries
            if entry.cookie == FALLBACK_COOKIE),
        "packet_ins_replayed": failmode.packet_ins_replayed,
        "timers_shifted": failmode.timers_shifted,
        "idle_flow_survived": idle_flow_id in post_flow_ids,
        "flow_state_preserved": pre_flow_ids <= post_flow_ids,
        "emc_entries": len(switch.datapath.emc),
    }
    out = {
        "mode": mode,
        "pre_outage_flows": len(pre_flow_ids),
        "post_recovery_flows": len(post_flow_ids),
        "during_outage": during,
        "recovery": recovery,
        "connection": {
            "max_pending": connection.max_pending,
            "pending_for_controller": connection.pending_for_controller,
            "pending_for_switch": connection.pending_for_switch,
            "dropped_to_controller": connection.dropped_to_controller,
            "dropped_disconnected": connection.dropped_disconnected,
        },
        "queue_max": queue.policy.max_queue,
        "pending_packet_ins_max":
            failmode.policy.max_pending_packet_ins,
    }
    switch.stop()
    for app in list(sources.values()) + list(sinks.values()):
        app.stop()
    return out


# -- checks -------------------------------------------------------------------


def run_checks(doc):
    """The overload invariants; each returns (name, passed, detail)."""
    bounded = doc["storm"]["bounded"]
    standalone = doc["outage"]["standalone"]
    secure = doc["outage"]["secure"]
    queue = bounded["queue"]
    storm_drops = sum(bounded["rx_early_drops"].values())
    conserved = (bounded["upcalls_no_match"]
                 == queue["dispatched"] + queue["depth"]
                 + queue["shed_total"])
    rx_conserved = (bounded["storm_rx_packets"]
                    == bounded["upcalls_no_match"] + storm_drops)
    bounded_queues = all(
        variant["during_outage"]["queue_high_watermark"]
        <= variant["queue_max"]
        and variant["during_outage"]["pending_packet_ins"]
        <= variant["pending_packet_ins_max"]
        and variant["connection"]["pending_for_controller"]
        <= variant["connection"]["max_pending"]
        for variant in (standalone, secure))
    return [
        ("storm_goodput_with_control_holds",
         bounded["goodput_mpps"] >= 0.9 * GOOD_PPS / 1e6,
         "%.4f >= 0.9 x %.1f Mpps good load at %.1fx storm load"
         % (bounded["goodput_mpps"], GOOD_PPS / 1e6, STORM_RATIO)),
        ("storm_upcall_conservation", conserved and rx_conserved,
         "%d upcalls = %d dispatched + %d queued + %d shed; "
         "%d rx = upcalls + %d early drops"
         % (bounded["upcalls_no_match"], queue["dispatched"],
            queue["depth"], queue["shed_total"],
            bounded["storm_rx_packets"], storm_drops)),
        ("storm_queue_bounded",
         queue["high_watermark"] <= queue["max_queue"],
         "high watermark %d <= %d"
         % (queue["high_watermark"], queue["max_queue"])),
        ("storm_sheds_accounted",
         queue["shed_total"] > 0
         and sum(queue["shed"].values()) == queue["shed_total"],
         "%d shed: %s" % (queue["shed_total"], queue["shed"])),
        ("outage_standalone_keeps_forwarding",
         standalone["during_outage"]["forwarded_mpps"] > 0,
         "%.4f Mpps through the outage"
         % standalone["during_outage"]["forwarded_mpps"]),
        ("outage_standalone_learns_new_flows",
         standalone["during_outage"]["new_pair_delivered"] > 0
         and standalone["during_outage"]["fallback_flows_installed"] > 0,
         "%d new-pair packets, %d fallback flows"
         % (standalone["during_outage"]["new_pair_delivered"],
            standalone["during_outage"]["fallback_flows_installed"])),
        ("outage_secure_refuses_to_improvise",
         secure["during_outage"]["new_pair_delivered"] == 0
         and secure["during_outage"]["fallback_flows_installed"] == 0,
         "%d new-pair packets forwarded"
         % secure["during_outage"]["new_pair_delivered"]),
        ("outage_queues_bounded", bounded_queues,
         "upcall/packet-in/channel queues within caps in both modes"),
        ("outage_secure_preserves_flow_state",
         secure["recovery"]["flow_state_preserved"]
         and secure["recovery"]["reconnected"],
         "%d pre-outage flows all present after recovery"
         % secure["pre_outage_flows"]),
        ("outage_secure_freezes_expiry",
         secure["recovery"]["idle_flow_survived"]
         and not standalone["recovery"]["idle_flow_survived"],
         "idle flow survived secure, expired standalone"),
        ("outage_standalone_cleans_fallback_flows",
         standalone["recovery"]["fallback_flows_removed"] > 0
         and standalone["recovery"]["fallback_flows_left"] == 0,
         "%d removed, %d left"
         % (standalone["recovery"]["fallback_flows_removed"],
            standalone["recovery"]["fallback_flows_left"])),
        ("outage_secure_replays_bounded_buffer",
         secure["recovery"]["packet_ins_replayed"] > 0
         and secure["during_outage"]["packet_ins_shed"] > 0,
         "%d replayed, %d shed over the %d cap"
         % (secure["recovery"]["packet_ins_replayed"],
            secure["during_outage"]["packet_ins_shed"],
            secure["pending_packet_ins_max"])),
        ("outage_secure_emc_preserved",
         secure["recovery"]["emc_entries"]
         >= secure["during_outage"]["emc_entries"] > 0,
         "%d entries before recovery, %d after"
         % (secure["during_outage"]["emc_entries"],
            secure["recovery"]["emc_entries"])),
    ]


# -- schema -------------------------------------------------------------------

REQUIRED_STORM_KEYS = {
    "good_offered_pps", "storm_offered_pps", "goodput_mpps",
    "delivered", "storm_rx_packets", "upcalls_no_match",
    "rx_early_drops", "packet_ins_sent", "core_busy", "queue",
}

REQUIRED_OUTAGE_KEYS = {
    "mode", "pre_outage_flows", "post_recovery_flows", "during_outage",
    "recovery", "connection", "queue_max", "pending_packet_ins_max",
}


def validate(doc):
    """Structural schema check; returns a list of problems (empty = ok)."""
    problems = validate_document(doc, family=FAMILY)
    bounded = doc.get("storm", {}).get("bounded")
    if bounded is None:
        problems.append("missing storm variant bounded")
    else:
        missing = missing_keys(bounded, REQUIRED_STORM_KEYS)
        if missing:
            problems.append("storm bounded missing %s" % missing)
    outage = doc.get("outage", {})
    for name in ("standalone", "secure"):
        variant = outage.get(name)
        if variant is None:
            problems.append("missing outage variant %s" % name)
            continue
        missing = missing_keys(variant, REQUIRED_OUTAGE_KEYS)
        if missing:
            problems.append("outage %s missing %s" % (name, missing))
    return problems


# -- trends -------------------------------------------------------------------


def trend_metrics(doc):
    storm = doc["storm"]
    outage = doc["outage"]
    return {
        "bounded_goodput_mpps": storm["bounded"]["goodput_mpps"],
        "standalone_outage_mpps":
            outage["standalone"]["during_outage"]["forwarded_mpps"],
        "secure_flows_preserved": float(
            outage["secure"]["recovery"]["flow_state_preserved"]),
    }


# -- driver -------------------------------------------------------------------


def run_bench(quick, seed=None):
    storm_duration = 0.01 if quick else 0.03
    storm_warmup = 0.004
    settle = 0.004
    pre_run = 0.012 if quick else 0.02
    outage_len = 0.02 if quick else 0.03
    doc = new_doc(FAMILY, GENERATOR, quick, resolve_seed(seed), {
        "quick": quick,
        "good_offered_pps": GOOD_PPS,
        "storm_ratio": STORM_RATIO,
        "storm_duration_s": storm_duration,
        "storm_warmup_s": storm_warmup,
        "outage_pre_run_s": pre_run,
        "outage_duration_s": outage_len,
    })
    doc["storm"] = {}
    doc["outage"] = {}
    print("[1/3] storm bounded...", file=sys.stderr)
    doc["storm"]["bounded"] = run_storm(storm_duration, storm_warmup)
    for step, mode in enumerate(("standalone", "secure"), 2):
        print("[%d/3] outage %s..." % (step, mode), file=sys.stderr)
        doc["outage"][mode] = run_outage_variant(
            mode, settle, pre_run, outage_len)
    return attach_checks(doc, run_checks(doc))
