"""Fast-path benchmark family: flow batches, EMC survival under churn.

Formerly ``scripts/bench_baseline.py``.

Runs a small, deterministic set of workloads and produces one schema-v1
document (family tag ``repro-bench-fastpath/1``) recording throughput,
PMD cycles/packet, cache hit rates and flow-batch fill — the numbers
``docs/PERFORMANCE.md`` explains how to read.  The committed
``BENCH_fastpath.json`` at the repo root is the output of a full
(non-quick) run.
"""

import sys

from repro.bench.workloads import (
    attach_checks,
    missing_keys,
    new_doc,
    resolve_seed,
)
from repro.bench.schema import validate_document
from repro.experiments import ChainExperiment
from repro.obs.cycles import seconds_to_cycles
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.table import FlowEntry
from repro.packet.builder import make_udp_packet
from repro.packet.mbuf import Mbuf
from repro.vswitch.vswitchd import VSwitchd

FAMILY = "fastpath"
SCHEMA = "repro-bench-fastpath/1"
GENERATOR = "scripts/bench_baseline.py"
DEFAULT_OUT = "BENCH_fastpath.json"
DEFAULT_SEED = None

LOOKUP_STAGES = ("emc_lookup", "smc_lookup", "megaflow_lookup",
                 "classifier_lookup", "miss_upcall")


# -- measurement helpers ------------------------------------------------------


def pmd_cycles_per_packet(experiment):
    """Busy PMD cycles per switch traversal over the measurement window.

    Busy time comes from the poll loops (the accounting authority; reset
    at warmup end), the packet denominator from the per-core stage
    tables (also reset at warmup end): every packet the switch handles
    passes exactly one lookup stage per traversal.
    """
    report = experiment.node.switch.pmd_cycle_report()
    busy = sum(loop.busy_time for loop in report.loops)
    packets = 0
    for _loop, stages in report.loop_rows():
        if stages is None:
            continue
        for stage in LOOKUP_STAGES:
            packets += stages.packets.get(stage, 0)
    if not packets:
        return 0.0
    return seconds_to_cycles(busy) / packets


def hit_rate(hits, misses):
    total = hits + misses
    return hits / total if total else 0.0


def chain_fastpath(duration, flows=64, burst_size=32):
    """One vanilla (all hops through OVS) fig3a-style memory chain."""
    experiment = ChainExperiment(
        num_vms=3, bypass=False, memory_only=True, duration=duration,
        flows=flows, burst_size=burst_size,
    )
    result = experiment.run()
    datapath = experiment.node.switch.datapath
    return {
        "flows": flows,
        "burst_size": burst_size,
        "throughput_mpps": round(result.throughput_mpps, 4),
        "cycles_per_packet": round(pmd_cycles_per_packet(experiment), 2),
        "emc_hit_rate": round(datapath.emc.hit_rate, 4),
        "smc_hit_rate": round(datapath.smc.hit_rate, 4),
        "avg_batch_fill": round(datapath.avg_batch_fill, 3),
        "batch_fill_histogram": {
            str(fill): count
            for fill, count in sorted(datapath.batch_fill_counts.items())
        },
        "packets_processed": datapath.packets_processed,
    }


def emc_invalidation_workload(bursts, flows=32, burst_size=32,
                              churn_every=4):
    """Rolling-flowmod workload: steady traffic over ``flows`` UDP flows
    while unrelated rules are added and deleted every ``churn_every``
    bursts.  Precise invalidation keeps the traffic's EMC entries alive
    across the churn, so the only misses are the compulsory first one
    per flow.
    """
    switch = VSwitchd(name="bench-emc")
    rx = switch.add_dpdkr_port("rx")
    tx = switch.add_dpdkr_port("tx")
    switch.bridge.table.add(FlowEntry(
        Match(in_port=rx.ofport), [OutputAction(tx.ofport)], priority=10,
    ))
    churn_match = Match(in_port=tx.ofport)  # never hit by the traffic
    packets = [make_udp_packet(src_port=5000 + index)
               for index in range(flows)]
    sent = 0
    for burst in range(bursts):
        if burst and burst % churn_every == 0:
            entry = FlowEntry(churn_match, [], priority=5)
            switch.bridge.table.add(entry)
            switch.bridge.table.delete(churn_match, strict=True, priority=5)
        for _ in range(burst_size):
            mbuf = Mbuf()
            mbuf.packet = packets[sent % flows]
            mbuf.wire_length = mbuf.packet.wire_length
            rx.rings.to_switch.enqueue(mbuf)
            sent += 1
        switch.step_dataplane()
        tx.rings.to_guest.dequeue_burst(burst_size)
    emc = switch.datapath.emc
    return {
        "flows": flows,
        "bursts": bursts,
        "flowmods": 2 * ((bursts - 1) // churn_every),
        "emc_hit_rate": round(emc.hit_rate, 4),
        "emc_hits": emc.hits,
        "emc_misses": emc.misses,
        "precise_evictions": emc.precise_evictions,
    }


def megaflow_rule_scale_workload(enabled, bursts, extra_rules=64,
                                 burst_size=32, warmup_bursts=4):
    """Rule-heavy tables under EMC-unfriendly flow churn: every packet
    is a brand-new UDP flow (fresh ``l4_src``), so the exact-match tiers
    never amortize anything, while ``extra_rules`` masked filler rules
    outrank the forwarding rule and force every dpcls lookup through
    their subtables first.  With the megaflow cache on, the first
    resolution unwildcards only ``eth_src`` + ``in_port`` — one cached
    aggregate entry then serves every subsequent flow.

    The SMC is disabled here deliberately: the simulated SMC stores no
    key-hash tag, so an ever-new-flow workload would spuriously
    validate colliding hints through the match-all forwarding subtable
    (real OVS tags SMC slots and ships with the SMC off by default).
    Cycles/packet comes from the summed synchronous dataplane cost over
    the post-warmup window.
    """
    switch = VSwitchd(name="bench-mf-%s" % ("on" if enabled else "off"))
    datapath = switch.datapath
    datapath.megaflow_enabled = enabled
    datapath.smc_enabled = False
    rx = switch.add_dpdkr_port("rx")
    tx = switch.add_dpdkr_port("tx")
    table = switch.bridge.table
    # Filler rules over four eth_src mask widths (four subtables), at a
    # priority above the forwarding rule so the ranked probe order
    # visits them all first.  The 0x0A top byte guarantees the traffic
    # (src MAC 02:...) never matches one.
    full = (1 << 48) - 1
    for index in range(extra_rules):
        shift = (0, 8, 16, 24)[index % 4]
        mask = (full << shift) & full
        value = (0x0A_00_00_00_00_00 | index << shift) & mask
        table.add(FlowEntry(
            Match(eth_src=(value, mask)), [], priority=20,
        ))
    table.add(FlowEntry(
        Match(in_port=rx.ofport), [OutputAction(tx.ofport)], priority=10,
    ))
    sent = 0
    measured_cost = 0.0
    baseline = None
    for burst in range(bursts):
        if burst == warmup_bursts:
            baseline = {
                "megaflow_hits": datapath.megaflow_hits,
                "dpcls_lookups": datapath.classifier.lookups,
                "cache_hits": datapath.megaflow.hits,
                "cache_misses": datapath.megaflow.misses,
            }
        for _ in range(burst_size):
            mbuf = Mbuf()
            mbuf.packet = make_udp_packet(src_port=1000 + sent)
            mbuf.wire_length = mbuf.packet.wire_length
            rx.rings.to_switch.enqueue(mbuf)
            sent += 1
        cost = switch.step_dataplane()
        if baseline is not None:
            measured_cost += cost
        tx.rings.to_guest.dequeue_burst(burst_size)
    packets = (bursts - warmup_bursts) * burst_size
    megaflow_hits = datapath.megaflow_hits - baseline["megaflow_hits"]
    dpcls_lookups = (datapath.classifier.lookups
                     - baseline["dpcls_lookups"])
    cache_hits = datapath.megaflow.hits - baseline["cache_hits"]
    cache_misses = datapath.megaflow.misses - baseline["cache_misses"]
    return {
        "megaflow": enabled,
        "extra_rules": extra_rules,
        "bursts": bursts,
        "packets": packets,
        "cycles_per_packet": round(
            seconds_to_cycles(measured_cost) / packets, 2),
        "megaflow_hit_rate": round(hit_rate(cache_hits, cache_misses), 4),
        "megaflow_hits": megaflow_hits,
        "dpcls_lookups": dpcls_lookups,
        "megaflow_entries": len(datapath.megaflow),
        "megaflow_masks": datapath.megaflow.mask_count,
    }


def chain_pair(duration, memory_only, measure):
    out = {}
    for bypass in (False, True):
        result = ChainExperiment(
            num_vms=3 if memory_only else 2, bypass=bypass,
            memory_only=memory_only, duration=duration,
        ).run()
        out["bypass" if bypass else "vanilla"] = measure(result)
    return out


# -- checks -------------------------------------------------------------------


def run_checks(doc):
    """The baseline invariants; each returns (name, passed, detail)."""
    inval = doc["workloads"]["emc_invalidation"]
    fig3b = doc["workloads"]["fig3b_nic_chain"]
    latency = doc["workloads"]["latency_chain"]
    mega = doc["workloads"]["megaflow_rule_scale"]
    checks = [
        ("precise_invalidation_only_compulsory_misses",
         inval["precise"]["emc_misses"] == inval["precise"]["flows"],
         "%d misses for %d flows across %d flowmods"
         % (inval["precise"]["emc_misses"], inval["precise"]["flows"],
            inval["precise"]["flowmods"])),
        ("bypass_beats_vanilla_nic_chain",
         fig3b["bypass"]["throughput_mpps"]
         > fig3b["vanilla"]["throughput_mpps"],
         "%.4f > %.4f" % (fig3b["bypass"]["throughput_mpps"],
                          fig3b["vanilla"]["throughput_mpps"])),
        ("bypass_cuts_latency",
         latency["bypass"]["mean_latency_us"]
         < latency["vanilla"]["mean_latency_us"],
         "%.2f < %.2f" % (latency["bypass"]["mean_latency_us"],
                          latency["vanilla"]["mean_latency_us"])),
        ("megaflow_cycles_per_packet_lower",
         mega["enabled"]["cycles_per_packet"]
         < mega["disabled"]["cycles_per_packet"],
         "%.2f < %.2f (%.1f%% saved)"
         % (mega["enabled"]["cycles_per_packet"],
            mega["disabled"]["cycles_per_packet"],
            100 * (1 - mega["enabled"]["cycles_per_packet"]
                   / max(mega["disabled"]["cycles_per_packet"], 1e-9)))),
        ("megaflow_hits_exceed_dpcls_lookups",
         mega["enabled"]["megaflow_hits"]
         > mega["enabled"]["dpcls_lookups"],
         "%d > %d after warmup"
         % (mega["enabled"]["megaflow_hits"],
            mega["enabled"]["dpcls_lookups"])),
        ("megaflow_covers_aggregate",
         mega["enabled"]["megaflow_hit_rate"] > 0.9
         and mega["enabled"]["megaflow_entries"] <= 4,
         "hit rate %.4f with %d entries"
         % (mega["enabled"]["megaflow_hit_rate"],
            mega["enabled"]["megaflow_entries"])),
    ]
    return checks


# -- schema -------------------------------------------------------------------

REQUIRED_FASTPATH_KEYS = {
    "flows", "burst_size", "throughput_mpps",
    "cycles_per_packet", "emc_hit_rate", "smc_hit_rate",
    "avg_batch_fill", "batch_fill_histogram", "packets_processed",
}
REQUIRED_INVALIDATION_KEYS = {
    "flows", "bursts", "flowmods", "emc_hit_rate",
    "emc_hits", "emc_misses", "precise_evictions",
}
REQUIRED_MEGAFLOW_KEYS = {
    "megaflow", "extra_rules", "bursts", "packets", "cycles_per_packet",
    "megaflow_hit_rate", "megaflow_hits", "dpcls_lookups",
    "megaflow_entries", "megaflow_masks",
}


def validate(doc):
    """Structural schema check; returns a list of problems (empty = ok)."""
    problems = validate_document(doc, family=FAMILY)
    workloads = doc.get("workloads", {})
    for name in ("fig3a_fastpath", "emc_invalidation", "fig3b_nic_chain",
                 "latency_chain", "megaflow_rule_scale"):
        if name not in workloads:
            problems.append("missing workload %s" % name)
    missing = missing_keys(workloads.get("fig3a_fastpath"),
                           REQUIRED_FASTPATH_KEYS)
    if missing:
        problems.append("fig3a_fastpath missing %s" % missing)
    missing = missing_keys(
        workloads.get("emc_invalidation", {}).get("precise"),
        REQUIRED_INVALIDATION_KEYS)
    if missing:
        problems.append("emc_invalidation.precise missing %s" % missing)
    for name in ("fig3b_nic_chain", "latency_chain"):
        for variant in ("vanilla", "bypass"):
            if variant not in workloads.get(name, {}):
                problems.append("%s missing %s" % (name, variant))
    mega = workloads.get("megaflow_rule_scale", {})
    for variant in ("enabled", "disabled"):
        missing = missing_keys(mega.get(variant), REQUIRED_MEGAFLOW_KEYS)
        if missing:
            problems.append("megaflow_rule_scale.%s missing %s"
                            % (variant, missing))
    return problems


# -- trends -------------------------------------------------------------------


def trend_metrics(doc):
    """Headline numbers for one ``BENCH_TRENDS.jsonl`` line."""
    fast = doc["workloads"]["fig3a_fastpath"]
    inval = doc["workloads"]["emc_invalidation"]
    fig3b = doc["workloads"]["fig3b_nic_chain"]
    latency = doc["workloads"]["latency_chain"]
    mega = doc["workloads"]["megaflow_rule_scale"]
    return {
        "vec_cycles_per_packet": fast["cycles_per_packet"],
        "vec_throughput_mpps": fast["throughput_mpps"],
        "precise_emc_hit_rate": inval["precise"]["emc_hit_rate"],
        "bypass_nic_mpps": fig3b["bypass"]["throughput_mpps"],
        "bypass_latency_us": latency["bypass"]["mean_latency_us"],
        "megaflow_hit_rate": mega["enabled"]["megaflow_hit_rate"],
        "rule_scale_cycles_per_packet":
            mega["enabled"]["cycles_per_packet"],
    }


# -- driver -------------------------------------------------------------------


def run_bench(quick, seed=None):
    chain_duration = 0.001 if quick else 0.003
    churn_bursts = 64 if quick else 256
    rule_scale_bursts = 64 if quick else 512
    doc = new_doc(FAMILY, GENERATOR, quick, resolve_seed(seed), {
        "quick": quick,
        "chain_duration_s": chain_duration,
        "churn_bursts": churn_bursts,
        "rule_scale_bursts": rule_scale_bursts,
    })
    doc["workloads"] = {}
    workloads = doc["workloads"]

    print("[1/5] fig3a memory chain (3 VMs, 64 flows, burst 32)...",
          file=sys.stderr)
    workloads["fig3a_fastpath"] = chain_fastpath(chain_duration)

    print("[2/5] EMC invalidation under rolling flowmods...",
          file=sys.stderr)
    workloads["emc_invalidation"] = {
        "precise": emc_invalidation_workload(churn_bursts),
    }

    print("[3/5] fig3b NIC chain, bypass vs vanilla...", file=sys.stderr)
    workloads["fig3b_nic_chain"] = chain_pair(
        chain_duration, memory_only=False,
        measure=lambda result: {
            "throughput_mpps": round(result.throughput_mpps, 4),
        },
    )

    print("[4/5] chain latency, bypass vs vanilla...", file=sys.stderr)
    workloads["latency_chain"] = chain_pair(
        chain_duration, memory_only=True,
        measure=lambda result: {
            "mean_latency_us": round(result.mean_latency * 1e6, 3),
        },
    )

    print("[5/5] megaflow rule scale, enabled vs disabled "
          "(64 filler rules, all-new flows)...", file=sys.stderr)
    workloads["megaflow_rule_scale"] = {
        "enabled": megaflow_rule_scale_workload(True, rule_scale_bursts),
        "disabled": megaflow_rule_scale_workload(False, rule_scale_bursts),
    }

    return attach_checks(doc, run_checks(doc))
