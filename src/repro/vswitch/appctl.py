"""Operator CLI surface: ovs-ofctl / ovs-appctl style commands.

Text-level management of a :class:`~repro.vswitch.vswitchd.VSwitchd`,
mirroring the commands operators drive the real prototype with, plus the
one command the paper's modification would add (``bypass/show``).  All
output is plain text, and ``dump-flows`` counters include bypassed
traffic through the same stats-merge path the controller uses — the
operator sees one consistent story.
"""

from typing import List, Optional

from repro.openflow.flowsyntax import format_flow, parse_flow
from repro.openflow.table import FlowEntry
from repro.vswitch.ports import DpdkrOvsPort
from repro.vswitch.vswitchd import VSwitchd


def add_flow(vswitchd: VSwitchd, text: str) -> FlowEntry:
    """``ovs-ofctl add-flow``: install a rule from its text form.

    Goes through the bridge's flow table, so the p-2-p detector sees the
    change exactly as it would a controller flowmod.  A ``table=N`` key
    selects a later pipeline table.
    """
    match, actions, attributes = parse_flow(text)
    entry = FlowEntry(
        match,
        actions,
        priority=attributes.get("priority", 0x8000),
        cookie=attributes.get("cookie", 0),
        idle_timeout=float(attributes.get("idle_timeout", 0)),
        hard_timeout=float(attributes.get("hard_timeout", 0)),
        install_time=vswitchd.bridge.clock(),
    )
    vswitchd.bridge._table_for(attributes.get("table", 0)).add(entry)
    return entry


def save_flows(vswitchd: VSwitchd) -> str:
    """Serialize every installed rule as restorable text (no counters)."""
    lines = []
    bridge = vswitchd.bridge
    for table_id in sorted(bridge.tables):
        for entry in bridge.tables[table_id].entries():
            line = format_flow(entry.match, entry.actions,
                               priority=entry.priority)
            if table_id:
                line = "table=%d,%s" % (table_id, line)
            lines.append(line)
    return "\n".join(lines)


def restore_flows(vswitchd: VSwitchd, text: str) -> int:
    """Replace the flow configuration with the ``save_flows`` output.

    Returns the number of rules installed.  Runs through the normal
    table paths, so detectors and caches react as usual.
    """
    for table in list(vswitchd.bridge.tables.values()):
        table.clear()
    count = 0
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        add_flow(vswitchd, line)
        count += 1
    return count


def del_flows(vswitchd: VSwitchd, text: str = "") -> int:
    """``ovs-ofctl del-flows``: delete rules matching a text spec.

    An empty spec deletes everything.  Returns the number removed.
    """
    if not text.strip():
        return len(vswitchd.bridge.table.clear())
    match, _actions, attributes = parse_flow(text + ",actions=drop")
    result = vswitchd.bridge.table.delete(
        match,
        strict="priority" in attributes,
        priority=attributes.get("priority", 0x8000),
    )
    return len(result.removed)


def dump_flows(vswitchd: VSwitchd) -> str:
    """``ovs-ofctl dump-flows``: one line per rule, counters merged with
    the shared-memory bypass statistics."""
    bridge = vswitchd.bridge
    lines = []
    for table_id in sorted(bridge.tables):
        for entry in bridge.tables[table_id].entries():
            packets, byte_count = bridge._merged_flow_counters(entry)
            line = format_flow(
                entry.match, entry.actions, priority=entry.priority,
                counters=(packets, byte_count),
            )
            if table_id:
                line = "table=%d, %s" % (table_id, line)
            lines.append(line)
    return "\n".join(lines)


def show(vswitchd: VSwitchd) -> str:
    """``ovs-ofctl show``-ish: bridge summary and port table."""
    lines = [
        "bridge %s (datapath id %#x): %d ports, %d flows"
        % (vswitchd.bridge.name, vswitchd.bridge.datapath_id,
           len(vswitchd.datapath.ports), len(vswitchd.bridge.table)),
    ]
    augmentor = vswitchd.bridge.stats_augmentor
    for ofport in sorted(vswitchd.datapath.ports):
        port = vswitchd.datapath.ports[ofport]
        rx_p, _rx_b, tx_p, _tx_b = augmentor.port_extra(ofport)
        flags = [port.kind.value]
        if isinstance(port, DpdkrOvsPort) and port.bypass_active:
            flags.append("BYPASS")
        policer = vswitchd.datapath.policers.get(ofport)
        if policer is not None:
            flags.append("POLICED@%.0fpps" % policer.rate_pps)
        lines.append(
            " %2d(%s): %s rx=%d tx=%d drops=%d"
            % (ofport, port.name, ",".join(flags),
               port.rx_packets + rx_p, port.tx_packets + tx_p,
               port.tx_dropped)
        )
    for mirror in vswitchd.datapath.mirrors:
        lines.append(
            " mirror %s: src=%s dst=%s -> %d"
            % (mirror.name, sorted(mirror.select_src),
               sorted(mirror.select_dst), mirror.output)
        )
    return "\n".join(lines)


def cache_stats(vswitchd: VSwitchd) -> str:
    """``dpif-netdev/pmd-stats-show``-ish: fast-path lookup statistics."""
    datapath = vswitchd.datapath
    emc = datapath.emc
    lines = [
        "packets processed: %d" % datapath.packets_processed,
        "emc hits: %d (%.1f%% hit rate)"
        % (datapath.emc_hits, emc.hit_rate * 100),
        "classifier hits: %d (%d subtables)"
        % (datapath.classifier_hits, datapath.classifier.subtable_count),
        "miss upcalls: %d" % datapath.miss_upcalls,
    ]
    for index, utilization in enumerate(vswitchd.pmd_utilization):
        lines.append("pmd core %d utilization: %.1f%%"
                     % (index, utilization * 100))
    return "\n".join(lines)


def fastpath_show(vswitchd: VSwitchd) -> str:
    """``appctl dpif/fastpath-show``: the fast-path view.

    One screen answering "which lookup tier is serving traffic and how
    full are the flow batches":
    EMC / SMC statistics, the dpcls subtable ranking, and the flow-batch
    fill histogram.
    """
    datapath = vswitchd.datapath
    emc = datapath.emc
    smc = datapath.smc
    megaflow = datapath.megaflow
    # The miss-chain waterfall: of the packets each tier saw, how many
    # did it resolve?  dpcls serves what no cache did.
    dpcls_hits = (datapath.classifier_hits - datapath.smc_hits
                  - datapath.megaflow_hits)
    lines = [
        "fast path: vectorized (flow batches), burst size %d"
        % datapath.burst_size,
        "lookup tiers: emc=%s smc=%s megaflow=%s invalidation=precise"
        % ("on" if datapath.emc_enabled else "off",
           "on" if datapath.smc_enabled else "off",
           "on" if datapath.megaflow_enabled else "off"),
        "miss chain: emc=%d -> smc=%d -> megaflow=%d -> dpcls=%d "
        "-> upcall=%d"
        % (datapath.emc_hits, datapath.smc_hits, datapath.megaflow_hits,
           dpcls_hits, datapath.miss_upcalls),
        "emc: %d entries, hits=%d misses=%d (%.1f%% hit rate) stale=%d"
        % (len(emc), emc.hits, emc.misses, emc.hit_rate * 100,
           emc.stale_hits),
        "emc: insertions=%d skipped=%d evictions=%d stale_evictions=%d "
        "precise_evictions=%d"
        % (emc.insertions, emc.insertions_skipped, emc.evictions,
           emc.stale_evictions, emc.precise_evictions),
        "smc: %d slots, hits=%d misses=%d (%.1f%% hit rate) "
        "insertions=%d replacements=%d"
        % (len(smc), smc.hits, smc.misses, smc.hit_rate * 100,
           smc.insertions, smc.replacements),
        "megaflow: %d entries (%d masks), hits=%d misses=%d "
        "(%.1f%% hit rate)"
        % (len(megaflow), megaflow.mask_count, megaflow.hits,
           megaflow.misses, megaflow.hit_rate * 100),
        "megaflow: insertions=%d refreshes=%d evictions=%d "
        "stale_evictions=%d invalidations=%d"
        % (megaflow.insertions, megaflow.refreshes, megaflow.evictions,
           megaflow.stale_evictions, megaflow.invalidations),
        "dpcls: %d lookups, %d subtables probed, %d rank decay(s)"
        % (datapath.classifier.lookups,
           datapath.classifier.subtables_probed,
           datapath.classifier.rank_decays),
    ]
    for fields, rules, max_priority, hits in datapath.classifier.ranking():
        lines.append(" subtable [%s]: %d rule(s) max_priority=%d hits=%d"
                     % (fields, rules, max_priority, hits))
    lines.append(
        "flow batches: %d batches, %d packets (avg fill %.2f)"
        % (datapath.flow_batches, datapath.packets_batched,
           datapath.avg_batch_fill))
    for fill in sorted(datapath.batch_fill_counts):
        lines.append(" fill %2d: %d batch(es)"
                     % (fill, datapath.batch_fill_counts[fill]))
    return "\n".join(lines)


def bypass_show(vswitchd: VSwitchd, manager=None) -> str:
    """``appctl bypass/show``: the command this prototype adds.

    Lists active bypass channels with their zones, rule attribution and
    shared-memory counters, and the lifecycle history.
    """
    if manager is None:
        return "transparent highway: disabled"
    lines = ["transparent highway: enabled, %d active channel(s)"
             % len(manager.active_links)]
    for src_ofport in sorted(manager.active_links):
        link = manager.active_links[src_ofport]
        if link.ring is None:
            # Establishing (or between retry attempts): nothing
            # provisioned to report yet.
            lines.append(
                " %s -> %s  state=%s flow=%d (unprovisioned, attempt %d)"
                % (link.src_port_name, link.dst_port_name,
                   link.state.value, link.link.flow_id, link.attempts)
            )
            continue
        lines.append(
            " %s -> %s  state=%s zone=%s flow=%d tx_packets=%d "
            "tx_bytes=%d ring=%d/%d enq_fail=%d partial=%d"
            % (link.src_port_name, link.dst_port_name, link.state.value,
               link.zone_name, link.link.flow_id, link.stats.tx_packets,
               link.stats.tx_bytes, len(link.ring),
               link.ring.capacity - 1, link.ring.enqueue_failures,
               link.ring.partial_enqueues)
        )
    removed = [link for link in manager.history
               if link not in manager.active_links.values()]
    if removed:
        lines.append(" history: %d channel(s) removed, %d packets "
                     "carried in total"
                     % (len(removed),
                        sum(link.stats.tx_packets for link in removed
                            if link.stats is not None)))
    return "\n".join(lines)


def bypass_faults(manager=None) -> str:
    """``appctl bypass/faults``: resilience counters and fault status.

    Shows the self-healing counters, the links currently in quarantine,
    and — when a fault plan is armed — what it has injected so far.
    """
    if manager is None:
        return "transparent highway: disabled"
    counters = manager.resilience
    lines = ["bypass control-plane resilience:"]
    for name, value in counters.rows():
        lines.append(" %-24s %d" % (name, value))
    lines.append(" %-24s %d" % ("faults survived",
                                counters.total_faults_survived))
    lines.append(" %-24s %d" % ("packets lost to failures",
                                manager.packets_lost_to_failures))
    quarantined = manager.quarantined_links
    lines.append("quarantine: %d link(s)" % len(quarantined))
    for src_ofport in sorted(quarantined):
        record = quarantined[src_ofport]
        lines.append(
            " src ofport %d -> %d  failures=%d next_attempt=%.3fs"
            % (src_ofport, record.link.dst_ofport, record.failures,
               record.until)
        )
    plan = manager.faults
    if plan is None:
        lines.append("fault plan: none armed")
    else:
        lines.append("fault plan: seed=%r, %d fault(s) injected"
                     % (plan.seed, plan.total_injected))
        for point, occurrences, injected in plan.summary_rows():
            lines.append(" %-20s occurrences=%d injected=%d"
                         % (point, occurrences, injected))
    return "\n".join(lines)


def bypass_health(manager=None) -> str:
    """``appctl bypass/health``: runtime-health view of active channels.

    Renders the watchdog's per-link verdicts and streak counters, its
    detection thresholds, the links quarantined for runtime degradation
    (with the heartbeat gate on their re-admission), and the fallback
    counters — the operator's one-stop answer to "is any bypass sick,
    and what did the host do about it?".
    """
    if manager is None:
        return "transparent highway: disabled"
    watchdog = manager.watchdog
    policy = watchdog.policy
    lines = [
        "bypass watchdog: %d check pass(es), %d link(s) tracked"
        % (watchdog.checks_run, len(watchdog.health)),
        " policy: poll_interval=%.3fs stall_polls=%d heartbeat_polls=%d "
        "validate_ring=%s"
        % (policy.poll_interval, policy.stall_polls,
           policy.heartbeat_polls, "yes" if policy.validate_ring else "no"),
    ]
    for key, verdict, detail in watchdog.rows():
        lines.append(" src ofport %d: %s  %s" % (key, verdict, detail))
    counters = manager.resilience
    lines.append("runtime fallback counters:")
    for name in ("stalled_consumers", "wedged_guests",
                 "dead_peer_fallbacks", "ring_integrity_failures",
                 "links_degraded", "packets_salvaged",
                 "degraded_readmissions", "readmissions_deferred"):
        lines.append(" %-24s %d" % (name.replace("_", " "),
                                    getattr(counters, name)))
    degraded = {
        src_ofport: record
        for src_ofport, record in manager.quarantined_links.items()
        if record.reason == "degraded"
    }
    lines.append("degraded quarantine: %d link(s)" % len(degraded))
    for src_ofport in sorted(degraded):
        record = degraded[src_ofport]
        lines.append(
            " src ofport %d -> %d  failures=%d next_attempt=%.3fs "
            "heartbeat_mark=%s"
            % (src_ofport, record.link.dst_ofport, record.failures,
               record.until, record.heartbeat_mark)
        )
    return "\n".join(lines)


def state_show(vswitchd: VSwitchd, manager=None) -> str:
    """``appctl state/show``: the stateful fast-path tier in one screen.

    Per registered XFSM program: table occupancy, lookup/eviction
    counters and verdict totals, plus which bypass channels currently
    carry a program (the state-conservation view).
    """
    programs = vswitchd.datapath.xfsm_programs
    if not programs:
        return "state tier: no XFSM programs registered"
    lines = ["state tier: %d program(s), datapath evaluated=%d "
             "drops=%d unknown_drops=%d"
             % (len(programs), vswitchd.datapath.xfsm_evaluated,
                vswitchd.datapath.xfsm_drops,
                vswitchd.datapath.xfsm_unknown_drops)]
    for program_name in sorted(programs):
        program = programs[program_name]
        table = program.table
        lines.append(
            "%s: %s, table %d/%d entries (idle_timeout=%gs)"
            % (program_name,
               "state-safe" if program.state_safe else "NOT state-safe",
               table.occupancy, table.capacity, table.idle_timeout))
        lines.append(
            " table: lookups=%d hits=%d misses=%d inserts=%d updates=%d"
            % (table.lookups, table.hits, table.misses, table.inserts,
               table.updates))
        lines.append(
            " evictions: idle=%d capacity=%d invalidations=%d deletes=%d"
            % (table.evictions_idle, table.evictions_capacity,
               table.invalidations, table.deletes))
        lines.append(
            " verdicts: evaluated=%d allowed=%d dropped=%d "
            "rate_limited=%d transitions=%d"
            % (program.evaluations, program.allowed, program.dropped,
               program.rate_limited, program.state_transitions))
        states: dict = {}
        for entry in table.entries():
            states[entry.state] = states.get(entry.state, 0) + 1
        if states:
            lines.append(" states: %s" % ", ".join(
                "%s=%d" % (state, states[state])
                for state in sorted(states)))
    if manager is not None:
        carried = [
            link for link in manager.active_links.values()
            if link.link.xfsm_program is not None
        ]
        lines.append(
            "bypass: %d stateful channel(s), provisioned=%d "
            "state_migrations=%d swept=%d"
            % (len(carried), manager.xfsm_channels_provisioned,
               manager.xfsm_state_migrations,
               manager.watchdog.state_entries_swept))
        for link in carried:
            lines.append(" %s -> %s  program=%s state=%s"
                         % (link.src_port_name, link.dst_port_name,
                            link.link.xfsm_program, link.state.value))
    return "\n".join(lines)


def chain_health(repairer=None) -> str:
    """``appctl chain/health``: the chain repairer's per-NF view.

    One row per VNF (state, restart budget consumed, crashes seen) plus
    the lifecycle counters — the operator's answer to "is the service
    whole, and what did the supervisor do about the last crash?".
    """
    if repairer is None:
        return "chain repairer: not running"
    lines = ["chain repairer: %d NF(s) supervised" % len(repairer.records)]
    for name, state, restarts, crashes in repairer.rows():
        lines.append(" %-12s state=%-8s restarts=%d/%d crashes=%d"
                     % (name, state, restarts,
                        repairer.policy.max_restarts, crashes))
    lines.append("lifecycle counters:")
    for counter in ("crashes_detected", "repairs_started",
                    "repairs_succeeded", "repairs_failed", "demotions",
                    "flows_replayed", "packets_flushed"):
        lines.append(" %-24s %d" % (counter.replace("_", " "),
                                    getattr(repairer, counter)))
    return "\n".join(lines)


def mempool_show(mempools=None) -> str:
    """``appctl mempool/show``: pool occupancy and the ownership ledger.

    Per pool: capacity, free/in-use split, lifecycle counters (including
    double frees and reclamation sweeps), and one row per ledger holder
    with its in-flight mbuf count.
    """
    if not mempools:
        return "mempools: none tracked"
    lines = []
    for pool in mempools:
        lines.append(
            "%s: size=%d available=%d in_use=%d"
            % (pool.name, pool.size, pool.available, pool.in_use))
        lines.append(
            " allocs=%d frees=%d alloc_failures=%d double_frees=%d"
            % (pool.alloc_count, pool.free_count_total,
               pool.alloc_failures, pool.double_free_detected))
        lines.append(
            " reclaim: sweeps=%d reclaimed=%d leaked_found=%d "
            "leaked_permanent=%d"
            % (pool.reclaim_sweeps, pool.reclaimed_total,
               pool.leaked_found_total, pool.leaked_permanent))
        holders = pool.holders()
        if holders:
            for holder in sorted(holders):
                lines.append(" holder %-28s %d mbuf(s)"
                             % (holder, holders[holder]))
        else:
            lines.append(" ledger: no in-flight holders")
    return "\n".join(lines)


def pmd_rxq_show(vswitchd: VSwitchd) -> str:
    """``appctl dpif-netdev/pmd-rxq-show``: per-core port placement.

    Mirrors the real command's shape: one block per PMD core listing
    its ports with measured load share (EWMA cycles, as a percentage of
    the core's attributed total), plus pinning/isolation marks.
    """
    scheduler = vswitchd.scheduler
    tracker = scheduler.tracker
    lines = []
    for core_index, ports in enumerate(scheduler.core_ports):
        isolated = core_index in scheduler.isolated_cores
        lines.append("pmd thread core %d:%s" % (
            core_index, "  isolated: true" if isolated else ""
        ))
        core_total = sum(tracker.port_load(p.ofport) for p in ports)
        for port in ports:
            load = tracker.port_load(port.ofport)
            share = 100.0 * load / core_total if core_total > 0 else 0.0
            pinned = scheduler.pinned_core(port.ofport)
            mark = "  (pinned)" if pinned is not None else ""
            lines.append("  port: %-12s queue-id: 0  usage: %5.1f %%%s"
                         % (port.name, share, mark))
        if not ports:
            lines.append("  (no ports)")
    return "\n".join(lines)


def sched_show(vswitchd: VSwitchd) -> str:
    """``appctl sched/show``: scheduler + auto-LB state in one screen.

    Policy, per-core measured loads, rebalance history and — when the
    auto load balancer is enabled — its thresholds and every skip
    reason, answering "why did it (not) rebalance?".
    """
    scheduler = vswitchd.scheduler
    tracker = scheduler.tracker
    lines = [
        "rxq scheduler: policy=%s cores=%d ports=%d"
        % (scheduler.policy.name, scheduler.n_cores,
           len(scheduler.ports())),
        "load tracker: %d interval(s) closed, %d (port, core) pair(s)"
        % (tracker.intervals, len(tracker.pairs())),
    ]
    for core_index, load in enumerate(tracker.core_loads(
            scheduler.n_cores)):
        names = [p.name for p in scheduler.core_ports[core_index]]
        lines.append(" core %d: load=%.3g s/interval ports=[%s]"
                     % (core_index, load, ", ".join(names)))
    lines.append("rebalances: %d applied, %d port move(s)"
                 % (scheduler.rebalances, scheduler.port_moves))
    plan = scheduler.last_plan
    if plan is not None:
        lines.append(" last plan: %d move(s), variance %.3g -> %.3g "
                     "(%.0f%% improvement)"
                     % (len(plan.moves), plan.variance_before,
                        plan.variance_after, plan.improvement * 100))
        for move in plan.moves:
            lines.append("  move %s: core %d -> core %d"
                         % (move.port_name, move.src_core,
                            move.dst_core))
    auto_lb = vswitchd.auto_lb
    if auto_lb is None:
        lines.append("auto-lb: disabled")
        return "\n".join(lines)
    policy = auto_lb.policy
    lines.append(
        "auto-lb: enabled, interval=%gs load_threshold=%.2f "
        "improvement_threshold=%.2f"
        % (policy.rebalance_interval, policy.load_threshold,
           policy.improvement_threshold))
    lines.append(
        " checks=%d applied=%d skipped: warmup=%d no_overload=%d "
        "no_moves=%d small_improvement=%d"
        % (auto_lb.checks_run, auto_lb.rebalances_applied,
           auto_lb.skipped_warmup, auto_lb.skipped_no_overload,
           auto_lb.skipped_no_moves, auto_lb.skipped_small_improvement))
    if auto_lb.last_busy_fractions:
        lines.append(" last busy fractions: [%s]" % ", ".join(
            "%.2f" % b for b in auto_lb.last_busy_fractions))
    return "\n".join(lines)


def policer_show(vswitchd: VSwitchd) -> str:
    """``appctl policer/show``: ingress policer state per port."""
    policers = vswitchd.datapath.policers
    if not policers:
        return "policers: none configured"
    lines = ["policers: %d" % len(policers)]
    for ofport in sorted(policers):
        policer = policers[ofport]
        lines.append(
            " port %d: rate=%.0fpps burst=%.0f tokens=%.1f "
            "admitted=%d dropped=%d"
            % (ofport, policer.rate_pps, policer.bucket.burst,
               policer.bucket.tokens, policer.admitted, policer.dropped))
    return "\n".join(lines)


def overload_show(vswitchd: VSwitchd) -> str:
    """``appctl overload/show``: upcall queue, fail mode, shedding."""
    lines: List[str] = []
    queue = vswitchd.upcall_queue
    policy = queue.policy
    lines.append(
        "upcall queue: depth=%d/%d (control=%d, reserve=%d) "
        "high_watermark=%d"
        % (queue.depth, policy.max_queue, queue.control_depth,
           policy.control_reserve, queue.high_watermark))
    lines.append(
        " policy: port_quota=%d port_rate_pps=%g port_burst=%g "
        "dispatch_batch=%d"
        % (policy.port_quota, policy.port_rate_pps,
           policy.port_burst, policy.dispatch_batch))
    lines.append(
        " admitted: miss=%d control=%d  dispatched=%d"
        % (queue.admitted_miss, queue.admitted_control,
           queue.dispatched))
    shed = ", ".join("%s=%d" % (why, queue.shed[why])
                     for why in sorted(queue.shed))
    lines.append(" shed: total=%d%s"
                 % (queue.shed_total,
                    (" (%s)" % shed) if shed else ""))
    failmode = vswitchd.failmode
    if failmode is None:
        lines.append("fail mode: no controller connection")
    else:
        stats = failmode.stats()
        lines.append(
            "fail mode: %s, state=%s, outages=%d reconnects=%d "
            "(attempts=%d failures=%d)"
            % (stats["mode"], stats["state"], stats["outages"],
               stats["reconnects"], stats["reconnect_attempts"],
               stats["reconnect_failures"]))
        lines.append(
            " packet-ins: pending=%d buffered=%d replayed=%d shed=%d"
            % (stats["pending_packet_ins"], stats["packet_ins_buffered"],
               stats["packet_ins_replayed"], stats["packet_ins_shed"]))
        lines.append(
            " fallback: packets=%d floods=%d flows=%d removed=%d"
            % (stats["fallback_packets"], stats["fallback_floods"],
               stats["fallback_flows"], stats["fallback_flows_removed"]))
    monitor = vswitchd.overload
    if monitor is None:
        lines.append("overload monitor: disabled")
    else:
        stats = monitor.stats()
        lines.append(
            "overload monitor: checks=%d overloaded=%d raised=%d "
            "lowered=%d deferred_to_rebalance=%d"
            % (stats["checks_run"], stats["overloaded_checks"],
               stats["shed_increases"], stats["shed_decreases"],
               stats["deferred_to_rebalance"]))
    rx_shed = vswitchd.datapath.rx_shed
    if rx_shed:
        lines.append(" rx shed levels: %s" % ", ".join(
            "port %d=%.2f" % (ofport, rx_shed[ofport])
            for ofport in sorted(rx_shed)))
    drops = vswitchd.datapath.rx_early_drops
    if drops:
        lines.append(" rx early drops: %s" % ", ".join(
            "port %d=%d" % (ofport, drops[ofport])
            for ofport in sorted(drops)))
    return "\n".join(lines)


def overload_set(vswitchd: VSwitchd, argument: str) -> str:
    """``appctl overload/set KEY VALUE``: tune overload knobs live.

    ``fail_mode standalone|secure`` switches the fail mode; any numeric
    field of the active :class:`~repro.overload.UpcallPolicy` or
    :class:`~repro.overload.OverloadPolicy` can be set by name.
    """
    parts = argument.split()
    if len(parts) != 2:
        return "usage: overload/set KEY VALUE"
    key, raw = parts
    if key == "fail_mode":
        try:
            vswitchd.set_fail_mode(raw)
        except (ValueError, RuntimeError) as exc:
            return "error: %s" % exc
        return "fail_mode=%s" % raw
    targets = [vswitchd.upcall_queue.policy]
    if vswitchd.overload is not None:
        targets.append(vswitchd.overload.policy)
    for policy in targets:
        if hasattr(policy, key):
            current = getattr(policy, key)
            try:
                value = type(current)(raw)
            except ValueError:
                return "error: %r is not a valid %s" % (
                    raw, type(current).__name__)
            setattr(policy, key, value)
            return "%s=%s" % (key, value)
    known = sorted(
        {name for policy in targets for name in vars(policy)} | {"fail_mode"}
    )
    return "unknown knob %r (try: %s)" % (key, ", ".join(known))


def pmd_stats_show(vswitchd: VSwitchd, obs=None) -> str:
    """``appctl pmd/stats-show``: busy/idle cycles + per-stage breakdown.

    With an :class:`~repro.obs.plane.Observability` wired, covers every
    tracked loop (guest cores included); otherwise just the vSwitch's
    own PMD cores.
    """
    if obs is not None:
        return obs.pmd_cycle_report().render()
    return vswitchd.pmd_cycle_report().render()


def coverage_show(obs=None) -> str:
    """``appctl coverage/show``: event coverage counters."""
    if obs is None:
        return "observability: not wired"
    return obs.registry.coverage_report()


def metrics_dump(obs=None) -> str:
    """``appctl metrics/dump``: full registry, Prometheus text format."""
    if obs is None:
        return "observability: not wired"
    from repro.obs.export import prometheus_text

    return prometheus_text(obs.registry).rstrip("\n")


def trace_dump(obs=None, limit: int = 10) -> str:
    """``appctl trace/dump``: the most recent sampled packet paths."""
    if obs is None:
        return "observability: not wired"
    return obs.tracer.render(limit=limit)


def bench_last(bench=None) -> str:
    """``appctl bench/last``: the scenario runs this process produced."""
    if bench is None:
        return "benchmarks: no bench state wired"
    return bench.last_report()


def bench_trends(bench=None, argument: str = "") -> str:
    """``appctl bench/trends [SCENARIO]``: trend-file tail per scenario."""
    if bench is None:
        return "benchmarks: no bench state wired"
    scenario = argument.strip() or None
    return bench.trends_report(scenario=scenario)


class AppCtl:
    """Dispatcher bundling the commands (an ovs-appctl socket stand-in)."""

    def __init__(self, vswitchd: VSwitchd, manager=None, obs=None,
                 repairer=None, mempools=None, bench=None) -> None:
        self.vswitchd = vswitchd
        self.manager = manager
        self.obs = obs
        self.repairer = repairer
        self.mempools = mempools
        self.bench = bench

    def run(self, command: str, argument: str = "") -> str:
        handlers = {
            "add-flow": lambda: str(add_flow(self.vswitchd, argument)),
            "del-flows": lambda: "%d flows removed" % del_flows(
                self.vswitchd, argument
            ),
            "dump-flows": lambda: dump_flows(self.vswitchd),
            "save-flows": lambda: save_flows(self.vswitchd),
            "restore-flows": lambda: "%d flows restored" % restore_flows(
                self.vswitchd, argument
            ),
            "show": lambda: show(self.vswitchd),
            "pmd-stats-show": lambda: cache_stats(self.vswitchd),
            "dpif/fastpath-show": lambda: fastpath_show(self.vswitchd),
            "pmd/stats-show": lambda: pmd_stats_show(self.vswitchd,
                                                     self.obs),
            "dpif-netdev/pmd-rxq-show": lambda: pmd_rxq_show(
                self.vswitchd
            ),
            "sched/show": lambda: sched_show(self.vswitchd),
            "sched/rebalance": lambda: str(self.vswitchd.rebalance()),
            "policer/show": lambda: policer_show(self.vswitchd),
            "overload/show": lambda: overload_show(self.vswitchd),
            "overload/set": lambda: overload_set(self.vswitchd, argument),
            "coverage/show": lambda: coverage_show(self.obs),
            "metrics/dump": lambda: metrics_dump(self.obs),
            "trace/dump": lambda: trace_dump(
                self.obs,
                limit=int(argument) if argument.strip() else 10,
            ),
            "bypass/show": lambda: bypass_show(self.vswitchd,
                                               self.manager),
            "bypass/faults": lambda: bypass_faults(self.manager),
            "bypass/health": lambda: bypass_health(self.manager),
            "state/show": lambda: state_show(self.vswitchd,
                                             self.manager),
            "chain/health": lambda: chain_health(self.repairer),
            "mempool/show": lambda: mempool_show(self.mempools),
            "bench/last": lambda: bench_last(self.bench),
            "bench/trends": lambda: bench_trends(self.bench, argument),
        }
        handler = handlers.get(command)
        if handler is None:
            return "unknown command %r (try: %s)" % (
                command, ", ".join(sorted(handlers))
            )
        return handler()
