"""The OVS-DPDK fast path: per-PMD-core packet processing.

One :class:`Datapath` instance is the forwarding engine of a bridge; its
:meth:`process_ports` is the body of a PMD core's poll iteration.

The fast path is **vectorized**, modelled on OVS's ``dp_netdev``
flow batches: flow keys are computed for the whole received burst up
front, packets are grouped per distinct key, one lookup resolves every
packet of a batch, and the combined action list is built once per batch.
Lookup itself is four-tiered, exactly like OVS-DPDK:

1. **EMC** — exact flow key -> full pipeline traversal, precise
   per-flowmod invalidation (:mod:`repro.vswitch.emc`);
2. **SMC** — key hash -> subtable hint, validated by the classifier
   before being believed (:mod:`repro.vswitch.smc`);
3. **megaflow** — minimally-masked flow key -> full pipeline traversal,
   the wildcard cache populated by lookup-driven unwildcarding
   (:mod:`repro.vswitch.megaflow`), priority-safe by construction;
4. **dpcls** — ranked tuple-space search with goto_table pipeline
   walking (:mod:`repro.vswitch.classifier`).

Every poll iteration returns the simulated CPU cost of its work — the
quantity that makes the vSwitch a *shared* bottleneck for every chain
hop in the paper's Figure 3.
"""

from typing import Callable, Dict, List, Optional, Tuple

from repro.openflow.actions import (
    GotoTableAction,
    OutputAction,
    PORT_CONTROLLER,
    SetFieldAction,
    XfsmAction,
    goto_table_of,
)
from repro.openflow.table import FlowEntry, FlowTable
from repro.overload.upcall import BoundedUpcallQueue
from repro.packet.flowkey import FlowKey, cached_flow_key
from repro.packet.headers import Ethernet, IPv4, MacAddress, Tcp, Udp, Vlan
from repro.packet.mbuf import Mbuf
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.vswitch.classifier import TupleSpaceClassifier, signature_of
from repro.vswitch.emc import ExactMatchCache, Traversal
from repro.vswitch.megaflow import FlowWildcards, MegaflowCache
from repro.vswitch.ports import OvsPort, PortKind
from repro.vswitch.smc import SignatureMatchCache

# Called with (mbuf, in_port, reason) on table miss / controller action.
UpcallHandler = Callable[[Mbuf, int, str], None]


class Datapath:
    """Forwarding engine: lookup structures + action execution."""

    def __init__(
        self,
        table: FlowTable,
        costs: CostModel = DEFAULT_COST_MODEL,
        clock: Optional[Callable[[], float]] = None,
        upcall_handler: Optional[UpcallHandler] = None,
        emc_enabled: bool = True,
        burst_size: int = 32,
        smc_enabled: bool = True,
        megaflow_enabled: bool = True,
    ) -> None:
        self.table = table
        self.costs = costs
        self.clock = clock or (lambda: 0.0)
        self.upcall_handler = upcall_handler
        self.burst_size = burst_size
        self.emc_enabled = emc_enabled
        self.smc_enabled = smc_enabled
        self.megaflow_enabled = megaflow_enabled
        self.emc = ExactMatchCache()
        self.smc = SignatureMatchCache()
        self.megaflow = MegaflowCache()
        self.classifier = TupleSpaceClassifier(table)
        table.add_listener(self._on_table_change)
        # Multi-table pipeline (OF1.3 goto_table): table 0 is the entry
        # point; later tables are attached on demand by the bridge.
        self.tables: Dict[int, FlowTable] = {0: table}
        self.classifiers: Dict[int, TupleSpaceClassifier] = {
            0: self.classifier
        }
        self.pipeline_drops = 0
        self.ports: Dict[int, OvsPort] = {}
        self.mirrors: List = []  # repro.vswitch.mirror.Mirror
        self.policers: Dict[int, object] = {}  # ofport -> IngressPolicer
        # Bounded upcall path: misses are admitted (or shed, accounted)
        # and dispatched to the handler at the end of the poll iteration.
        self.upcall_queue = BoundedUpcallQueue(clock=self.clock)
        # Per-port RX shed levels (fraction of each burst dropped before
        # classification), maintained by the overload monitor.
        self.rx_shed: Dict[int, float] = {}
        self.rx_early_drops: Dict[int, int] = {}
        self._shed_debt: Dict[int, float] = {}
        # Cumulative fast-path statistics, all counted in packets (not
        # flow batches); smc_hits and megaflow_hits are the subsets of
        # classifier_hits resolved through a validated hint / a cached
        # wildcard entry.
        self.emc_hits = 0
        self.smc_hits = 0
        self.megaflow_hits = 0
        self.classifier_hits = 0
        self.upcalls_no_match = 0
        self.upcalls_action = 0
        self.action_drops = 0
        self.unknown_port_drops = 0
        self.packets_processed = 0
        self.packets_mirrored = 0
        # Stateful fast-path tier (repro.state): programs rules may
        # delegate to via XfsmAction, keyed by program name.  Evaluation
        # runs after cache-hit resolution — a stateful decision costs
        # ovs_xfsm_exec (~EMC-hit time), not a classifier walk + VM hop.
        self.xfsm_programs: Dict[str, object] = {}
        self.xfsm_evaluated = 0
        self.xfsm_drops = 0
        self.xfsm_unknown_drops = 0
        # Flow-batch statistics.
        self.flow_batches = 0
        self.packets_batched = 0
        self.batch_fill_counts: Dict[int, int] = {}
        # Optional control-path coverage hook (wired by Observability):
        # called as coverage(event_name, amount).
        self.coverage: Optional[Callable[..., None]] = None

    def _on_table_change(self, kind: str, entry: FlowEntry) -> None:
        if kind == "added":
            # A new rule may outrank cached resolutions for any key it
            # covers (keys are stable across the pipeline: goto+set-field
            # combinations are not produced by this control plane).
            evicted = self.emc.invalidate_matching(entry.match)
            # Any megaflow region overlapping the new rule could now
            # resolve differently somewhere inside the overlap.
            mf_evicted = self.megaflow.invalidate_matching(entry.match)
        else:
            # Removed or modified: every traversal containing the entry
            # is stale (its actions or pipeline structure changed).
            evicted = self.emc.invalidate_entry(entry)
            mf_evicted = self.megaflow.invalidate_entry(entry)
        if evicted and self.coverage is not None:
            self.coverage("emc_precise_eviction", evicted)
        if mf_evicted and self.coverage is not None:
            self.coverage("megaflow_precise_eviction", mf_evicted)
        if kind != "added":
            # Removing a delegating rule orphans the flow state it
            # created: drop exactly the entries the rule's match covers
            # (the EMC precise-invalidation contract, applied to state).
            for action in entry.actions:
                if not isinstance(action, XfsmAction):
                    continue
                program = self.xfsm_programs.get(action.program)
                if program is None:
                    continue
                stale = program.table.invalidate_matching(entry.match)
                if stale and self.coverage is not None:
                    self.coverage("xfsm_precise_invalidation", stale)

    def register_xfsm(self, program) -> None:
        """Register a :class:`repro.state.xfsm.Xfsm` for delegation."""
        if program.name in self.xfsm_programs:
            raise ValueError("xfsm program %r already registered"
                             % program.name)
        self.xfsm_programs[program.name] = program

    def attach_table(self, table_id: int, table: FlowTable) -> None:
        """Register a later pipeline table (goto_table target)."""
        if table_id in self.tables:
            raise ValueError("table %d already attached" % table_id)
        self.tables[table_id] = table
        self.classifiers[table_id] = TupleSpaceClassifier(table)
        table.add_listener(self._on_table_change)

    # -- port management ----------------------------------------------------

    def add_port(self, port: OvsPort) -> None:
        if port.ofport in self.ports:
            raise ValueError("ofport %d already in use" % port.ofport)
        self.ports[port.ofport] = port

    def remove_port(self, ofport: int) -> OvsPort:
        try:
            return self.ports.pop(ofport)
        except KeyError:
            raise ValueError("no port %d" % ofport) from None

    def port(self, ofport: int) -> OvsPort:
        return self.ports[ofport]

    # -- batch statistics -----------------------------------------------------

    @property
    def avg_batch_fill(self) -> float:
        """Mean packets per flow batch (1.0 = no batching benefit)."""
        if not self.flow_batches:
            return 0.0
        return self.packets_batched / self.flow_batches

    @property
    def miss_upcalls(self) -> int:
        """Total upcalls, both reasons (kept for compatibility; the
        metrics plane exports the per-reason split)."""
        return self.upcalls_no_match + self.upcalls_action

    # -- the upcall path ------------------------------------------------------

    def _punt(self, mbuf: Mbuf, in_port: int, reason: str,
              stages=None) -> float:
        """Hand one packet to the slow path; returns the fast-path cost.

        The packet is admitted to the upcall queue (enqueue cost) or
        shed (accounted drop, shed cost); the slow-path cost proper is
        charged at dispatch.
        """
        if self.upcall_queue.admit(mbuf, in_port, reason):
            cost = self.costs.upcall_enqueue
        else:
            cost = self.costs.upcall_shed
        if stages is not None:
            stages.add("miss_upcall", cost, packets=1)
        return cost

    def _dispatch_upcalls(self, stages=None) -> float:
        """Drain the bounded queue (end of the poll iteration), charging
        the slow-path cost per upcall actually served."""
        queue = self.upcall_queue
        handler = self.upcall_handler
        if handler is None:
            def handler(mbuf, in_port, reason):
                mbuf.free()
        dispatched = queue.dispatch(handler)
        if not dispatched:
            return 0.0
        cost = self.costs.ovs_miss_upcall * dispatched
        if stages is not None:
            stages.add("miss_upcall", cost, packets=dispatched)
        return cost

    # -- lookup ------------------------------------------------------------------

    def _walk_pipeline(
        self, key: FlowKey, fill: int
    ) -> Tuple[Optional[Traversal], float, str]:
        """Resolve ``key`` through SMC + megaflow + the classifier.

        Returns ``(traversal, lookup cost, tier)`` where tier is "smc",
        "megaflow" or "dpcls" and traversal is None on a table-0 miss.
        ``fill`` is only used to bulk-count pipeline drops (one per
        packet served).

        Tier order at table 0: a validated SMC hint wins first; with no
        hint the megaflow cache is probed (a hit returns the cached
        full-pipeline traversal — priority-safe by mask construction,
        no revalidation); a megaflow miss walks the classifier with a
        :class:`FlowWildcards` accumulator so the resolution seeds a
        new minimally-masked megaflow entry covering the whole
        aggregate, later pipeline tables included.
        """
        costs = self.costs
        entries: List[FlowEntry] = []
        table_id = 0
        cost = 0.0
        tier = "dpcls"
        wc: Optional[FlowWildcards] = None
        while True:
            if table_id == 0 and self.smc_enabled:
                signature = self.smc.probe(key)
            else:
                signature = None
            if table_id == 0 and signature is not None:
                entry, confirmed = self.classifier.lookup_hinted(
                    key, signature)
                validated = entry is not None and confirmed
                self.smc.account(validated)
                if validated:
                    tier = "smc"
                    cost += costs.ovs_smc_hit
                else:
                    cost += costs.ovs_classifier_hit
                    if entry is not None:
                        self.smc.insert(key, signature_of(entry))
            elif table_id == 0:
                if self.smc_enabled:
                    self.smc.account(False)
                if self.megaflow_enabled:
                    cached = self.megaflow.lookup(key)
                    if cached is not None:
                        return cached, cost + costs.ovs_megaflow_hit, \
                            "megaflow"
                    wc = FlowWildcards()
                entry = self.classifier.lookup(key, wc=wc)
                cost += costs.ovs_classifier_hit
                if self.smc_enabled and entry is not None:
                    self.smc.insert(key, signature_of(entry))
            else:
                entry = self.classifiers[table_id].lookup(key, wc=wc)
                cost += costs.ovs_classifier_hit
            if entry is None:
                if table_id == 0:
                    return None, cost, tier
                self.pipeline_drops += fill
                break
            entries.append(entry)
            goto = goto_table_of(entry.actions)
            if goto is None:
                break
            if (goto.table_id <= table_id
                    or goto.table_id not in self.classifiers):
                self.pipeline_drops += fill
                break
            table_id = goto.table_id
        traversal = tuple(entries)
        if wc is not None and entries:
            self.megaflow.insert(key, wc, traversal)
        return traversal, cost, tier

    def _resolve_batch(self, key: FlowKey, batch: List[Mbuf],
                       stages=None) -> "tuple[Optional[tuple], float]":
        """Resolve one flow batch; one lookup serves every packet.

        Returns ``(traversal, cpu cost)`` where traversal is the tuple
        of flow entries matched in pipeline order, or None on a table-0
        miss (upcall).  A miss in a later table, a goto to a missing
        table or a non-increasing goto all terminate the pipeline as an
        OF1.3 drop (the traversal so far is returned; its combined
        actions produce no output).  The lookup walks all four tiers
        (EMC -> SMC -> megaflow -> dpcls); counters and the ``stages``
        attribution (a :class:`repro.obs.cycles.StageAccounting`) are
        bulk-incremented by the batch fill.
        """
        fill = len(batch)
        costs = self.costs
        if self.emc_enabled:
            traversal = self.emc.lookup(key)
            if traversal is not None:
                self.emc_hits += fill
                if stages is not None:
                    stages.add("emc_lookup", costs.ovs_emc_hit,
                               packets=fill)
                self._trace_batch(batch, "emc", result="hit")
                return traversal, costs.ovs_emc_hit
        traversal, cost, tier = self._walk_pipeline(key, fill)
        if traversal is None:
            self.upcalls_no_match += fill
            self._trace_batch(batch, "upcall", reason="no_match")
            # Charge the failed walk; the enqueue and dispatch costs
            # are itemized by _punt and dispatch.
            if stages is not None:
                stages.add("miss_upcall", cost, packets=fill)
            return None, cost
        self.classifier_hits += fill
        if tier == "smc":
            self.smc_hits += fill
        elif tier == "megaflow":
            self.megaflow_hits += fill
        if stages is not None:
            stage = {"smc": "smc_lookup",
                     "megaflow": "megaflow_lookup"}.get(
                         tier, "classifier_lookup")
            stages.add(stage, cost, packets=fill)
        self._trace_batch(batch, "classifier",
                          tables=len(traversal), tier=tier)
        if self.emc_enabled:
            self.emc.insert(key, traversal)
        return traversal, cost

    def _trace_batch(self, batch: List[Mbuf], hop: str, **attrs) -> None:
        for mbuf in batch:
            if mbuf.trace is not None:
                mbuf.trace.add(self.clock(), hop, **attrs)

    # -- the stateful tier (repro.state) ------------------------------------------------

    def _xfsm_packet(self, stateful: List[XfsmAction], mbuf: Mbuf,
                     in_port: int, now: float, stages=None
                     ) -> "tuple[float, bool]":
        """Run one packet through its rule's XFSM delegations.

        Returns ``(cpu cost, allowed)``; a denied (or unresolvable)
        packet is freed here.  Evaluation is per packet even though the
        lookup is per flow batch: packets of one batch share a flow key
        but not their TCP flags, and a SYN must drive a different
        transition than the ACK behind it.
        """
        from repro.state.xfsm import event_for

        costs = self.costs
        cost = 0.0
        allowed = True
        key = cached_flow_key(mbuf, in_port)
        for action in stateful:
            cost += costs.ovs_xfsm_exec
            self.xfsm_evaluated += 1
            program = self.xfsm_programs.get(action.program)
            if program is None:
                # Fail closed: a delegation to an unregistered program
                # must not forward unexamined packets.
                self.xfsm_unknown_drops += 1
                if mbuf.trace is not None:
                    mbuf.trace.add(now, "xfsm", program=action.program,
                                   result="unknown_program")
                allowed = False
                break
            verdict = program.evaluate(
                event_for(key, mbuf, now, from_inside=action.from_inside),
                mbuf=mbuf,
            )
            if mbuf.trace is not None:
                mbuf.trace.add(now, "xfsm", program=action.program,
                               result="allow" if verdict.allow else "drop",
                               state=verdict.state)
            if not verdict.allow:
                self.xfsm_drops += 1
                allowed = False
                break
        if stages is not None:
            stages.add("xfsm_exec", cost, packets=1)
        if not allowed:
            mbuf.free()
        return cost, allowed

    # -- action execution -----------------------------------------------------------

    @staticmethod
    def _apply_set_field(mbuf: Mbuf, field: str, value: int) -> None:
        """Rewrite a header field on the packet carried by ``mbuf``.

        Assumes per-mbuf packet objects (functional paths); benchmark
        workloads that share a template never install set-field rules.
        """
        packet = mbuf.packet
        if field in ("eth_src", "eth_dst"):
            eth = packet.get(Ethernet)
            if eth is not None:
                setattr(eth, field[4:], MacAddress(value))
        elif field in ("ip_src", "ip_dst", "ip_tos"):
            ipv4 = packet.get(IPv4)
            if ipv4 is not None:
                setattr(ipv4, field[3:] if field != "ip_tos" else "tos",
                        value)
        elif field in ("l4_src", "l4_dst"):
            l4 = packet.get(Tcp) or packet.get(Udp)
            if l4 is not None:
                setattr(l4, "src_port" if field == "l4_src" else "dst_port",
                        value)
        elif field == "vlan_vid":
            vlan = packet.get(Vlan)
            if vlan is not None:
                vlan.vid = value
        mbuf.userdata = None  # cached flow key is stale now

    def execute_actions(
        self,
        entry_actions,
        mbuf: Mbuf,
        in_port: int,
        output_batches: Dict[int, List[Mbuf]],
    ) -> None:
        """Run an action list; packets to forward land in output_batches.

        The mbuf reference is consumed: it is either batched for output,
        admitted to (or shed by) the upcall queue, or freed (drop /
        unknown port).
        """
        consumed = False
        for action in entry_actions:
            if isinstance(action, SetFieldAction):
                self._apply_set_field(mbuf, action.field, action.value)
            elif isinstance(action, OutputAction):
                if action.port == PORT_CONTROLLER:
                    self.upcalls_action += 1
                    self._punt(mbuf, in_port, "action")
                    consumed = True
                elif action.port in self.ports:
                    # Multiple outputs clone by reference counting.
                    target = mbuf if not consumed else mbuf.retain()
                    output_batches.setdefault(action.port, []).append(target)
                    consumed = True
                else:
                    # Output to an unknown port: ignored, but accounted
                    # so conservation checks can balance the books.
                    self.unknown_port_drops += 1
        if not consumed:
            self.action_drops += 1
            mbuf.free()  # empty action list = OpenFlow drop

    # -- the poll iteration body --------------------------------------------------------

    def process_port(self, port: OvsPort,
                     output_batches: Dict[int, List[Mbuf]],
                     stages=None) -> "tuple[float, int]":
        """Poll one port; returns (cpu cost, packets processed)."""
        if not port.up:
            return 0.0, 0  # administratively down: leave the ring alone
        mbufs = port.receive_burst(self.burst_size)
        if not mbufs:
            return 0.0, 0
        policer = self.policers.get(port.ofport)
        if policer is not None:
            mbufs = policer.filter_burst(mbufs)
            if not mbufs:
                if stages is not None:
                    stages.add("housekeeping", self.costs.burst_overhead)
                return self.costs.burst_overhead, 0
        costs = self.costs
        shed_cost = 0.0
        shed_level = self.rx_shed.get(port.ofport)
        if shed_level:
            # Overload early drop: shed the tail of the burst before it
            # costs a single classifier cycle.  Fractional levels carry
            # debt across bursts so the realized drop rate converges on
            # the configured level deterministically.
            debt = self._shed_debt.get(port.ofport, 0.0)
            debt += len(mbufs) * shed_level
            drop_count = min(int(debt), len(mbufs))
            self._shed_debt[port.ofport] = debt - drop_count
            if drop_count:
                keep = len(mbufs) - drop_count
                now = self.clock()
                for mbuf in mbufs[keep:]:
                    if mbuf.trace is not None:
                        mbuf.trace.add(now, "rx-shed", port=port.name)
                    mbuf.free()
                mbufs = mbufs[:keep]
                self.rx_early_drops[port.ofport] = (
                    self.rx_early_drops.get(port.ofport, 0) + drop_count)
                if self.coverage is not None:
                    self.coverage("rx_early_drop", drop_count)
                shed_cost = costs.upcall_shed * drop_count
                if stages is not None:
                    stages.add("rx_shed", shed_cost, packets=drop_count)
                if not mbufs:
                    if stages is not None:
                        stages.add("housekeeping", costs.burst_overhead)
                    return costs.burst_overhead + shed_cost, 0
        rx_cost = (costs.nic_pmd_rx if port.kind == PortKind.PHY
                   else costs.ring_op)
        total_cost = shed_cost + costs.burst_overhead + rx_cost * len(mbufs)
        now = self.clock()
        if stages is not None:
            stages.add("housekeeping", costs.burst_overhead)
            stages.add("rx_normal", rx_cost * len(mbufs),
                       packets=len(mbufs))
        for mbuf in mbufs:
            if mbuf.trace is not None:
                mbuf.trace.add(now, "switch-rx", port=port.name)
        # Ingress mirroring: clone before the actions can consume the
        # packet.
        for mirror in self.mirrors:
            if port.ofport in mirror.select_src:
                for mbuf in mbufs:
                    output_batches.setdefault(mirror.output, []).append(
                        mbuf.retain()
                    )
                self.packets_mirrored += len(mbufs)
                total_cost += costs.ring_op * len(mbufs)
                if stages is not None:
                    stages.add("actions", costs.ring_op * len(mbufs))
        total_cost += self._process_batched(
            mbufs, port.ofport, now, output_batches, stages)
        self.packets_processed += len(mbufs)
        return total_cost, len(mbufs)

    def _process_batched(self, mbufs: List[Mbuf], in_port: int, now: float,
                         output_batches: Dict[int, List[Mbuf]],
                         stages=None) -> float:
        """dp_netdev-style flow batches: group the burst by flow key,
        resolve each distinct key once, apply actions batch-at-a-time.

        Packets of the same flow keep their relative order (each batch
        preserves burst order); packets of different flows may be
        reordered against each other, exactly like real OVS output
        batching.
        """
        batches: Dict[FlowKey, List[Mbuf]] = {}
        for mbuf in mbufs:
            key = cached_flow_key(mbuf, in_port)
            batch = batches.get(key)
            if batch is None:
                batches[key] = [mbuf]
            else:
                batch.append(mbuf)
        costs = self.costs
        total_cost = 0.0
        for key, batch in batches.items():
            fill = len(batch)
            self.flow_batches += 1
            self.packets_batched += fill
            self.batch_fill_counts[fill] = \
                self.batch_fill_counts.get(fill, 0) + 1
            traversal, lookup_cost = self._resolve_batch(key, batch,
                                                         stages=stages)
            total_cost += lookup_cost
            if traversal is None:
                for mbuf in batch:
                    total_cost += self._punt(mbuf, in_port, "no_match",
                                             stages=stages)
                continue
            byte_total = sum(mbuf.wire_length for mbuf in batch)
            combined = [
                action
                for entry in traversal
                for action in entry.actions
                if not isinstance(action, GotoTableAction)
            ]
            for entry in traversal:
                entry.account(fill, byte_total, now)
            stateful = [action for action in combined
                        if isinstance(action, XfsmAction)]
            if stateful:
                # The lookup is shared by the batch; the stateful
                # verdicts are not (flags differ packet to packet).
                combined = [action for action in combined
                            if not isinstance(action, XfsmAction)]
                survivors = []
                for mbuf in batch:
                    xfsm_cost, allowed = self._xfsm_packet(
                        stateful, mbuf, in_port, now, stages=stages)
                    total_cost += xfsm_cost
                    if allowed:
                        survivors.append(mbuf)
                batch = survivors
                if not batch:
                    continue
                fill = len(batch)
            action_cost = (costs.ovs_batch_action
                           + costs.ovs_action_per_packet * fill)
            total_cost += action_cost
            if stages is not None:
                stages.add("actions", action_cost, packets=fill)
            for mbuf in batch:
                self.execute_actions(combined, mbuf, in_port,
                                     output_batches)
        return total_cost

    def flush_outputs(self, output_batches: Dict[int, List[Mbuf]],
                      stages=None) -> float:
        """Send batched outputs; returns the cpu cost of the TX work."""
        costs = self.costs
        total_cost = 0.0
        # Egress mirroring: one level only (clones are never re-mirrored).
        if self.mirrors:
            extra: Dict[int, List[Mbuf]] = {}
            for mirror in self.mirrors:
                for ofport in mirror.select_dst:
                    mbufs = output_batches.get(ofport)
                    if not mbufs:
                        continue
                    extra.setdefault(mirror.output, []).extend(
                        mbuf.retain() for mbuf in mbufs
                    )
                    self.packets_mirrored += len(mbufs)
                    total_cost += costs.ring_op * len(mbufs)
                    if stages is not None:
                        stages.add("actions", costs.ring_op * len(mbufs))
            for ofport, mbufs in extra.items():
                output_batches.setdefault(ofport, []).extend(mbufs)
        for ofport, mbufs in output_batches.items():
            port = self.ports.get(ofport)
            if port is None:
                for mbuf in mbufs:
                    mbuf.free()
                continue
            if not port.up:
                for mbuf in mbufs:
                    port.tx_dropped += 1
                    mbuf.free()
                continue
            tx_cost = (costs.nic_pmd_tx if port.kind == PortKind.PHY
                       else costs.ring_op)
            total_cost += tx_cost * len(mbufs)
            if stages is not None:
                stages.add("tx", tx_cost * len(mbufs),
                           packets=len(mbufs))
            now = self.clock()
            for mbuf in mbufs:
                if mbuf.trace is not None:
                    mbuf.trace.add(now, "switch-tx", port=port.name)
            port.send_burst(mbufs)
        output_batches.clear()
        return total_cost

    def process_ports(self, ports: List[OvsPort],
                      stages=None, stages_for=None,
                      on_port_cost=None) -> float:
        """One full PMD iteration over ``ports``; returns total cpu cost.

        ``stages_for(port)`` (optional) selects the stage table a given
        port's work is attributed to — the vswitchd passes a tee over
        the core table and the port's own table so the scheduler can
        reattribute when ports move.  ``on_port_cost(port, cost,
        packets)`` (optional) is called after each non-idle port poll;
        the rxq load tracker samples per-(port, core) cycles there.
        The final output flush is charged to ``stages`` only: tx work
        is batched across ports and not attributable to one of them.
        """
        output_batches: Dict[int, List[Mbuf]] = {}
        total_cost = 0.0
        for port in ports:
            port_stages = stages if stages_for is None else stages_for(port)
            cost, count = self.process_port(port, output_batches,
                                            stages=port_stages)
            if on_port_cost is not None and (cost or count):
                on_port_cost(port, cost, count)
            total_cost += cost
        total_cost += self.flush_outputs(output_batches, stages=stages)
        total_cost += self._dispatch_upcalls(stages=stages)
        return total_cost

    # -- direct injection (packet-out, test harnesses) ---------------------------------

    def inject(self, mbuf: Mbuf, actions) -> None:
        """Execute ``actions`` on a packet outside the polling fast path
        (the bridge uses this for controller packet-out messages)."""
        output_batches: Dict[int, List[Mbuf]] = {}
        self.execute_actions(actions, mbuf, in_port=PORT_CONTROLLER,
                             output_batches=output_batches)
        self.flush_outputs(output_batches)
