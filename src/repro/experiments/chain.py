"""The paper's evaluation workload: chains of forwarding VMs.

"In all the tests, we consider chains of VMs connected only through
p-2-p links, where each VM has two dpdkr ports and runs a single core
DPDK application that moves packets from one port to another" — and the
same VMs are used with and without the highway (transparency).

Two variants, matching Figure 3:

* ``memory_only=True`` (Fig. 3a): the first and last VM act as traffic
  source/sink, so no NIC or PCIe bottleneck is involved;
* ``memory_only=False`` (Fig. 3b): traffic enters and leaves the chain
  through two 10 G NICs.

Traffic is bidirectional 64-byte frames unless configured otherwise.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.forwarder import ForwarderApp
from repro.metrics.latency import LatencyRecorder
from repro.metrics.rates import to_mpps
from repro.obs.cycles import StageAccounting
from repro.orchestration.node import NfvNode
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import Environment
from repro.traffic.generator import SourceApp, WireSource
from repro.traffic.profiles import TrafficProfile, uniform_profile
from repro.traffic.sink import SinkApp, WireSink

# Simulated seconds the control plane gets per bypass link to establish
# (detection + RPC + parallel hot-plugs + two PMD round trips ≈ 0.1 s,
# serialized through the single compute agent).
SETTLE_PER_LINK = 0.15


@dataclass
class ChainResult:
    """Outcome of one chain run."""

    num_vms: int
    bypass: bool
    memory_only: bool
    frame_size: int
    duration: float
    forward_delivered: int = 0
    reverse_delivered: int = 0
    forward_mpps: float = 0.0
    reverse_mpps: float = 0.0
    throughput_mpps: float = 0.0       # aggregate, both directions
    latency_forward: Optional[LatencyRecorder] = None
    latency_reverse: Optional[LatencyRecorder] = None
    active_bypasses: int = 0
    ovs_utilization: List[float] = field(default_factory=list)
    setup_times: List[float] = field(default_factory=list)
    # Whole-run conservation accounting, populated when run(drain=...)
    # stops the sources and drains the pipeline: every offered packet
    # is then either delivered or genuinely lost inside the node.
    offered_total: int = 0             # generated + generator tx failures
    delivered_total: int = 0
    # Packets a stateful policy (guest firewall or XFSM program)
    # deliberately dropped: accounted separately so conservation still
    # closes — offered = delivered + policy_dropped + lost.
    policy_dropped: int = 0
    drained: bool = False

    @property
    def lost_total(self) -> int:
        return max(0, self.offered_total - self.delivered_total
                   - self.policy_dropped)

    @property
    def loss_fraction(self) -> float:
        if not self.offered_total:
            return 0.0
        return self.lost_total / self.offered_total

    @property
    def mean_latency(self) -> float:
        recorders = [r for r in (self.latency_forward, self.latency_reverse)
                     if r is not None and r.count]
        if not recorders:
            return 0.0
        total = sum(r.total for r in recorders)
        count = sum(r.count for r in recorders)
        return total / count

    def row(self) -> List[object]:
        return [
            self.num_vms,
            "bypass" if self.bypass else "vanilla",
            round(self.throughput_mpps, 3),
            round(self.mean_latency * 1e6, 2),
            self.active_bypasses,
        ]


class ChainExperiment:
    """Builds and runs one VM chain."""

    def __init__(
        self,
        num_vms: int,
        bypass: bool = True,
        memory_only: bool = True,
        frame_size: int = 64,
        duration: float = 0.01,
        warmup_fraction: float = 0.2,
        n_ovs_cores: int = 2,
        costs: CostModel = DEFAULT_COST_MODEL,
        ring_size: int = 1024,
        flows: int = 4,
        source_rate_pps: Optional[float] = None,
        wire_load: float = 1.0,
        burst_size: int = 32,
        emc_enabled: bool = True,
        megaflow_enabled: bool = True,
        accounting_enabled: bool = True,
        trace_sample: Optional[int] = None,
        snapshot_period: Optional[float] = None,
        rxq_assign: str = "roundrobin",
        auto_lb: bool = False,
        auto_lb_policy=None,
        upcall_policy=None,
        fail_mode: str = "standalone",
        overload: bool = False,
        overload_policy=None,
        profile: Optional[TrafficProfile] = None,
        extra_rules: int = 0,
        churn_hz: float = 0.0,
        stateful: str = "none",
        reverse_traffic: bool = True,
        source_on_time: Optional[float] = None,
        source_off_time: Optional[float] = None,
    ) -> None:
        min_vms = 2 if memory_only else 1
        if num_vms < min_vms:
            raise ValueError(
                "need at least %d VMs for this variant" % min_vms
            )
        self.num_vms = num_vms
        self.bypass = bypass
        self.memory_only = memory_only
        self.frame_size = frame_size
        self.duration = duration
        self.warmup_fraction = warmup_fraction
        self.n_ovs_cores = n_ovs_cores
        self.costs = costs
        self.ring_size = ring_size
        self.flows = flows
        self.source_rate_pps = source_rate_pps
        self.wire_load = wire_load
        self.burst_size = burst_size
        self.emc_enabled = emc_enabled
        self.megaflow_enabled = megaflow_enabled
        self.accounting_enabled = accounting_enabled
        self.trace_sample = trace_sample
        self.snapshot_period = snapshot_period
        self.rxq_assign = rxq_assign
        self.auto_lb = auto_lb
        self.auto_lb_policy = auto_lb_policy
        self.upcall_policy = upcall_policy
        self.fail_mode = fail_mode
        self.overload = overload
        self.overload_policy = overload_policy
        self.profile = profile
        if extra_rules < 0:
            raise ValueError("extra_rules must be >= 0")
        if churn_hz < 0:
            raise ValueError("churn_hz must be >= 0")
        self.extra_rules = extra_rules
        self.churn_hz = churn_hz
        # Stateful ablation: where does the perimeter-firewall decision
        # run?  "none" = plain forwarders; "guest" = a StatefulFirewall
        # VNF replaces the first middle forwarder; "xfsm" = the same
        # policy compiled onto the first inter-VM adjacency as an XFSM
        # delegation (executed by the datapath, or by the bypass PMD
        # once the link is accelerated — the rules stay state-safe, so
        # the highway still qualifies).
        if stateful not in ("none", "guest", "xfsm"):
            raise ValueError("stateful must be none|guest|xfsm")
        if stateful == "guest" and (not memory_only or num_vms < 3):
            raise ValueError(
                "stateful='guest' needs a memory-only chain with a "
                "middle VM (num_vms >= 3)"
            )
        if stateful == "xfsm" and num_vms < 2:
            raise ValueError("stateful='xfsm' needs an inter-VM link")
        self.stateful = stateful
        self.reverse_traffic = reverse_traffic
        self.source_on_time = source_on_time
        self.source_off_time = source_off_time
        self.xfsm_program = None
        self.guest_firewall = None
        self.flowmods_applied = 0
        self.env: Optional[Environment] = None
        self.node: Optional[NfvNode] = None
        self.apps: List = []
        self.sources: List = []
        self.sinks: Dict[str, object] = {}

    @property
    def obs(self):
        """The node's observability plane (available after build())."""
        return self.node.obs if self.node is not None else None

    # -- topology -----------------------------------------------------------

    def _port(self, vm_index: int, side: int) -> str:
        return "vm%d.p%d" % (vm_index, side)

    def build(self) -> None:
        self.env = Environment()
        self.node = NfvNode(
            env=self.env,
            costs=self.costs,
            n_pmd_cores=self.n_ovs_cores,
            highway_enabled=self.bypass,
            ring_size=self.ring_size,
            trace_sample_interval=self.trace_sample,
            rxq_assign=self.rxq_assign,
            auto_lb=self.auto_lb,
            auto_lb_policy=self.auto_lb_policy,
            upcall_policy=self.upcall_policy,
            fail_mode=self.fail_mode,
            overload=self.overload,
            overload_policy=self.overload_policy,
        )
        datapath = self.node.switch.datapath
        datapath.burst_size = self.burst_size
        datapath.emc_enabled = self.emc_enabled
        # The A-emc ablation measures life without the caches: disabling
        # the EMC also disables the SMC and the megaflow cache so the
        # classifier takes every hit.  --no-megaflow ablates the
        # megaflow tier alone.
        datapath.smc_enabled = self.emc_enabled
        datapath.megaflow_enabled = (self.megaflow_enabled
                                     and self.emc_enabled)
        for vm_index in range(1, self.num_vms + 1):
            handle = self.node.create_vm(
                "vm%d" % vm_index,
                [self._port(vm_index, 0), self._port(vm_index, 1)],
                ring_size=self.ring_size,
            )
            for pmd in handle.pmds.values():
                pmd.accounting_enabled = self.accounting_enabled
        if not self.memory_only:
            self.node.add_nic("nic0")
            self.node.add_nic("nic1")
        self._install_rules()
        self._build_endpoints()

    def _install_rules(self) -> None:
        node = self.node
        if self.stateful == "xfsm":
            from repro.state.programs import firewall_program

            self.xfsm_program = firewall_program()
            node.register_xfsm(self.xfsm_program)
        # Inter-VM adjacencies, both directions (the bypassable links).
        # With stateful="xfsm" the first adjacency is the firewall
        # perimeter: both directions delegate to the shared program
        # (forward = inside-originated), and — being state-safe — the
        # rules still qualify for a bypass.
        for vm_index in range(1, self.num_vms):
            if self.stateful == "xfsm" and vm_index == 1:
                node.install_xfsm_rule(
                    self._port(vm_index, 1), self._port(vm_index + 1, 0),
                    self.xfsm_program.name, from_inside=True,
                )
                node.install_xfsm_rule(
                    self._port(vm_index + 1, 0), self._port(vm_index, 1),
                    self.xfsm_program.name, from_inside=False,
                )
                continue
            node.install_p2p_rule(self._port(vm_index, 1),
                                  self._port(vm_index + 1, 0))
            node.install_p2p_rule(self._port(vm_index + 1, 0),
                                  self._port(vm_index, 1))
        if not self.memory_only:
            node.install_p2p_rule("nic0", self._port(1, 0))
            node.install_p2p_rule(self._port(1, 0), "nic0")
            node.install_p2p_rule(self._port(self.num_vms, 1), "nic1")
            node.install_p2p_rule("nic1", self._port(self.num_vms, 1))
        if self.extra_rules:
            self._install_filler_rules(self.extra_rules)

    # Filler-rule shapes: cycling eth_src mask widths spreads the rules
    # over several classifier subtables, the table-bloat stress the rule
    # sweep measures (the p-2-p rules outrank all of them, so the
    # traffic's forwarding behaviour is untouched).
    _FILLER_MASK_SHIFTS = (0, 8, 16, 24)

    def _install_filler_rules(self, count: int) -> None:
        from repro.openflow.match import Match
        from repro.openflow.table import FlowEntry

        full = (1 << 48) - 1
        table = self.node.switch.bridge.table
        for index in range(count):
            shift = self._FILLER_MASK_SHIFTS[
                index % len(self._FILLER_MASK_SHIFTS)
            ]
            mask = (full << shift) & full
            value = ((0x02_00_00_00_00_00 | index << shift) & mask)
            table.add(FlowEntry(
                Match(eth_src=(value, mask)), [], priority=1,
            ))

    def _churn_process(self):
        """Rolling flowmods at ``churn_hz``: add then delete an unused
        rule, alternating — the EMC/SMC invalidation pressure the churn
        sweep measures, applied to a rule the traffic never matches."""
        from repro.openflow.match import Match
        from repro.openflow.table import FlowEntry

        env = self.env
        table = self.node.switch.bridge.table
        churn_match = Match(in_port=0xBE7C)  # no such port
        interval = 1.0 / self.churn_hz
        while True:
            yield env.timeout(interval)
            table.add(FlowEntry(churn_match, [], priority=1))
            table.delete(churn_match, strict=True, priority=1)
            self.flowmods_applied += 2

    def _build_endpoints(self) -> None:
        profile = self.profile or uniform_profile(
            self.frame_size, flows=self.flows
        )
        tracer = (self.node.obs.tracer
                  if self.trace_sample is not None else None)
        if self.memory_only:
            first, last = 1, self.num_vms
            first_handle = self.node.vms["vm%d" % first]
            last_handle = self.node.vms["vm%d" % last]
            # Forward direction: VM1 sources out of p1, VMN sinks at p0.
            self.sources.append(SourceApp(
                "src.fw", first_handle.pmd(self._port(first, 1)),
                profile=profile, costs=self.costs,
                rate_pps=self.source_rate_pps,
                burst_size=self.burst_size, tracer=tracer,
                on_time=self.source_on_time,
                off_time=self.source_off_time,
            ))
            self.sinks["forward"] = SinkApp(
                "sink.fw", last_handle.pmd(self._port(last, 0)),
                costs=self.costs, burst_size=self.burst_size,
            )
            # Reverse direction: VMN sources out of p0, VM1 sinks at p1.
            if self.reverse_traffic:
                self.sources.append(SourceApp(
                    "src.rv", last_handle.pmd(self._port(last, 0)),
                    profile=profile, costs=self.costs,
                    rate_pps=self.source_rate_pps,
                    burst_size=self.burst_size, tracer=tracer,
                    on_time=self.source_on_time,
                    off_time=self.source_off_time,
                ))
            self.sinks["reverse"] = SinkApp(
                "sink.rv", first_handle.pmd(self._port(first, 1)),
                costs=self.costs, burst_size=self.burst_size,
            )
            middle = range(2, self.num_vms)
        else:
            middle = range(1, self.num_vms + 1)
        guest_fw_index = min(middle) if self.stateful == "guest" else None
        for vm_index in middle:
            handle = self.node.vms["vm%d" % vm_index]
            if vm_index == guest_fw_index:
                from repro.apps.conntrack import StatefulFirewallApp

                env = self.env
                # Forward traffic enters a middle VM at p0: that side is
                # the perimeter's inside.
                self.guest_firewall = StatefulFirewallApp(
                    "vm%d.app" % vm_index,
                    inside_port=handle.pmd(self._port(vm_index, 0)),
                    outside_port=handle.pmd(self._port(vm_index, 1)),
                    costs=self.costs, burst_size=self.burst_size,
                    clock=lambda: env.now,
                )
                self.apps.append(self.guest_firewall)
                self.node.obs.register_conntrack(
                    self.guest_firewall.tracker, "vm%d" % vm_index)
                continue
            self.apps.append(ForwarderApp(
                "vm%d.app" % vm_index,
                handle.pmd(self._port(vm_index, 0)),
                handle.pmd(self._port(vm_index, 1)),
                costs=self.costs, burst_size=self.burst_size,
            ))

    # -- execution ------------------------------------------------------------------

    def run(self, duration: Optional[float] = None,
            drain: Optional[float] = None) -> ChainResult:
        """Run the chain; ``drain`` (simulated seconds) stops the
        sources after the measurement window and lets the pipeline
        empty, so the result carries exact offered/delivered/loss
        conservation totals (the RFC2544 harness's input)."""
        if self.env is None:
            self.build()
        duration = self.duration if duration is None else duration
        env = self.env
        node = self.node
        # Phase 1: control plane only — let every bypass establish before
        # any traffic flows (cheap in events, matches how an operator
        # would bring the service up before steering load onto it).
        link_count = 2 * (self.num_vms - 1) + (0 if self.memory_only else 4)
        node.settle_control_plane(
            extra_time=SETTLE_PER_LINK * max(1, link_count)
        )
        expected_bypasses = 2 * (self.num_vms - 1) if self.bypass else 0
        if node.active_bypasses != expected_bypasses:
            raise RuntimeError(
                "expected %d bypasses, got %d"
                % (expected_bypasses, node.active_bypasses)
            )
        # Phase 2: start the data plane.
        obs = node.obs
        for app in self.apps:
            app.stages = StageAccounting()
            obs.register_poll_loop(app.start(env), app.stages)
        if self.memory_only:
            for sink in self.sinks.values():
                obs.register_poll_loop(sink.start(env))
            for source in self.sources:
                obs.register_poll_loop(source.start(env))
        else:
            tracer = (obs.tracer
                      if self.trace_sample is not None else None)
            profile = uniform_profile(self.frame_size, flows=self.flows)
            self.sinks["forward"] = WireSink(env, self.node.nics["nic1"])
            self.sinks["reverse"] = WireSink(env, self.node.nics["nic0"])
            self.sources.append(WireSource(
                env, self.node.nics["nic0"], profile=profile,
                load=self.wire_load, tracer=tracer,
            ))
            self.sources.append(WireSource(
                env, self.node.nics["nic1"], profile=profile,
                load=self.wire_load, tracer=tracer,
            ))
        if self.snapshot_period is not None:
            obs.start_snapshotting(env, period=self.snapshot_period)
        if self.churn_hz > 0:
            env.process(self._churn_process(), name="chain.churn")
        # Warmup, then the measurement window.
        warmup_end = env.now + duration * self.warmup_fraction
        env.run(until=warmup_end)
        node.switch.reset_pmd_accounting()
        fw0 = self.sinks["forward"].received
        rv0 = self.sinks["reverse"].received
        env.run(until=warmup_end + duration)
        result = self._collect(duration, fw0, rv0)
        if drain is not None:
            # Stop offering, let every in-flight packet reach a sink
            # (or die), then account the whole run's conservation.
            for source in self.sources:
                source.stop()
            env.run(until=env.now + drain)
            result.offered_total = sum(
                source.generated + self._source_failures(source)
                for source in self.sources
            )
            result.delivered_total = sum(
                sink.received for sink in self.sinks.values()
            )
            result.policy_dropped = self._policy_drops()
            result.drained = True
        if self.snapshot_period is not None:
            node.obs.snapshot_now()  # final registry state, post-run
        return result

    def _policy_drops(self) -> int:
        """Packets deliberately dropped by stateful policy, wherever
        the decision ran: guest firewall, datapath XFSM execution, or
        the bypass PMDs' channel-side execution."""
        datapath = self.node.switch.datapath
        drops = datapath.xfsm_drops + datapath.xfsm_unknown_drops
        if self.guest_firewall is not None:
            drops += self.guest_firewall.blocked
        for handle in self.node.vms.values():
            for pmd in handle.pmds.values():
                drops += getattr(pmd, "xfsm_drops", 0)
        return drops

    @staticmethod
    def _source_failures(source) -> int:
        """Offered-but-rejected frames: TX-ring full for an in-VM
        source, NIC ingress drop for a wire source."""
        return (getattr(source, "tx_failures", 0)
                + getattr(source, "nic_drops_seen", 0))

    def _collect(self, duration: float, fw0: int, rv0: int) -> ChainResult:
        forward = self.sinks["forward"].received - fw0
        reverse = self.sinks["reverse"].received - rv0
        result = ChainResult(
            num_vms=self.num_vms,
            bypass=self.bypass,
            memory_only=self.memory_only,
            frame_size=self.frame_size,
            duration=duration,
            forward_delivered=forward,
            reverse_delivered=reverse,
            forward_mpps=to_mpps(forward, duration),
            reverse_mpps=to_mpps(reverse, duration),
            throughput_mpps=to_mpps(forward + reverse, duration),
            latency_forward=self.sinks["forward"].latency,
            latency_reverse=self.sinks["reverse"].latency,
            active_bypasses=self.node.active_bypasses,
            ovs_utilization=self.node.switch.pmd_utilization,
        )
        if self.node.manager is not None:
            # Per-link establishment time as the agent saw it (the queue
            # wait behind earlier links of the same deployment excluded).
            result.setup_times = [
                link.setup_request.setup_duration
                for link in self.node.manager.history
                if link.setup_request is not None
                and link.setup_request.completed
            ]
        return result


def run_chain_sweep(
    lengths,
    bypass: bool,
    memory_only: bool = True,
    **kwargs,
) -> List[ChainResult]:
    """One Figure-3 series: throughput for each chain length."""
    return [
        ChainExperiment(num_vms=length, bypass=bypass,
                        memory_only=memory_only, **kwargs).run()
        for length in lengths
    ]
