"""The three benchmark workloads, driven through ``ChainExperiment``.

Every workload is a 4-VM memory-only chain (VM1 and VM4 host the
source/sink pairs, VM2 and VM3 run the paper's bidirectional forwarder)
carrying 64 B UDP in both directions.  A run is:

1. **set-up** - ``ChainExperiment.build()`` plus the control-plane
   settle every ``python -m repro fig3a`` chain pays, repeated
   :data:`SETUPS` times so the reported host time is a median;
2. **paced phase** - sources paced well below capacity (an open loop:
   each source's credit accrues with simulated time whether or not the
   chain keeps up); latency, loss and cycles/packet are taken here;
3. **unpaced phase** - sources transmit as fast as their cores allow;
   the delivered rate is the chain's capacity.

Each phase ends by stopping the sources and draining the chain, so the
per-phase books close exactly: offered = delivered + policy_dropped +
lost, with every lost packet attributed to a source TX refusal, a guest
app drop or a switch-side drop.

The simulated length of each phase is a fixed function of ``seconds``
(calibrated so a phase takes about its share of ``seconds`` on the
reference host, see README.md); it never depends on wall-clock time, so
every ``sim`` metric is bit-identical for one (seed, seconds) pair and a
simulator speed-up moves only the ``host`` metrics.
"""

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.bypass import LinkState
from repro.core.pmd import TxState
from repro.experiments.chain import SETTLE_PER_LINK, ChainExperiment
from repro.metrics.latency import LatencyRecorder
from repro.obs.cycles import StageAccounting, seconds_to_cycles
from repro.openflow.match import Match
from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_TCP
from repro.traffic.profiles import (
    TrafficProfile, skewed_profile, uniform_profile,
)

from hostclock import HostTimer

NUM_VMS = 4
# Directed inter-VM adjacencies of the 4-VM chain: (src port, dst port).
ADJACENCIES = tuple(
    pair
    for vm in range(1, NUM_VMS)
    for pair in (("vm%d.p1" % vm, "vm%d.p0" % (vm + 1)),
                 ("vm%d.p0" % (vm + 1), "vm%d.p1" % vm))
)
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Share of ``seconds`` the unpaced window gets: it only has to measure
#: a deterministic capacity.
UNPACED_SHARE = 0.2
#: Equal simulated slices a paced or unpaced window is run in, and the
#: timed steps each slice is cut into (a calibration piece follows each).
CHUNKS = 10
SLICE_STEPS = 8
#: Timed steps the control-plane settle is cut into.
SETTLE_STEPS = 9
#: Simulated seconds of draining after a phase's sources stop.
DRAIN_STEP = 0.0005
DRAIN_MAX = 0.05
#: Seeded start offset of each source (simulated seconds): the phase
#: of the two directions relative to each other and to the PMD polls.
START_JITTER = 5e-6
#: The rule_churn flap rule: TCP/80 on one adjacency, above the p-2-p
#: rule.  The offered UDP never matches it, but it breaks p-2-p-ness.
FLAP_PRIORITY = 0xF000
#: Poll step while waiting for a flap's teardown or re-establishment.
FLAP_POLL = 0.001
#: Simulated seconds each flap owns: teardown (~40 ms) plus
#: re-establishment (~101 ms) plus a quiet tail.  Fixed slots give every
#: slice of the paced window about the same simulated work.
FLAP_SLOT = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    highway: bool
    expected_bypasses: int
    paced_pps: float              # per direction
    # Simulated seconds per host second on the reference host, used to
    # turn ``seconds`` into fixed simulated phase lengths.
    paced_rate: float             # unused when flaps set the window
    unpaced_rate: float
    paced_share: float            # share of ``seconds`` given to pacing
    zipf_flows: int = 0           # 0: 4 uniform flows
    filler_rules: int = 0
    stateful: str = "none"
    flap_host_s: float = 0.0      # host seconds per flap slot


WORKLOADS: Dict[str, Workload] = {
    "bypass_chain": Workload(
        name="bypass_chain",
        why=("highway on: 6 bypass links carry 64 B UDP, 4 flows each "
             "way, so rings, guest PMDs, apps and the sim engine "
             "dominate and the vswitch datapath sits idle"),
        highway=True, expected_bypasses=6, paced_pps=8e6,
        paced_rate=2.1e-3, unpaced_rate=3.5e-3, paced_share=0.65,
    ),
    "switched_chain": Workload(
        name="switched_chain",
        why=("highway off: a Zipf mix over 4096 flows crosses the "
             "switch three times and overflows the 8192-entry EMC, so "
             "the EMC/SMC/megaflow/dpcls hierarchy dominates"),
        highway=False, expected_bypasses=0, paced_pps=1e6,
        paced_rate=2.0e-3, unpaced_rate=3.2e-3, paced_share=0.65,
        zipf_flows=4096, filler_rules=64,
    ),
    "rule_churn": Workload(
        name="rule_churn",
        why=("flowmods flap each bypass under 50 kpps live traffic: "
             "detector, hot-plug, virtio-serial, EMC invalidation and "
             "XFSM handover run beside the packet path"),
        highway=True, expected_bypasses=6, paced_pps=5e4,
        paced_rate=0.0, unpaced_rate=2.6e-3, paced_share=0.9,
        stateful="xfsm", flap_host_s=8.0,
    ),
}


# -- inputs -----------------------------------------------------------------


@dataclass
class Inputs:
    """Everything a run feeds the program, generated from the seed."""

    profile: TrafficProfile
    start_offsets: Tuple[float, float]     # forward, reverse source
    paced_s: float                         # simulated phase lengths
    unpaced_s: float
    flaps: Tuple[int, ...] = ()            # adjacency indexes, in order
    flap_phase: float = 0.0                # delay before the first flap


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    rng = random.Random("%s:%d" % (workload.name, seed))
    if workload.zipf_flows:
        base = skewed_profile(64, flows=workload.zipf_flows)
    else:
        base = uniform_profile(64, flows=4)
    templates = list(base.templates)
    rng.shuffle(templates)
    profile = TrafficProfile(name="%s seed %d" % (base.name, seed),
                             templates=tuple(templates))
    offsets = (rng.uniform(0.0, START_JITTER),
               rng.uniform(0.0, START_JITTER))
    unpaced_s = UNPACED_SHARE * seconds * workload.unpaced_rate
    if workload.flap_host_s:
        count = max(1, int(round(
            workload.paced_share * seconds / workload.flap_host_s)))
        order: List[int] = []
        while len(order) < count:
            order.extend(rng.sample(range(len(ADJACENCIES)),
                                    len(ADJACENCIES)))
        flap_phase = rng.uniform(0.005, 0.025)
        return Inputs(profile=profile, start_offsets=offsets,
                      paced_s=flap_phase + count * FLAP_SLOT,
                      unpaced_s=unpaced_s, flaps=tuple(order[:count]),
                      flap_phase=flap_phase)
    paced_s = workload.paced_share * seconds * workload.paced_rate
    return Inputs(profile=profile, start_offsets=offsets,
                  paced_s=paced_s, unpaced_s=unpaced_s)


# -- set-up -------------------------------------------------------------------


def build(workload: Workload, inputs: Inputs,
          timer: HostTimer) -> ChainExperiment:
    """Bring one chain up: VMs, rules, control-plane settle, timed."""
    experiment = ChainExperiment(
        num_vms=NUM_VMS, bypass=workload.highway, memory_only=True,
        profile=inputs.profile, extra_rules=workload.filler_rules,
        stateful=workload.stateful, source_rate_pps=workload.paced_pps,
    )
    timer.step(experiment.build)
    node = experiment.node
    env = experiment.env
    start = env.now
    settle = SETTLE_PER_LINK * len(ADJACENCIES)
    for step in range(1, SETTLE_STEPS + 1):
        until = start + settle * step / SETTLE_STEPS
        timer.step(lambda: node.settle_control_plane(
            extra_time=until - env.now))
    return experiment


def setup_fingerprint(experiment: ChainExperiment) -> Tuple:
    """Simulated outcome of a set-up; identical set-ups must agree."""
    node = experiment.node
    links = () if node.manager is None else tuple(
        (link.src_port_name, link.t_detected, link.t_active)
        for link in node.manager.history)
    return (experiment.env.now, node.active_bypasses, links,
            len(node.switch.bridge.table.entries()))


# -- measurement ------------------------------------------------------------


class Books:
    """Per-phase counter snapshot: the conservation ledger's inputs."""

    def __init__(self, experiment: ChainExperiment) -> None:
        node = experiment.node
        datapath = node.switch.datapath
        pmds = [pmd for handle in node.vms.values()
                for pmd in handle.pmds.values()]
        self.generated = sum(s.generated for s in experiment.sources)
        self.tx_refusals = sum(s.tx_failures for s in experiment.sources)
        self.delivered = sum(s.received for s in experiment.sinks.values())
        self.policy = (datapath.xfsm_drops + datapath.xfsm_unknown_drops
                       + sum(pmd.xfsm_drops for pmd in pmds))
        self.app_drops = sum(pair.drop_count for app in experiment.apps
                             for pair in app.pairs)
        self.switch_drops = (
            datapath.action_drops + datapath.unknown_port_drops
            + datapath.pipeline_drops
            + sum(datapath.rx_early_drops.values())
            + sum(port.tx_dropped for port in datapath.ports.values()))
        self.stall_rejects = sum(pmd.tx_stall_rejects for pmd in pmds)
        pmd_loops = node.switch.pmd_cycle_report().loops
        self.pmd_busy = sum(loop.busy_time for loop in pmd_loops)
        self.pmd_idle = sum(loop.idle_time for loop in pmd_loops)
        self.app_busy = sum(app.loop.busy_time for app in experiment.apps
                            if app.loop is not None)
        self.pmd_xfsm = sum(pmd.xfsm_evaluated for pmd in pmds)
        self.xfsm_cost = sum(pmd.xfsm_evaluated * pmd.xfsm_exec_cost
                             for pmd in pmds)

    def minus(self, before: "Books") -> Dict[str, float]:
        return {key: value - getattr(before, key)
                for key, value in vars(self).items()}


@dataclass
class Phase:
    name: str
    sim_s: float                  # window plus drain
    host_s: float
    books: Dict[str, float]
    latency: Optional[Tuple[float, float, int]] = None   # p50, p99, n
    # One timer and the packets delivered, per slice of the window in
    # which the sources were on.
    chunks: List[Tuple[HostTimer, int]] = field(default_factory=list)

    @property
    def offered(self) -> int:
        return int(self.books["generated"] + self.books["tx_refusals"])

    @property
    def delivered(self) -> int:
        return int(self.books["delivered"])

    @property
    def lost(self) -> int:
        return self.offered - self.delivered - int(self.books["policy"])

    @property
    def attributed(self) -> int:
        books = self.books
        return int(books["tx_refusals"] + books["app_drops"]
                   + books["switch_drops"])


class OrderCheck:
    """Wraps a sink PMD's ``rx_burst``: within each flow, the source's
    ``mbuf.seq`` must strictly increase at the sink (the ordered-handover
    claim).  Each sink hears one source.  Order is checked per flow, not
    per source, because the vswitch's flow batching reorders packets of
    different flows within a burst by design, as OVS output batching
    does; a flow is identified by its template packet object."""

    def __init__(self, pmd) -> None:
        self.last: Dict[int, int] = {}
        self.violations = 0
        inner = pmd.rx_burst
        last = self.last

        def rx_burst(max_count):
            mbufs = inner(max_count)
            for mbuf in mbufs:
                flow = id(mbuf.packet)
                if mbuf.seq <= last.get(flow, -1):
                    self.violations += 1
                last[flow] = mbuf.seq
            return mbufs

        pmd.rx_burst = rx_burst


class Run:
    """One measured pass of a workload over a set-up chain."""

    def __init__(self, workload: Workload, inputs: Inputs,
                 experiment: ChainExperiment) -> None:
        self.workload = workload
        self.inputs = inputs
        self.experiment = experiment
        self.env = experiment.env
        self.node = experiment.node
        self.phases: List[Phase] = []
        self.errors: List[str] = []
        self.flowmods = 0
        self.flaps_done = False
        self._chunks: List[Tuple[HostTimer, int]] = []
        self.order_checks = [OrderCheck(sink.port)
                             for sink in experiment.sinks.values()]
        env = self.env
        for app in experiment.apps:
            app.stages = StageAccounting()
            app.start(env)
        for sink in experiment.sinks.values():
            sink.start(env)

    # -- phases --------------------------------------------------------------

    def _start_sources(self, rate: Optional[float]) -> None:
        env = self.env
        origin = env.now
        pending = sorted(zip(self.inputs.start_offsets,
                             range(len(self.experiment.sources))))
        for offset, index in pending:
            env.run(until=origin + offset)
            source = self.experiment.sources[index]
            source.rate_pps = rate
            source.start(env)

    def _drain(self) -> None:
        for source in self.experiment.sources:
            source.stop()
        env = self.env
        waited = 0.0
        while waited < DRAIN_MAX and not self._quiescent():
            env.run(until=env.now + DRAIN_STEP)
            waited += DRAIN_STEP
        env.run(until=env.now + DRAIN_STEP)

    def _quiescent(self) -> bool:
        return all(source.pool.available == source.pool.size
                   for source in self.experiment.sources)

    def _phase(self, name: str, rate: Optional[float], body) -> Phase:
        sinks = list(self.experiment.sinks.values())
        for sink in sinks:
            sink.latency = LatencyRecorder()
        before = Books(self.experiment)
        self._chunks = []
        sim_start = self.env.now
        host_start = time.perf_counter()
        self._start_sources(rate)
        body()
        self._drain()
        host_s = time.perf_counter() - host_start
        phase = Phase(name, self.env.now - sim_start, host_s,
                      Books(self.experiment).minus(before),
                      latency=latency_quantiles(
                          [sink.latency for sink in sinks]),
                      chunks=self._chunks)
        if phase.lost != phase.attributed:
            self.errors.append(
                "%s: conservation open: offered %d = delivered %d + "
                "policy %d + lost %d, but attributed losses are %d"
                % (name, phase.offered, phase.delivered,
                   int(phase.books["policy"]), phase.lost,
                   phase.attributed))
        if not self._quiescent():
            self.errors.append("%s: source mempools not fully returned"
                               % name)
        self.phases.append(phase)
        return phase

    def run_for(self, duration: float):
        """The window: ``duration`` simulated seconds in timed slices."""
        env = self.env
        sinks = self.experiment.sinks.values()
        steps = CHUNKS * SLICE_STEPS

        def body():
            start = env.now
            for chunk in range(CHUNKS):
                delivered = sum(sink.received for sink in sinks)
                timer = HostTimer()
                for step in range(1, SLICE_STEPS + 1):
                    until = start + duration \
                        * (chunk * SLICE_STEPS + step) / steps
                    timer.step(lambda: env.run(until=until))
                self._chunks.append((timer, sum(
                    sink.received for sink in sinks) - delivered))

        return body

    def flapper(self):
        """Simulation process: one flap per :data:`FLAP_SLOT`, in the
        seeded order, after the seeded phase delay."""
        env = self.env
        yield env.timeout(self.inputs.flap_phase)
        for index in self.inputs.flaps:
            slot_end = env.now + FLAP_SLOT
            yield from self.flap(ADJACENCIES[index][0])
            if env.now > slot_end:
                self.errors.append("a flap overran its %.3f s slot"
                                   % FLAP_SLOT)
            yield env.timeout(max(0.0, slot_end - env.now))
        self.flaps_done = True

    def flap(self, src: str):
        """Install then delete a TCP/80 drop rule on ``src``: the bypass
        is torn down onto the switch path, then re-established."""
        node = self.node
        env = self.env
        match = Match(in_port=node.ofport(src), eth_type=ETH_TYPE_IPV4,
                      ip_proto=IP_PROTO_TCP, l4_dst=80)
        sender = node.vms[src.split(".")[0]].pmd(src)
        node.controller.install_flow(match, [], priority=FLAP_PRIORITY)
        self.flowmods += 1
        while (node.manager.link_for_src(node.ofport(src)) is not None
               or sender.tx_state is not TxState.NORMAL):
            yield env.timeout(FLAP_POLL)
        node.controller.delete_flow(match, strict=True,
                                    priority=FLAP_PRIORITY)
        self.flowmods += 1
        while node.active_bypasses != self.workload.expected_bypasses:
            yield env.timeout(FLAP_POLL)

    def measure(self) -> None:
        workload = self.workload
        if self.inputs.flaps:
            self.env.process(self.flapper(), name="perfbench.flapper")
        self._phase("paced", workload.paced_pps,
                    self.run_for(self.inputs.paced_s))
        if self.inputs.flaps and not self.flaps_done:
            self.errors.append("flaps did not finish in the paced window")
        self._phase("unpaced", None, self.run_for(self.inputs.unpaced_s))
        _p50, _p99, samples = self.paced.latency
        if samples * (1.0 - 0.99) < 10:
            self.errors.append("only %d latency samples: p99 needs 10 "
                               "beyond it" % samples)
        violations = sum(check.violations for check in self.order_checks)
        if violations:
            self.errors.append("%d packets reordered at a sink"
                               % violations)

    # -- results -------------------------------------------------------------

    @property
    def paced(self) -> Phase:
        return self.phases[0]

    @property
    def unpaced(self) -> Phase:
        return self.phases[1]

    def sim_metrics(self) -> Dict[str, float]:
        paced = self.paced
        books = paced.books
        busy = books["pmd_busy"] + books["app_busy"] + books["xfsm_cost"]
        p50, p99, _samples = paced.latency
        return {
            "sim_capacity_mpps": sum(
                count for _timer, count in self.unpaced.chunks)
            / self.inputs.unpaced_s / 1e6,
            "sim_lat_p50_us": p50 * 1e6,
            "sim_lat_p99_us": p99 * 1e6,
            "sim_cycles_per_pkt": seconds_to_cycles(busy)
            / max(1, paced.delivered),
        }

    def host_kpps(self) -> float:
        """Packets delivered in the paced window's slices over their
        normalized host time, taken as the slice count times the median
        slice time: the slices carry about equal simulated work, so the
        median discards bursts of interference (README.md, "Host
        noise")."""
        chunks = self.paced.chunks
        delivered = sum(count for _timer, count in chunks)
        host_s = len(chunks) * statistics.median(
            [timer.normalized_s for timer, _count in chunks])
        return delivered / host_s / 1e3

    def establishments(self) -> List[float]:
        manager = self.node.manager
        if manager is None:
            return []
        return [link.setup_time for link in manager.history
                if link.t_active > 0.0]

    def teardowns(self) -> int:
        manager = self.node.manager
        if manager is None:
            return 0
        return sum(1 for link in manager.history
                   if link.state is LinkState.REMOVED)

    def exact_counts(self) -> Dict[str, int]:
        """Public counters that must repeat exactly for one seed."""
        node = self.node
        datapath = node.switch.datapath
        counts = {}
        for phase in self.phases:
            for key in ("generated", "tx_refusals", "delivered", "policy",
                        "app_drops", "switch_drops", "stall_rejects",
                        "pmd_xfsm"):
                counts["%s.%s" % (phase.name, key)] = int(phase.books[key])
        counts.update({
            "flowmods": self.flowmods,
            "establishments": len(self.establishments()),
            "teardowns": self.teardowns(),
            "datapath_packets": datapath.packets_processed,
            "emc_hits": datapath.emc_hits,
            "megaflow_hits": datapath.megaflow_hits,
            "xfsm_datapath": datapath.xfsm_evaluated,
            "virtio_serial_msgs": sum(
                len(handle.vm.serial.to_guest_log)
                + len(handle.vm.serial.to_host_log)
                for handle in node.vms.values()),
        })
        return counts


def latency_quantiles(recorders) -> Tuple[float, float, int]:
    """p50 and p99 over the union of the sinks' reservoirs.

    Each sink keeps a 4096-sample reservoir; merging them into an
    8192-slot recorder keeps every sample, so p99 has 81 samples
    beyond it when both reservoirs are full.
    """
    merged = LatencyRecorder(reservoir_size=sum(
        recorder.reservoir_size for recorder in recorders))
    samples = 0
    for recorder in recorders:
        merged.merge(recorder)
        samples += min(recorder.count, recorder.reservoir_size)
    return merged.percentile(0.50), merged.percentile(0.99), samples
