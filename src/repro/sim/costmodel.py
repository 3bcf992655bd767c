"""Calibrated per-operation costs (the testbed stand-in).

All values are in seconds unless suffixed otherwise.  They are chosen to
sit in the ranges published for OVS-DPDK on Ivy Bridge-era Xeons (the
paper used an E5-2690 v2 @ 3 GHz with Intel 82599ES 10 G NICs) and are
the *only* knobs the performance experiments depend on; see DESIGN.md §6
for the rationale behind each number.
"""

from dataclasses import dataclass, replace

NS = 1e-9
US = 1e-6
MS = 1e-3


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs consumed by poll loops and control flows."""

    # --- vSwitch datapath, per packet -----------------------------------
    # Datapath lookup + action execution on the OVS PMD core.  Lookup
    # costs are charged once per *flow batch* (every packet of the
    # batch shares the resolution).
    ovs_emc_hit: float = 70 * NS
    ovs_smc_hit: float = 110 * NS     # signature hit + subtable verify
    ovs_megaflow_hit: float = 160 * NS  # masked probe, no revalidation
    ovs_classifier_hit: float = 250 * NS
    ovs_miss_upcall: float = 50 * US
    # Action execution.  Applying the actions to a packet (header
    # writes, moving the mbuf to its output batch) is inherently
    # per-packet; what flow batching amortizes is the action-*list*
    # construction and dispatch, done once per flow batch.
    # XFSM evaluation in the stateful fast-path tier: one bounded hash
    # lookup plus a guard walk — deliberately in the EMC-hit cost class
    # (the whole point of executing stateful logic in the datapath
    # instead of a classifier walk + VM hop).  Charged per packet, not
    # per batch: packets of one flow batch share a flow key but not
    # their TCP flags, so each drives its own transition.
    ovs_xfsm_exec: float = 65 * NS
    ovs_action_per_packet: float = 45 * NS   # per packet
    ovs_batch_action: float = 40 * NS        # per flow batch
    # Bounded upcall path: the fast-path side of a miss is an enqueue
    # (or an accounted shed) instead of the full 50 us slow path, which
    # is charged per dispatched upcall at the end of the iteration.
    upcall_enqueue: float = 300 * NS
    upcall_shed: float = 120 * NS

    # --- rings / memory, per packet ---------------------------------------
    ring_op: float = 18 * NS          # enqueue or dequeue, burst-amortized
    vm_forward: float = 45 * NS       # guest app: rx + touch + tx
    bypass_stats_update: float = 4 * NS  # shared-memory counter bump

    # --- per poll-iteration fixed overhead --------------------------------
    burst_overhead: float = 120 * NS
    idle_poll: float = 250 * NS       # cost of polling an empty ring

    # --- NIC / PCIe ----------------------------------------------------------
    nic_pmd_rx: float = 30 * NS       # host per-packet cost to rx from NIC
    nic_pmd_tx: float = 30 * NS

    # --- control plane ------------------------------------------------------
    flowmod_processing: float = 120 * US
    detector_analysis: float = 40 * US
    agent_rpc: float = 8 * MS         # OVS -> compute agent request
    ivshmem_hotplug: float = 55 * MS  # QEMU device_add + guest PCI scan
    virtio_serial_rtt: float = 18 * MS  # PMD reconfiguration round trip
    qemu_monitor_cmd: float = 2 * MS
    stats_shared_read: float = 5 * US

    def scaled(self, factor: float) -> "CostModel":
        """A model with every data-path cost multiplied by ``factor``.

        Used by sensitivity ablations to check that who-wins conclusions
        do not hinge on the absolute calibration.
        """
        return replace(
            self,
            ovs_emc_hit=self.ovs_emc_hit * factor,
            ovs_smc_hit=self.ovs_smc_hit * factor,
            ovs_megaflow_hit=self.ovs_megaflow_hit * factor,
            ovs_classifier_hit=self.ovs_classifier_hit * factor,
            ovs_xfsm_exec=self.ovs_xfsm_exec * factor,
            ovs_action_per_packet=self.ovs_action_per_packet * factor,
            ovs_batch_action=self.ovs_batch_action * factor,
            upcall_enqueue=self.upcall_enqueue * factor,
            upcall_shed=self.upcall_shed * factor,
            ring_op=self.ring_op * factor,
            vm_forward=self.vm_forward * factor,
            bypass_stats_update=self.bypass_stats_update * factor,
            burst_overhead=self.burst_overhead * factor,
            idle_poll=self.idle_poll * factor,
            nic_pmd_rx=self.nic_pmd_rx * factor,
            nic_pmd_tx=self.nic_pmd_tx * factor,
        )


DEFAULT_COST_MODEL = CostModel()
