"""NfvNode: a fully-wired single host.

Bundles everything the paper's Figure 1(b) shows on one server: the
vSwitch (with the p-2-p detector and bypass manager installed), the
OpenFlow controller connection, the hypervisor, and the compute agent.
VM creation goes through the node so the agent's port-ownership map and
the guest PMD managers stay consistent.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.bypass import (
    BypassManager, DEFAULT_RETRY_POLICY, RetryPolicy,
)
from repro.core.watchdog import DEFAULT_WATCHDOG_POLICY, WatchdogPolicy
from repro.core.pmd import DualChannelPmd, GuestPmdManager
from repro.core.transparency import enable_transparent_highway
from repro.dpdk.dpdkr import dpdkr_zone_name
from repro.hypervisor.compute_agent import ComputeAgent
from repro.hypervisor.qemu import Hypervisor, VirtualMachine
from repro.mem.memzone import MemzoneRegistry
from repro.obs.plane import Observability
from repro.sched.autolb import AutoLbPolicy, DEFAULT_AUTO_LB_POLICY
from repro.openflow.controller import ControllerConnection, SimpleController
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import Environment
from repro.sim.nic import Nic
from repro.vswitch.ports import DpdkrOvsPort, PhyOvsPort
from repro.vswitch.vswitchd import VSwitchd

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultPlan


@dataclass
class VmHandle:
    """Everything a test/experiment needs about one deployed VM."""

    vm: VirtualMachine
    guest: GuestPmdManager
    pmds: Dict[str, DualChannelPmd] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.vm.name

    def pmd(self, port_name: str) -> DualChannelPmd:
        return self.pmds[port_name]


class NfvNode:
    """One server: vSwitch + hypervisor + agent + transparent highway."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        costs: CostModel = DEFAULT_COST_MODEL,
        n_pmd_cores: int = 2,
        highway_enabled: bool = True,
        ring_size: int = 1024,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        faults: Optional["FaultPlan"] = None,
        watchdog_policy: WatchdogPolicy = DEFAULT_WATCHDOG_POLICY,
        obs: Optional[Observability] = None,
        trace_sample_interval: Optional[int] = None,
        rxq_assign: str = "roundrobin",
        auto_lb: bool = False,
        auto_lb_policy: Optional["AutoLbPolicy"] = None,
        upcall_policy=None,
        fail_mode: str = "standalone",
        failmode_policy=None,
        overload: bool = False,
        overload_policy=None,
    ) -> None:
        self.env = env
        self.costs = costs
        self.faults = faults
        self.registry = MemzoneRegistry(faults=faults)
        clock = (lambda: env.now) if env is not None else None
        self.obs = obs if obs is not None else Observability(
            clock=clock, trace_sample_interval=trace_sample_interval,
        )
        self.connection = ControllerConnection(faults=faults)
        self.switch = VSwitchd(
            env=env,
            registry=self.registry,
            connection=self.connection,
            costs=costs,
            n_pmd_cores=n_pmd_cores,
            rxq_assign=rxq_assign,
            auto_lb=auto_lb,
            auto_lb_policy=(auto_lb_policy if auto_lb_policy is not None
                            else DEFAULT_AUTO_LB_POLICY),
            upcall_policy=upcall_policy,
            fail_mode=fail_mode,
            failmode_policy=failmode_policy,
            overload=overload,
            overload_policy=overload_policy,
        )
        if self.switch.failmode is not None:
            self.switch.failmode.faults = faults
        self.controller = SimpleController(self.connection)
        self.hypervisor = Hypervisor(self.registry, env=env, costs=costs,
                                     faults=faults)
        self.agent = ComputeAgent(self.hypervisor, env=env, costs=costs,
                                  faults=faults)
        self.manager: Optional[BypassManager] = None
        self.highway_enabled = highway_enabled
        if highway_enabled:
            self.manager = enable_transparent_highway(
                self.switch, self.agent, env=env, ring_size=ring_size,
                retry_policy=retry_policy, faults=faults,
                watchdog_policy=watchdog_policy,
            )
        self.vms: Dict[str, VmHandle] = {}
        self.ports: Dict[str, object] = {}  # name -> OvsPort
        self.nics: Dict[str, Nic] = {}
        # Ownership-tracked mempools feeding this node's traffic; the
        # bypass manager sweeps dead holders out of these on a crash.
        self.mempools: List = []
        self.obs.register_vswitchd(self.switch)
        if self.manager is not None:
            self.obs.register_manager(self.manager)

    def track_mempool(self, pool) -> None:
        """Register a pool for crash-time ledger reclamation + obs."""
        if pool in self.mempools:
            return
        self.mempools.append(pool)
        if self.manager is not None:
            self.manager.mempools = self.mempools
        self.obs.register_mempool(pool)

    # -- ports -----------------------------------------------------------------

    def add_dpdkr_port(self, port_name: str,
                       ring_size: int = 1024) -> DpdkrOvsPort:
        port = self.switch.add_dpdkr_port(port_name, ring_size=ring_size)
        self.ports[port_name] = port
        self.obs.register_dpdkr_port(port.rings)
        return port

    def add_nic(self, nic_name: str, ring_size: int = 4096) -> PhyOvsPort:
        """Attach a 10 G NIC as a phy port (requires an environment)."""
        if self.env is None:
            raise RuntimeError("NICs need a simulation environment")
        nic = Nic(self.env, nic_name, ring_size=ring_size)
        self.nics[nic_name] = nic
        port = self.switch.add_phy_port(nic_name, nic)
        self.ports[nic_name] = port
        return port

    def ofport(self, port_name: str) -> int:
        return self.ports[port_name].ofport

    # -- VMs --------------------------------------------------------------------------

    def create_vm(self, vm_name: str, port_names: List[str],
                  ring_size: int = 1024) -> VmHandle:
        """Create dpdkr ports (if needed), boot a VM plugged into them,
        and attach a dual-channel PMD to each port."""
        for port_name in port_names:
            if port_name not in self.ports:
                self.add_dpdkr_port(port_name, ring_size=ring_size)
        vm = self.hypervisor.create_vm(
            vm_name,
            boot_zones=[dpdkr_zone_name(p) for p in port_names],
        )
        guest = GuestPmdManager(vm)
        handle = VmHandle(vm=vm, guest=guest)
        for port_name in port_names:
            self.agent.register_port_owner(port_name, vm_name)
            pmd = guest.create_pmd(port_name)
            handle.pmds[port_name] = pmd
            self.obs.register_guest_pmd(pmd, vm_name, port_name)
        self.vms[vm_name] = handle
        return handle

    # -- fault injection ----------------------------------------------------------------

    def install_fault_plan(self, plan: Optional["FaultPlan"]) -> None:
        """Arm (or disarm, with ``None``) a fault plan on every wired
        component — including serial channels of VMs that already exist.

        Useful when the topology should come up cleanly and faults only
        start firing for a later phase of a scenario.
        """
        self.faults = plan
        self.registry.faults = plan
        self.hypervisor.faults = plan
        self.agent.faults = plan
        self.connection.faults = plan
        if self.switch.failmode is not None:
            self.switch.failmode.faults = plan
        if self.manager is not None:
            self.manager.faults = plan
            for bypass_link in self.manager.active_links.values():
                if bypass_link.ring is not None:
                    bypass_link.ring.faults = plan
        for handle in self.vms.values():
            handle.vm.serial.faults = plan
            handle.guest.install_faults(plan)

    # -- convenience --------------------------------------------------------------------

    def install_p2p_rule(self, src_port_name: str, dst_port_name: str,
                         priority: int = 0x8000) -> None:
        from repro.openflow.actions import OutputAction
        from repro.openflow.match import Match

        self.controller.install_flow(
            Match(in_port=self.ofport(src_port_name)),
            [OutputAction(self.ofport(dst_port_name))],
            priority=priority,
        )

    def register_xfsm(self, program) -> None:
        """Register an XFSM program with the datapath and re-run link
        detection: rules already delegating to this program may now
        qualify for a (stateful) bypass."""
        self.switch.datapath.register_xfsm(program)
        if self.manager is not None:
            self.manager.detector.refresh_all()

    def install_xfsm_rule(self, src_port_name: str, dst_port_name: str,
                          program: str, from_inside: bool = True,
                          priority: int = 0x8000) -> None:
        """Steer ``src -> dst`` through a registered XFSM program."""
        from repro.openflow.actions import OutputAction, XfsmAction
        from repro.openflow.match import Match

        self.controller.install_flow(
            Match(in_port=self.ofport(src_port_name)),
            [XfsmAction(program, from_inside=from_inside),
             OutputAction(self.ofport(dst_port_name))],
            priority=priority,
        )

    def settle_control_plane(self, extra_time: float = 0.25) -> None:
        """Let flowmods land and bypasses establish.

        Sync mode pumps once; simulation mode advances time far enough
        for detection + two hot-plugs + PMD reconfiguration (~0.1 s per
        link, serialized through the single agent worker).
        """
        if self.env is None:
            self.switch.step_control()
            return
        if not self.switch._running:
            self.switch.start()
        self.env.run(until=self.env.now + extra_time)

    @property
    def active_bypasses(self) -> int:
        """Bypass links whose sender PMD is actually on the bypass."""
        if self.manager is None:
            return 0
        from repro.core.bypass import LinkState

        return sum(
            1 for link in self.manager.active_links.values()
            if link.state == LinkState.ACTIVE
        )

    def __repr__(self) -> str:
        return "<NfvNode vms=%d ports=%d highway=%s>" % (
            len(self.vms), len(self.ports), self.highway_enabled
        )
