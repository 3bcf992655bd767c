"""Spans around each layer's entry points, installed from outside.

The benchmark does not instrument the program: :class:`Tracer` replaces
selected class methods (and the OpenFlow wire codec functions) with
wrappers for the duration of a traced pass and restores them afterwards.
Each call becomes a span (name, start, end, parent).  Spans nest
synchronously - the simulator is single-threaded and no wrapped entry
point is a generator - so a layer's self time is its spans' duration
minus the part their child spans cover, computed with one stack.

Spans are kept in memory (the first :data:`SPAN_LIMIT`; later ones are
only aggregated) and written out as JSON lines when the run ends.
"""

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.base import DpdkApp
from repro.core.bypass import BypassManager
from repro.core.detector import P2PLinkDetector
from repro.core.pmd import DualChannelPmd, GuestPmdManager
from repro.core.watchdog import BypassWatchdog
from repro.dpdk.virtio_serial import VirtioSerial
from repro.hypervisor.compute_agent import ComputeAgent
from repro.hypervisor.qemu import Hypervisor
from repro.mem.mempool import Mempool
from repro.mem.ring import Ring
from repro.obs.cycles import StageAccounting
from repro.openflow import wire
from repro.openflow.controller import SimpleController
from repro.openflow.table import FlowTable
from repro.sim.engine import Environment
from repro.state.table import StateTable
from repro.state.xfsm import Xfsm
from repro.traffic.generator import SourceApp
from repro.traffic.sink import SinkApp
from repro.vswitch.bridge import Bridge
from repro.vswitch.classifier import TupleSpaceClassifier
from repro.vswitch.datapath import Datapath
from repro.vswitch.emc import ExactMatchCache
from repro.vswitch.megaflow import MegaflowCache
from repro.vswitch.smc import SignatureMatchCache

#: Spans kept for the trace file; every span is aggregated regardless.
SPAN_LIMIT = 100_000


def _ring_enqueue(stats, args, result):
    stats["ring_objs"] += result
    stats["ring_refusals"] += len(args[1]) - result


def _ring_dequeue(stats, args, result):
    stats["ring_objs"] += len(result)


def _datapath_poll(stats, args, result):
    if not result:
        stats["idle_iterations"] += 1


#: (span name, owner, attribute, observer).  The layer is the span
#: name's first component; an observer sees (stats, args, result).
ENTRY_POINTS: Tuple[Tuple[str, object, str, Optional[Callable]], ...] = (
    ("sim.step", Environment, "step", None),
    ("mem.ring_enqueue", Ring, "enqueue_burst", _ring_enqueue),
    ("mem.ring_dequeue", Ring, "dequeue_burst", _ring_dequeue),
    ("mem.mempool_get", Mempool, "get_bulk", None),
    ("mem.mempool_put", Mempool, "put", None),
    ("core.pmd_rx", DualChannelPmd, "rx_burst", None),
    ("core.pmd_tx", DualChannelPmd, "tx_burst", None),
    ("core.pmd_command", GuestPmdManager, "handle_command", None),
    ("core.detector", P2PLinkDetector, "analyze_port", None),
    ("core.bypass_admit", BypassManager, "_on_p2p_created", None),
    ("core.bypass_revoke", BypassManager, "_on_p2p_removed", None),
    ("core.bypass_provision", BypassManager, "_provision", None),
    ("core.bypass_active", BypassManager, "_mark_active", None),
    ("core.bypass_finish", BypassManager, "_finish_teardown", None),
    ("core.watchdog", BypassWatchdog, "check_once", None),
    ("hypervisor.plug", Hypervisor, "plug_ivshmem", None),
    ("hypervisor.unplug", Hypervisor, "unplug_ivshmem", None),
    ("hypervisor.agent_setup", ComputeAgent, "setup_bypass", None),
    ("hypervisor.agent_teardown", ComputeAgent, "teardown_bypass", None),
    ("dpdk.serial_host_send", VirtioSerial, "host_send", None),
    ("dpdk.serial_guest_send", VirtioSerial, "guest_send", None),
    ("vswitch.datapath", Datapath, "process_ports", _datapath_poll),
    ("vswitch.emc", ExactMatchCache, "lookup", None),
    ("vswitch.smc", SignatureMatchCache, "probe", None),
    ("vswitch.megaflow", MegaflowCache, "lookup", None),
    ("vswitch.dpcls", TupleSpaceClassifier, "lookup", None),
    ("vswitch.dpcls_hinted", TupleSpaceClassifier, "lookup_hinted", None),
    ("openflow.install", SimpleController, "install_flow", None),
    ("openflow.delete", SimpleController, "delete_flow", None),
    ("openflow.wire_encode", wire, "encode", None),
    ("openflow.wire_decode", wire, "decode", None),
    ("openflow.bridge", Bridge, "handle_message", None),
    ("openflow.table_add", FlowTable, "add", None),
    ("openflow.table_delete", FlowTable, "delete", None),
    ("state.xfsm", Xfsm, "evaluate", None),
    ("state.table_lookup", StateTable, "lookup", None),
    ("state.table_update", StateTable, "update", None),
    ("traffic.source", SourceApp, "iteration", None),
    ("traffic.sink", SinkApp, "iteration", None),
    ("apps.forwarder", DpdkApp, "iteration", None),
    ("obs.accounting", StageAccounting, "add", None),
)

LAYERS = ("sim", "mem", "core", "vswitch", "openflow", "hypervisor",
          "dpdk", "state", "traffic", "apps", "obs")


class Tracer:
    """Installs the span wrappers and aggregates counts and self time."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.stats: Dict[str, int] = {
            "ring_objs": 0, "ring_refusals": 0, "idle_iterations": 0}
        self.spans: List[Tuple[int, float, float, int, float]] = []
        self.spans_dropped = 0
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object, bool]] = []

    def install(self) -> "Tracer":
        for name, owner, attribute, observer in ENTRY_POINTS:
            self._wrap(name, owner, attribute, observer)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original, owned = self._undo.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def _wrap(self, name, owner, attribute, observer) -> None:
        owned = attribute in vars(owner)
        original = getattr(owner, attribute)
        span_id = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        stats = self.stats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self_s[span_id] += duration - frame[2]
                calls[span_id] += 1
                parent = -1
                parent_start = 0.0
                if stack:
                    stack[-1][2] += duration
                    parent, parent_start = stack[-1][0], stack[-1][1]
                if len(spans) < SPAN_LIMIT:
                    spans.append((span_id, frame[1], end, parent,
                                  parent_start))
                else:
                    self.spans_dropped += 1
            if observer is not None:
                observer(stats, args, result)
            return result

        setattr(owner, attribute, wrapper)
        self._undo.append((owner, attribute, original, owned))

    # -- aggregates ----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Counts and self times so far (for per-phase deltas)."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "stats": dict(self.stats),
        }

    @staticmethod
    def delta(after, before) -> Dict[str, Dict[str, float]]:
        return {
            part: {key: value - before[part].get(key, 0)
                   for key, value in after[part].items()}
            for part in ("calls", "self_s", "stats")
        }

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines.  A span's parent is named
        by its (name, start) pair, which identifies it uniquely."""
        names = self.names
        with open(path, "w") as out:
            for span_id, start, end, parent, parent_start in self.spans:
                out.write(json.dumps({
                    "name": names[span_id], "start": start, "end": end,
                    "parent": ({"name": names[parent],
                                "start": parent_start}
                               if parent >= 0 else None),
                }) + "\n")


def layer_self_s(delta) -> Dict[str, float]:
    """Self seconds per layer (span-name prefix)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, seconds in delta["self_s"].items():
        totals[name.split(".")[0]] += seconds
    return totals


def span_sum(delta, part: str, *names: str) -> float:
    return sum(delta[part].get(name, 0) for name in names)
