"""Qlen-driven RX load shedding that cooperates with the load balancer.

When the bounded upcall queue is filling *and* a PMD core is saturated,
the cheapest place to drop is the earliest: at RX, before the packet
costs a single classifier cycle.  The :class:`OverloadMonitor` runs as a
periodic housekeeping loop (same mechanism as the PMD auto load
balancer) and maintains per-port shed levels on the datapath
(``Datapath.rx_shed``), raising them on ports that generate upcall
pressure and decaying them once the signal clears.

Cooperation with :class:`repro.sched.autolb.AutoLoadBalancer` runs in
both directions:

* after the balancer applies a rebalance, the monitor holds off raising
  shed levels for a grace period — maybe moving the rxq fixed it;
* while shedding is active the measured busy fraction under-reports the
  true offered load, so the balancer's "no core is overloaded" skip is
  overridden (``overload_overrides``) and it keeps evaluating plans.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple


@dataclass
class OverloadPolicy:
    """When and how hard to shed at RX."""

    check_interval: float = 0.001
    busy_threshold: float = 0.95
    queue_threshold: float = 0.5
    shed_step: float = 0.25
    recover_step: float = 0.1
    max_shed: float = 0.9
    lb_grace_checks: int = 2

    def __post_init__(self) -> None:
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")
        if not 0 < self.max_shed < 1:
            raise ValueError("max_shed must be in (0, 1)")
        if self.shed_step <= 0 or self.recover_step <= 0:
            raise ValueError("shed/recover steps must be positive")


DEFAULT_OVERLOAD_POLICY = OverloadPolicy()


class OverloadMonitor:
    """Periodic overload check driving per-port RX shed levels.

    The overload signal is the AND of two observations: the upcall queue
    is at least ``queue_threshold`` full, and some PMD core's busy
    fraction (over the window since the last check) is at or above
    ``busy_threshold``.  In synchronous (env-less) operation there are
    no running poll loops, so the busy list is empty and the queue
    signal alone decides.
    """

    def __init__(self, switch, policy: Optional[OverloadPolicy] = None):
        self.switch = switch
        self.policy = policy if policy is not None else OverloadPolicy()
        self.loop = None
        self.checks_run = 0
        self.overloaded_checks = 0
        self.shed_increases = 0
        self.shed_decreases = 0
        self.deferred_to_rebalance = 0
        self.coverage: Optional[Callable[..., None]] = None
        self.on_event: List[Callable[[str, dict], None]] = []
        self._grace = 0
        # Private busy/pressure windows: the monitor keeps its own marks
        # so it does not race the auto-lb's sample_core_busy() windows.
        self._busy_marks: Dict[str, Tuple[float, float]] = {}
        self._port_marks: Dict[int, int] = {}
        scheduler = getattr(switch, "scheduler", None)
        if scheduler is not None:
            scheduler.on_apply.append(self._on_rebalance)

    # -- signals -------------------------------------------------------

    def _on_rebalance(self, plan) -> None:
        self._grace = self.policy.lb_grace_checks

    @property
    def shedding_active(self) -> bool:
        return bool(self.switch.datapath.rx_shed)

    def _busy_fractions(self) -> List[float]:
        fractions = []
        for loop in getattr(self.switch, "_pmd_loops", []):
            busy0, idle0 = self._busy_marks.get(loop.name, (0.0, 0.0))
            busy = loop.busy_time - busy0
            idle = loop.idle_time - idle0
            self._busy_marks[loop.name] = (loop.busy_time, loop.idle_time)
            total = busy + idle
            fractions.append(busy / total if total > 0 else 0.0)
        return fractions

    def _pressured_ports(self, queue) -> Set[int]:
        """Ports whose upcall activity (admitted + shed) advanced since
        the last check — those are the ones worth shedding."""
        combined: Dict[int, int] = {}
        for counts in (queue.port_admitted, queue.port_shed):
            for ofport, value in counts.items():
                combined[ofport] = combined.get(ofport, 0) + value
        pressured: Set[int] = set()
        for ofport, value in combined.items():
            if value > self._port_marks.get(ofport, 0):
                pressured.add(ofport)
            self._port_marks[ofport] = value
        return pressured

    def _emit(self, name: str, **attrs) -> None:
        for listener in self.on_event:
            listener(name, attrs)

    def _cover(self, name: str) -> None:
        if self.coverage is not None:
            self.coverage(name)

    # -- the periodic check --------------------------------------------

    def iteration(self) -> float:
        self.checks_run += 1
        datapath = self.switch.datapath
        queue = datapath.upcall_queue
        busy = self._busy_fractions()
        fill = queue.depth / max(1, queue.policy.max_queue)
        hot = fill >= self.policy.queue_threshold and (
            not busy
            or any(b >= self.policy.busy_threshold for b in busy))
        if hot and self._grace > 0:
            # A rebalance just landed; give it a chance to relieve the
            # hot core before resorting to drops.  The per-port marks
            # are left untouched so the pressure signal survives the
            # grace window.
            self._grace -= 1
            self.deferred_to_rebalance += 1
            self._cover("overload_deferred_to_rebalance")
            return 0.0
        pressured = self._pressured_ports(queue)
        if hot and pressured:
            self.overloaded_checks += 1
            for ofport in sorted(pressured):
                level = min(
                    self.policy.max_shed,
                    datapath.rx_shed.get(ofport, 0.0)
                    + self.policy.shed_step,
                )
                datapath.rx_shed[ofport] = level
                self.shed_increases += 1
                self._cover("overload_shed_raised")
                self._emit("overload-shed", port=ofport,
                           level=round(level, 3))
        else:
            for ofport in sorted(datapath.rx_shed):
                level = datapath.rx_shed[ofport] - self.policy.recover_step
                self.shed_decreases += 1
                self._cover("overload_shed_lowered")
                if level <= 1e-9:
                    del datapath.rx_shed[ofport]
                    self._emit("overload-recovered", port=ofport)
                else:
                    datapath.rx_shed[ofport] = level
        return 0.0

    # -- lifecycle -----------------------------------------------------

    def start(self, env) -> None:
        from repro.sim.pollloop import PollLoop

        if self.loop is not None:
            return
        self.loop = PollLoop(
            env,
            name="%s-overload" % getattr(self.switch, "name", "ovs"),
            iteration=self.iteration,
            period=self.policy.check_interval,
        )
        self.loop.start()

    def stop(self) -> None:
        if self.loop is not None:
            self.loop.stop()
            self.loop = None

    def stats(self) -> Dict[str, float]:
        return {
            "checks_run": self.checks_run,
            "overloaded_checks": self.overloaded_checks,
            "shed_increases": self.shed_increases,
            "shed_decreases": self.shed_decreases,
            "deferred_to_rebalance": self.deferred_to_rebalance,
            "active_ports": len(self.switch.datapath.rx_shed),
        }
