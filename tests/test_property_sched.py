"""Property tests: every assignment policy partitions ports exactly.

Whatever the measured loads, pins, isolation and core count, a policy's
``assign`` must place each port on exactly one in-range core — no port
lost, none duplicated — and ``apply_plan`` must leave the scheduler's
core lists forming the same exact partition.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import PmdScheduler
from repro.sched.policy import POLICIES


class FakePort:
    def __init__(self, ofport):
        self.ofport = ofport
        self.name = "p%d" % ofport


scenarios = st.fixed_dictionaries({
    "policy": st.sampled_from(sorted(POLICIES)),
    "n_cores": st.integers(1, 6),
    "ofports": st.lists(st.integers(1, 40), unique=True, max_size=16),
    # (ofport, core, seconds) load samples; out-of-range entries are
    # simply ignored by the policies.
    "loads": st.lists(
        st.tuples(st.integers(1, 40), st.integers(0, 5),
                  st.floats(1e-9, 1e-3)),
        max_size=24,
    ),
    "pins": st.lists(st.tuples(st.integers(1, 40), st.integers(0, 5)),
                     max_size=6),
    "isolated": st.lists(st.integers(0, 5), max_size=6),
})


def _build(scenario):
    scheduler = PmdScheduler(scenario["n_cores"],
                             policy=scenario["policy"])
    ports = [FakePort(ofport) for ofport in scenario["ofports"]]
    for port in ports:
        scheduler.add_port(port)
    for ofport, core, seconds in scenario["loads"]:
        if core < scheduler.n_cores:
            scheduler.tracker.record(ofport, core, seconds)
    scheduler.tracker.roll()
    for ofport, core in scenario["pins"]:
        if core < scheduler.n_cores:
            scheduler.pin(ofport, core)
    for core in scenario["isolated"]:
        if core < scheduler.n_cores:
            scheduler.isolate(core)
    return scheduler, ports


def _assert_exact_partition(scheduler, ports):
    placed = [port.ofport
              for core_ports in scheduler.core_ports
              for port in core_ports]
    assert sorted(placed) == sorted(port.ofport for port in ports)


@settings(max_examples=150, deadline=None)
@given(scenarios)
def test_assign_is_an_exact_partition(scenario):
    scheduler, ports = _build(scenario)
    assignment = scheduler.policy.assign(ports, scheduler)
    assert sorted(assignment) == sorted(p.ofport for p in ports)
    for core in assignment.values():
        assert 0 <= core < scheduler.n_cores


@settings(max_examples=150, deadline=None)
@given(scenarios)
def test_placement_and_rebalance_keep_the_partition_exact(scenario):
    scheduler, ports = _build(scenario)
    _assert_exact_partition(scheduler, ports)   # after placement
    plan = scheduler.plan_rebalance()
    _assert_exact_partition(scheduler, ports)   # dry run mutates nothing
    scheduler.apply_plan(plan)
    _assert_exact_partition(scheduler, ports)   # after the moves
    # The applied layout matches the plan for every surviving port.
    current = scheduler.current_assignment()
    assert current == plan.assignment


@settings(max_examples=100, deadline=None)
@given(scenarios)
def test_pinned_ports_land_on_their_core_under_group(scenario):
    scenario = dict(scenario, policy="group")
    scheduler, ports = _build(scenario)
    scheduler.rebalance()
    # pin() overrides: a port pinned twice ends up on its last pin.
    effective = {ofport: core for ofport, core in scenario["pins"]
                 if core < scheduler.n_cores}
    for ofport, core in effective.items():
        if scheduler.core_of(ofport) is not None:
            assert scheduler.core_of(ofport) == core
