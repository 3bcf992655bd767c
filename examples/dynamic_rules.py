#!/usr/bin/env python3
"""Dynamicity: bypasses come and go with the OpenFlow rules, mid-traffic.

A two-VM setup with continuous traffic while the controller:

1. installs a p-2-p rule           -> bypass established (~100 ms),
2. installs a higher-priority rule
   diverting web traffic elsewhere -> bypass torn down on the fly,
3. deletes the diverting rule      -> bypass re-established.

Nothing is lost inside the switch across either transition, but the
sender is refused during each teardown's stall: its TX is held
(``TxState.STALLED``, ring-full backpressure) while the bypass ring's
leftovers are re-homed onto the switch path, and packets offered in
that window never leave the VM.  The script prints the timeline and the
conservation check, with those refusals as their own term.

Run:  python examples/dynamic_rules.py
"""

from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.orchestration import NfvNode
from repro.packet.headers import ETH_TYPE_IPV4, IP_PROTO_TCP
from repro.sim.engine import Environment
from repro.traffic import SinkApp, SourceApp


def main():
    env = Environment()
    node = NfvNode(env=env)
    node.create_vm("vm1", ["dpdkr0"])
    node.create_vm("vm2", ["dpdkr1"])
    node.create_vm("vm3", ["dpdkr2"])  # where web traffic gets diverted
    node.switch.start()

    source = SourceApp("src", node.vms["vm1"].pmd("dpdkr0"),
                       rate_pps=2e6)
    sink = SinkApp("sink", node.vms["vm2"].pmd("dpdkr1"))
    diverted_sink = SinkApp("sink.web", node.vms["vm3"].pmd("dpdkr2"))
    source.start(env)
    sink.start(env)
    diverted_sink.start(env)

    tx_pmd = node.vms["vm1"].pmd("dpdkr0")

    def report(tag):
        print("t=%7.1f ms  %-28s bypasses=%d tx_bypass=%-8d "
              "tx_normal=%-8d delivered=%d" % (
                  env.now * 1e3, tag, node.active_bypasses,
                  tx_pmd.tx_via_bypass, tx_pmd.tx_via_normal,
                  sink.received + diverted_sink.received))

    report("traffic started (no rules)")

    # 1. The p-2-p rule: detector -> agent -> bypass in ~100 ms.
    node.install_p2p_rule("dpdkr0", "dpdkr1")
    env.run(until=env.now + 0.02)
    report("p2p rule installed (+20ms)")
    env.run(until=env.now + 0.15)
    report("bypass established")

    link = node.manager.history[0]
    print("    establishment took %.1f ms (detection -> sender on bypass)"
          % (link.setup_request.setup_duration * 1e3))

    env.run(until=env.now + 0.1)
    report("traffic riding the bypass")

    # 2. Divert web traffic: the port is no longer point-to-point.
    node.controller.install_flow(
        Match(in_port=node.ofport("dpdkr0"), eth_type=ETH_TYPE_IPV4,
              ip_proto=IP_PROTO_TCP, l4_dst=80),
        [OutputAction(node.ofport("dpdkr2"))],
        priority=0xF000,
    )
    env.run(until=env.now + 0.2)
    report("web-divert rule -> fallback")

    # 3. Remove the divert: p-2-p again, new bypass.
    node.controller.delete_flow(
        Match(in_port=node.ofport("dpdkr0"), eth_type=ETH_TYPE_IPV4,
              ip_proto=IP_PROTO_TCP, l4_dst=80),
        strict=True, priority=0xF000,
    )
    env.run(until=env.now + 0.2)
    report("divert removed -> re-established")

    source.stop()
    env.run(until=env.now + 0.01)

    generated = source.generated
    refused = source.tx_failures
    delivered = sink.received + diverted_sink.received
    in_flight = source.pool.size - source.pool.available
    print("\nconservation: offered=%d = generated=%d + refused=%d"
          " = delivered=%d + refused=%d + in_flight=%d + lost=%d"
          % (generated + refused, generated, refused, delivered, refused,
             in_flight, generated - delivered - in_flight))
    print("bypass link history: %s" % [
        "%s->%s %s" % (l.src_port_name, l.dst_port_name, l.state.value)
        for l in node.manager.history
    ])


if __name__ == "__main__":
    main()
