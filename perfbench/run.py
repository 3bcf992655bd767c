"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload bypass_chain --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric, ``--trace 1`` every per-layer metric (README.md maps each to its
layer, its time base and the end-to-end metric it should move).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
and ``failed`` are the paced phase's offered and lost packets.  The exit
code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Where traced runs write their spans, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")

SPEC = os.path.join(ROOT, "BENCHMARK.json")


def time_base(name: str) -> str:
    """``host`` for time and memory metrics of the Python process,
    ``sim`` for simulated-testbed metrics and exact counts, which repeat
    bit for bit for one seed and ``--seconds``."""
    if (name in ("setup_s", "host_kpps", "rss_mb") or "self" in name
            or name.startswith("trace.")):
        return "host"
    return "sim"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program():
    """Put the program's sources on the path; fail loudly without them."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program sources at %s" % src)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measured_pass(workloads, workload, inputs, setups, errors):
    """Set up ``setups`` times, measure on the last chain.  Returns the
    run and one timer per set-up."""
    from hostclock import HostTimer

    setup_timers = []
    fingerprints = []
    experiment = None
    for _ in range(setups):
        experiment = None  # let the previous chain go before timing
        timer = HostTimer()
        experiment = workloads.build(workload, inputs, timer)
        setup_timers.append(timer)
        fingerprints.append(workloads.setup_fingerprint(experiment))
        if experiment.node.active_bypasses != workload.expected_bypasses:
            errors.append("set-up left %d bypasses active, expected %d"
                          % (experiment.node.active_bypasses,
                             workload.expected_bypasses))
    if len(set(fingerprints)) != 1:
        errors.append("identical set-ups disagree in simulated outcome")
    run = workloads.Run(workload, inputs, experiment)
    run.measure()
    errors.extend(run.errors)
    return run, setup_timers


def layer_metrics(run, setup_delta, measured_delta, untraced_host):
    """Per-layer metrics from the traced pass (see README.md)."""
    from spans import layer_self_s, span_sum
    from repro.obs.cycles import STAGES, seconds_to_cycles

    node = run.node
    datapath = node.switch.datapath
    pmds = [pmd for handle in node.vms.values()
            for pmd in handle.pmds.values()]
    delivered = max(1, sum(phase.delivered for phase in run.phases))
    traced_host = sum(phase.host_s for phase in run.phases)
    calls = measured_delta["calls"]
    self_s = measured_delta["self_s"]
    whole = {part: {key: setup_delta[part].get(key, 0) + value
                    for key, value in measured_delta[part].items()}
             for part in ("calls", "self_s", "stats")}

    def us_per_pkt(*names):
        return span_sum(measured_delta, "self_s", *names) / delivered * 1e6

    def per_op_ms(names, ops):
        return span_sum(whole, "self_s", *names) / max(1, ops) * 1e3

    def ratio(part, whole_count):
        return part / whole_count if whole_count else 0.0

    establishments = run.establishments()
    flowmods = int(span_sum(whole, "calls", "openflow.install",
                            "openflow.delete"))
    hotplugs = int(span_sum(whole, "calls", "hypervisor.plug",
                            "hypervisor.unplug"))
    ring_ops = int(span_sum(measured_delta, "calls", "mem.ring_enqueue",
                            "mem.ring_dequeue"))
    processed = datapath.packets_processed
    tx_bypass = sum(pmd.tx_via_bypass for pmd in pmds)
    tx_total = tx_bypass + sum(pmd.tx_via_normal for pmd in pmds)
    paced = run.paced
    unpaced = run.unpaced
    pmd_time = unpaced.books["pmd_busy"] + unpaced.books["pmd_idle"]
    program = run.experiment.xfsm_program
    xfsm_evals = datapath.xfsm_evaluated + sum(pmd.xfsm_evaluated
                                               for pmd in pmds)
    manager = node.manager
    metrics = {
        "sim.events": calls["sim.step"],
        "sim.events_per_kpkt": calls["sim.step"] / delivered * 1e3,
        "sim.setup_events": setup_delta["calls"]["sim.step"],
        "sim.engine_self_frac": self_s["sim.step"] / traced_host,
        "mem.ring_ops": ring_ops,
        "mem.ring_ops_per_pkt": ring_ops / delivered,
        "mem.ring_pkts_per_op": ratio(
            measured_delta["stats"]["ring_objs"], ring_ops),
        "mem.ring_self_us_per_pkt": us_per_pkt("mem.ring_enqueue",
                                               "mem.ring_dequeue"),
        "mem.ring_full_refusals": measured_delta["stats"]["ring_refusals"],
        "mem.mempool_self_us_per_pkt": us_per_pkt("mem.mempool_get",
                                                  "mem.mempool_put"),
        "core.pmd_self_us_per_pkt": us_per_pkt("core.pmd_rx",
                                               "core.pmd_tx"),
        "core.pmd_bypass_tx_share": ratio(tx_bypass, tx_total),
        "core.pmd_stall_rejects": sum(pmd.tx_stall_rejects
                                      for pmd in pmds),
        "core.detector_calls": whole["calls"]["core.detector"],
        "core.detector_self_ms_per_flowmod": per_op_ms(
            ["core.detector"], flowmods),
        "core.bypass_establishments": len(establishments),
        "core.bypass_teardowns": run.teardowns(),
        "core.bypass_setup_ms": (
            statistics.median(establishments) * 1e3
            if establishments else 0.0),
        "core.bypass_self_ms_per_establish": per_op_ms(
            ["core.bypass_admit", "core.bypass_revoke",
             "core.bypass_provision", "core.bypass_active",
             "core.bypass_finish"], len(establishments)),
        "core.watchdog_self_frac": self_s["core.watchdog"] / traced_host,
        "vswitch.datapath_self_us_per_pkt": us_per_pkt("vswitch.datapath"),
        "vswitch.idle_iterations":
            measured_delta["stats"]["idle_iterations"],
        "vswitch.emc_hit_rate": ratio(datapath.emc_hits, processed),
        "vswitch.smc_hit_rate": ratio(datapath.smc_hits, processed),
        "vswitch.megaflow_hit_rate": ratio(datapath.megaflow_hits,
                                           processed),
        "vswitch.dpcls_lookups_per_pkt": ratio(
            span_sum(measured_delta, "calls", "vswitch.dpcls",
                     "vswitch.dpcls_hinted"), processed),
        "vswitch.upcalls": datapath.miss_upcalls,
        "vswitch.batch_fill": datapath.avg_batch_fill,
        "vswitch.emc_invalidations": datapath.emc.precise_evictions,
        "vswitch.pmd_busy_frac": ratio(unpaced.books["pmd_busy"],
                                       pmd_time),
        "openflow.flowmods": flowmods,
        "openflow.self_ms_per_flowmod": per_op_ms(
            ["openflow.install", "openflow.delete", "openflow.wire_encode",
             "openflow.wire_decode", "openflow.bridge",
             "openflow.table_add", "openflow.table_delete"], flowmods),
        "hypervisor.hotplugs": hotplugs,
        "hypervisor.self_ms_per_hotplug": per_op_ms(
            ["hypervisor.plug", "hypervisor.unplug",
             "hypervisor.agent_setup", "hypervisor.agent_teardown"],
            hotplugs),
        "dpdk.virtio_serial_msgs": int(span_sum(
            whole, "calls", "dpdk.serial_host_send",
            "dpdk.serial_guest_send")),
        "state.xfsm_evals_datapath": datapath.xfsm_evaluated,
        "state.xfsm_evals_pmd": sum(pmd.xfsm_evaluated for pmd in pmds),
        "state.xfsm_self_us_per_eval": ratio(
            span_sum(whole, "self_s", "state.xfsm", "state.table_lookup",
                     "state.table_update") * 1e6, xfsm_evals),
        "state.table_occupancy": (program.table.occupancy
                                  if program is not None else 0),
        "state.migrations": (manager.xfsm_state_migrations
                             if manager is not None else 0),
        "traffic.source_self_us_per_pkt": us_per_pkt("traffic.source"),
        "traffic.source_tx_refusals": int(paced.books["tx_refusals"]),
        "traffic.sink_self_us_per_pkt": us_per_pkt("traffic.sink"),
        "traffic.latency_samples": paced.latency[2],
        "apps.forwarder_self_us_per_pkt": us_per_pkt("apps.forwarder"),
        "apps.drops": int(paced.books["app_drops"]),
        "obs.accounting_self_us_per_pkt": us_per_pkt("obs.accounting"),
        "loss_frac": ratio(paced.lost, paced.offered),
        "trace.overhead_frac": traced_host / untraced_host - 1.0,
    }
    for layer, seconds in layer_self_s(measured_delta).items():
        if layer != "sim":
            metrics["%s.self_frac" % layer] = seconds / traced_host
    stage_seconds = {stage: 0.0 for stage in STAGES}
    for _loop, stages in node.switch.pmd_cycle_report().loop_rows():
        if stages is not None:
            for stage, seconds in stages.seconds.items():
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) \
                    + seconds
    for stage in STAGES:
        metrics["vswitch.cycles_per_pkt.%s" % stage] = (
            seconds_to_cycles(stage_seconds[stage]) / delivered)
    return metrics


def run_untraced(workloads, workload, inputs):
    errors = []
    run, setup_timers = measured_pass(workloads, workload, inputs,
                                      workloads.SETUPS, errors)
    values = {
        "setup_s": statistics.median(
            timer.normalized_s for timer in setup_timers),
        "host_kpps": run.host_kpps(),
        "rss_mb": peak_rss_mb(),
    }
    values.update(run.sim_metrics())
    detail = {"setup_wall_s": [timer.wall_s for timer in setup_timers],
              "setup_normalized_s": [timer.normalized_s
                                     for timer in setup_timers],
              "phases": phase_detail(run),
              "exact_counts": run.exact_counts()}
    return run, values, detail, errors


def run_traced(workloads, workload, inputs, args):
    """An untraced pass, then the same seed traced: the two must agree
    bit for bit on every sim metric and exact count."""
    from hostclock import HostTimer
    from spans import Tracer

    errors = []
    plain, _ = measured_pass(workloads, workload, inputs, 1, errors)
    plain_sim = plain.sim_metrics()
    plain_counts = plain.exact_counts()
    untraced_host = sum(phase.host_s for phase in plain.phases)
    plain = None

    tracer = Tracer().install()
    try:
        before = tracer.snapshot()
        experiment = workloads.build(workload, inputs, HostTimer())
        at_setup = tracer.snapshot()
        run = workloads.Run(workload, inputs, experiment)
        run.measure()
        errors.extend(run.errors)
        after = tracer.snapshot()
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, "spans-%s-%d.jsonl"
                             % (workload.name, args.seed))
    tracer.write(span_path)
    if run.sim_metrics() != plain_sim:
        errors.append("sim metrics differ between two runs of one seed: "
                      "%r vs %r" % (plain_sim, run.sim_metrics()))
    if run.exact_counts() != plain_counts:
        errors.append("exact counts differ between two runs of one seed")
    values = layer_metrics(run, Tracer.delta(at_setup, before),
                           Tracer.delta(after, at_setup), untraced_host)
    detail = {"spans_file": os.path.relpath(span_path, ROOT),
              "spans_kept": len(tracer.spans),
              "spans_dropped": tracer.spans_dropped,
              "phases": phase_detail(run),
              "exact_counts": run.exact_counts()}
    return run, values, detail, errors


def phase_detail(run):
    return [{"phase": phase.name, "sim_s": phase.sim_s,
             "host_s": phase.host_s, "offered": phase.offered,
             "delivered": phase.delivered, "lost": phase.lost,
             "policy_dropped": int(phase.books["policy"]),
             "latency_samples": phase.latency[2],
             "slice_wall_s": [timer.wall_s for timer, _ in phase.chunks],
             "slice_normalized_s": [timer.normalized_s
                                    for timer, _ in phase.chunks]}
            for phase in run.phases]


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(workload, args.seed, args.seconds)
    with open(SPEC) as handle:
        spec = json.load(handle)
    if args.trace:
        run, values, detail, errors = run_traced(workloads, workload,
                                                 inputs, args)
        declared = spec["per_layer"]
    else:
        run, values, detail, errors = run_untraced(workloads, workload,
                                                   inputs)
        declared = spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        errors.append("emitted metrics differ from BENCHMARK.json: "
                      "missing %s, undeclared %s"
                      % (sorted(set(units) - set(values)),
                         sorted(set(values) - set(units))))
    for name in sorted(values):
        print("%-40s %16.6f %-12s %s" % (name, values[name],
                                         units.get(name, "?"),
                                         time_base(name)))
    for error in errors:
        print("CHECK FAILED: %s" % error)
    print("detail: %s" % json.dumps(detail, sort_keys=True))
    paced = run.paced
    result = {
        "correct": not errors,
        "attempted": paced.offered,
        "failed": paced.lost,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
