"""Command-line interface: run the paper's experiments from a shell.

    python -m repro fig3a --lengths 2:8 --duration 0.002
    python -m repro fig3b
    python -m repro latency --rate 1e6
    python -m repro setup-time
    python -m repro multihost --vms 2

Each subcommand builds the experiment, runs it on the discrete-event
engine and prints the paper-style table.  Durations are simulated
seconds; larger values are more stable and proportionally slower to
simulate.
"""

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.experiments import (
    ChainExperiment,
    MultiHostChainExperiment,
    ServiceGraphExperiment,
    SetupTimeExperiment,
)
from repro.metrics import format_table


def _parse_range(text: str) -> List[int]:
    """``"2:8"`` -> [2..8]; ``"2,4,8"`` -> [2, 4, 8]; ``"3"`` -> [3]."""
    if ":" in text:
        start, end = text.split(":", 1)
        return list(range(int(start), int(end) + 1))
    return [int(part) for part in text.split(",")]


def _write_obs_artifacts(obs, out_dir: str) -> None:
    """Dump one experiment's observability state: Prometheus text,
    JSONL snapshots, finished traces and the rendered report."""
    from repro.obs.export import prometheus_text

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.prom"), "w") as handle:
        handle.write(prometheus_text(obs.registry))
    with open(os.path.join(out_dir, "snapshots.jsonl"), "w") as handle:
        handle.write(obs.snapshotter.to_jsonl())
    with open(os.path.join(out_dir, "traces.jsonl"), "w") as handle:
        for trace in obs.tracer.finished:
            handle.write(json.dumps(trace.as_dict()) + "\n")
    with open(os.path.join(out_dir, "report.txt"), "w") as handle:
        handle.write(obs.report() + "\n")


def _emit_obs(args: argparse.Namespace, experiment) -> None:
    obs = experiment.obs if experiment is not None else None
    if obs is None:
        return
    if getattr(args, "obs_out", None):
        obs.snapshot_now()
        _write_obs_artifacts(obs, args.obs_out)
        print("observability artifacts written to %s" % args.obs_out,
              file=sys.stderr)
    if getattr(args, "obs_report", False):
        print(obs.report())


def _sched_kwargs(args: argparse.Namespace) -> dict:
    """ChainExperiment scheduler kwargs from the --pmd-* flags."""
    kwargs = {
        "rxq_assign": getattr(args, "pmd_rxq_assign", "roundrobin"),
        "auto_lb": getattr(args, "pmd_auto_lb", False),
    }
    overrides = {}
    if getattr(args, "pmd_auto_lb_interval", None) is not None:
        overrides["rebalance_interval"] = args.pmd_auto_lb_interval
    if getattr(args, "pmd_auto_lb_load_threshold", None) is not None:
        overrides["load_threshold"] = args.pmd_auto_lb_load_threshold
    if getattr(args, "pmd_auto_lb_improvement", None) is not None:
        overrides["improvement_threshold"] = args.pmd_auto_lb_improvement
    if overrides:
        from repro.sched.autolb import AutoLbPolicy

        kwargs["auto_lb_policy"] = AutoLbPolicy(**overrides)
    return kwargs


def _overload_kwargs(args: argparse.Namespace) -> dict:
    """ChainExperiment overload kwargs from the --fail-mode/--overload
    flags (absent flags leave the experiment defaults untouched)."""
    kwargs = {}
    if getattr(args, "fail_mode", None) is not None:
        kwargs["fail_mode"] = args.fail_mode
    if getattr(args, "overload_control", False):
        kwargs["overload"] = True
    if getattr(args, "upcall_max_queue", None) is not None:
        from repro.overload import UpcallPolicy

        kwargs["upcall_policy"] = UpcallPolicy(
            max_queue=args.upcall_max_queue)
    return kwargs


def _fastpath_kwargs(args: argparse.Namespace) -> dict:
    """ChainExperiment fast-path kwargs (--megaflow/--no-megaflow)."""
    kwargs = {}
    if not getattr(args, "megaflow", True):
        kwargs["megaflow_enabled"] = False
    return kwargs


def cmd_fig3(args: argparse.Namespace, memory_only: bool) -> int:
    rows = []
    last_experiment = None
    for num_vms in args.lengths:
        line = [num_vms]
        for bypass in (False, True):
            experiment = ChainExperiment(
                num_vms=num_vms,
                bypass=bypass,
                memory_only=memory_only,
                duration=args.duration,
                frame_size=args.frame_size,
                trace_sample=args.trace_sample,
                snapshot_period=args.snapshot_period,
                **_sched_kwargs(args),
                **_overload_kwargs(args),
                **_fastpath_kwargs(args)
            )
            result = experiment.run()
            line.append(round(result.throughput_mpps, 3))
            last_experiment = experiment
        rows.append(line)
        print("  %d VMs done" % num_vms, file=sys.stderr)
    print(format_table(
        ["# VMs", "traditional Mpps", "our approach Mpps"], rows
    ))
    _emit_obs(args, last_experiment)
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    rows = []
    last_experiment = None
    for num_vms in args.lengths:
        vanilla = ChainExperiment(num_vms=num_vms, bypass=False,
                                  duration=args.duration,
                                  source_rate_pps=args.rate).run()
        experiment = ChainExperiment(
            num_vms=num_vms, bypass=True, duration=args.duration,
            source_rate_pps=args.rate,
            trace_sample=args.trace_sample,
            snapshot_period=args.snapshot_period,
            **_sched_kwargs(args),
            **_overload_kwargs(args),
            **_fastpath_kwargs(args)
        )
        ours = experiment.run()
        last_experiment = experiment
        improvement = 1 - ours.mean_latency / vanilla.mean_latency
        rows.append([num_vms, round(vanilla.mean_latency * 1e6, 2),
                     round(ours.mean_latency * 1e6, 2),
                     "%.0f%%" % (improvement * 100)])
    print(format_table(
        ["# VMs", "traditional us", "ours us", "improvement"], rows
    ))
    _emit_obs(args, last_experiment)
    return 0


def cmd_setup_time(_args: argparse.Namespace) -> int:
    result = SetupTimeExperiment().run()
    rows = [[name, round(value * 1e3, 2)]
            for name, value in result.stages()]
    rows.append(["TOTAL", round(result.total * 1e3, 2)])
    rows.append(["teardown", round(result.teardown_total * 1e3, 2)])
    print(format_table(["stage", "ms"], rows))
    return 0


def cmd_multihost(args: argparse.Namespace) -> int:
    rows = []
    for bypass in (False, True):
        result = MultiHostChainExperiment(
            vms_per_host=args.vms, bypass=bypass,
            duration=args.duration,
        ).run()
        rows.append(["bypass" if bypass else "vanilla",
                     round(result.throughput_mpps, 3),
                     result.bypasses_host1 + result.bypasses_host2,
                     result.wire_packets])
    print(format_table(
        ["approach", "Mpps", "bypasses", "wire packets"], rows
    ))
    return 0


def cmd_service(args: argparse.Namespace) -> int:
    rows = []
    for bypass in (False, True):
        result = ServiceGraphExperiment(
            bypass=bypass, duration=args.duration, rate_pps=args.rate
        ).run()
        rows.append([
            "highway" if bypass else "vanilla",
            round(result.throughput_mpps, 3),
            "%.0f%%" % (result.cache_hit_rate * 100),
            result.monitor_flows,
            result.active_bypasses,
        ])
    print(format_table(
        ["approach", "Mpps", "cache hits", "flows", "bypasses"], rows
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the SIGCOMM'16 transparent-highway "
                    "experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lengths_default):
        p.add_argument("--lengths", type=_parse_range,
                       default=lengths_default,
                       help="chain lengths, e.g. 2:8 or 2,4,8")
        p.add_argument("--duration", type=float, default=0.002,
                       help="simulated seconds per run")
        p.add_argument("--frame-size", type=int, default=64)
        p.add_argument("--trace-sample", type=int, default=None,
                       metavar="N",
                       help="trace 1-in-N packets (default: off)")
        p.add_argument("--snapshot-period", type=float, default=None,
                       metavar="SECONDS",
                       help="periodic metrics snapshots (simulated "
                            "seconds; default: off)")
        p.add_argument("--obs-report", action="store_true",
                       help="print the observability report after the "
                            "last run")
        p.add_argument("--obs-out", default=None, metavar="DIR",
                       help="write metrics.prom / snapshots.jsonl / "
                            "traces.jsonl / report.txt for the last run")
        p.add_argument("--pmd-rxq-assign", default="roundrobin",
                       choices=("roundrobin", "cycles", "group"),
                       help="rxq-to-core assignment policy "
                            "(default: roundrobin)")
        p.add_argument("--pmd-auto-lb", action="store_true",
                       help="enable the PMD auto load balancer")
        p.add_argument("--pmd-auto-lb-interval", type=float,
                       default=None, metavar="SECONDS",
                       help="auto-LB check interval (simulated seconds)")
        p.add_argument("--pmd-auto-lb-load-threshold", type=float,
                       default=None, metavar="FRACTION",
                       help="busy fraction a core must reach before the "
                            "auto-LB considers rebalancing")
        p.add_argument("--pmd-auto-lb-improvement", type=float,
                       default=None, metavar="FRACTION",
                       help="variance improvement required to apply a "
                            "rebalance")
        p.add_argument("--fail-mode", default=None,
                       choices=("standalone", "secure"),
                       help="controller fail mode "
                            "(default: standalone)")
        p.add_argument("--upcall-max-queue", type=int, default=None,
                       metavar="N",
                       help="bounded upcall queue depth (default: 256)")
        p.add_argument("--overload-control", action="store_true",
                       help="enable the RX overload monitor "
                            "(qlen-driven early drop)")
        p.add_argument("--megaflow", dest="megaflow",
                       action="store_true", default=True,
                       help="enable the megaflow (wildcard) cache tier "
                            "(default)")
        p.add_argument("--no-megaflow", dest="megaflow",
                       action="store_false",
                       help="ablate the megaflow cache tier")

    p3a = sub.add_parser("fig3a", help="Figure 3(a): memory-only chains")
    common(p3a, _parse_range("2:8"))
    p3b = sub.add_parser("fig3b", help="Figure 3(b): chains through NICs")
    common(p3b, _parse_range("1:8"))
    plat = sub.add_parser("latency", help="latency vs chain length")
    common(plat, _parse_range("2,4,6,8"))
    plat.add_argument("--rate", type=float, default=1e6,
                      help="offered load per direction (pps)")
    sub.add_parser("setup-time", help="bypass establishment breakdown")
    psvc = sub.add_parser("service",
                          help="the Figure-1 firewall/monitor/cache "
                               "service, highway on vs off")
    psvc.add_argument("--duration", type=float, default=0.004)
    psvc.add_argument("--rate", type=float, default=8e6)
    pmh = sub.add_parser("multihost", help="chain across two hosts")
    pmh.add_argument("--vms", type=int, default=2,
                     help="VMs per host")
    pmh.add_argument("--duration", type=float, default=0.003)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "fig3a":
        return cmd_fig3(args, memory_only=True)
    if args.command == "fig3b":
        return cmd_fig3(args, memory_only=False)
    if args.command == "latency":
        return cmd_latency(args)
    if args.command == "setup-time":
        return cmd_setup_time(args)
    if args.command == "service":
        return cmd_service(args)
    if args.command == "multihost":
        return cmd_multihost(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
