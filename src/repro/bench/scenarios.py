"""The benchmark scenario matrix.

Every scenario maps ``(quick, seed, registry)`` to one schema-v1
document and one set of headline trend metrics.  Two kinds:

* **sweeps** (family ``matrix``) drive the RFC2544 harness over a fresh
  service chain per measurement, varying exactly one pressure axis —
  frame size, chain length, Zipf flow skew, classifier rule count,
  flowmod churn — the knobs "Performance Benchmarking of
  State-of-the-Art Software Switches for NFV" identifies as the ones
  that move software-switch numbers;
* **composites** reuse the four legacy benchmark families
  (:mod:`repro.bench.workloads`) as scenarios — miss storm, hot-port
  collision, rebalance under load, crash soak — so the whole historical
  surface rides the same matrix, schema and trend file.

``python -m repro.bench --matrix quick`` runs everything in smoke
sizing; ``--matrix full`` is the committed-artifact sizing.
"""

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.bench.harness import ChainLoadRunner, Rfc2544Harness
from repro.bench.schema import SCHEMA_VERSION, run_meta
from repro.obs.registry import MetricsRegistry
from repro.traffic.profiles import elephants_mice_profile, skewed_profile

GENERATOR = "repro.bench"

#: Matrix-wide search range: total offered pps across both directions.
SEARCH_MIN_PPS = 5e5
SEARCH_MAX_PPS = 4.0e7

#: Fixed offered load for single-point pressure sweeps — comfortably
#: inside the vanilla chain's capacity so any loss is caused by the
#: pressure axis, not by the load itself.
PRESSURE_PPS = 4.0e6

#: Ablation override for the megaflow (wildcard) cache tier, flipped by
#: ``python -m repro.bench --no-megaflow``.  The rule-count sweep is the
#: scenario the tier is built for, so it is the one that honors the
#: switch; the config block of its document records the setting.
MEGAFLOW_ENABLED = True


@dataclass(frozen=True)
class Scenario:
    """One entry in the matrix."""

    name: str
    family: str
    title: str
    run: Callable[[bool, Optional[int], MetricsRegistry], Dict[str, Any]]


def _matrix_doc(scenario: str, quick: bool, seed: Optional[int],
                config: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "schema": "repro-bench-matrix/%d" % SCHEMA_VERSION,
        "schema_version": SCHEMA_VERSION,
        "meta": run_meta("%s/%s" % (GENERATOR, scenario), seed=seed,
                         quick=quick),
        "config": config,
    }


def _attach(doc: Dict[str, Any], checks, trend: Dict[str, float]
            ) -> Dict[str, Any]:
    doc["checks"] = [
        {"name": name, "passed": bool(passed), "detail": detail}
        for name, passed, detail in checks
    ]
    doc["trend"] = {key: round(float(value), 6)
                    for key, value in sorted(trend.items())}
    return doc


def _latency_ordered(latency: Dict[str, float]) -> bool:
    """p50 <= p95 <= p99 <= p999 (vacuously true with no samples)."""
    values = [latency.get("%s_us" % name)
              for name in ("p50", "p95", "p99", "p999")]
    values = [value for value in values if value is not None]
    return all(a <= b for a, b in zip(values, values[1:]))


def _harness(runner, registry, scenario, quick):
    return Rfc2544Harness(
        runner,
        resolution=0.10 if quick else 0.05,
        max_iterations=8 if quick else 12,
        registry=registry,
        scenario=scenario,
    )


# -- sweeps -------------------------------------------------------------------


def _run_zero_loss_pktsize(quick, seed, registry):
    """Zero-loss throughput of the bypass chain vs frame size."""
    sizes = (64, 256) if quick else (64, 256, 1024)
    duration = 0.001 if quick else 0.002
    doc = _matrix_doc("zero_loss_pktsize", quick, seed, {
        "quick": quick, "frame_sizes": list(sizes),
        "duration_s": duration, "num_vms": 3, "bypass": True,
        "search_pps": [SEARCH_MIN_PPS, SEARCH_MAX_PPS],
    })
    sweep, checks, trend = [], [], {}
    for size in sizes:
        runner = ChainLoadRunner(num_vms=3, bypass=True,
                                 duration=duration, frame_size=size)
        harness = _harness(runner, registry,
                           "pktsize_%d" % size, quick)
        search = harness.zero_loss_search(SEARCH_MIN_PPS, SEARCH_MAX_PPS)
        sweep.append({"frame_size": size, "search": search.as_dict()})
        trend["zero_loss_mpps_%db" % size] = search.zero_loss_mpps
        checks.append((
            "zero_loss_found_%db" % size, search.zero_loss_pps > 0,
            "%.4f Mpps in %d trials" % (search.zero_loss_mpps,
                                        search.iterations)))
        checks.append((
            "latency_quantiles_ordered_%db" % size,
            all(_latency_ordered(point.latency_us)
                for point in search.points),
            "p50<=p95<=p99<=p999 at every trial"))
    doc["sweep"] = sweep
    return _attach(doc, checks, trend)


def _run_zero_loss_chain_length(quick, seed, registry):
    """Zero-loss throughput vs number of chained VMs (bypass on)."""
    lengths = (2, 3) if quick else (2, 3, 4)
    duration = 0.001 if quick else 0.002
    doc = _matrix_doc("zero_loss_chain_length", quick, seed, {
        "quick": quick, "chain_lengths": list(lengths),
        "duration_s": duration, "bypass": True,
        "search_pps": [SEARCH_MIN_PPS, SEARCH_MAX_PPS],
    })
    sweep, checks, trend = [], [], {}
    for length in lengths:
        runner = ChainLoadRunner(num_vms=length, bypass=True,
                                 duration=duration)
        harness = _harness(runner, registry,
                           "chain_%dvm" % length, quick)
        search = harness.zero_loss_search(SEARCH_MIN_PPS, SEARCH_MAX_PPS)
        sweep.append({"num_vms": length, "search": search.as_dict()})
        trend["zero_loss_mpps_%dvm" % length] = search.zero_loss_mpps
        checks.append((
            "zero_loss_found_%dvm" % length, search.zero_loss_pps > 0,
            "%.4f Mpps in %d trials" % (search.zero_loss_mpps,
                                        search.iterations)))
    doc["sweep"] = sweep
    return _attach(doc, checks, trend)


def _run_flow_scale_zipf(quick, seed, registry):
    """Loss and latency at fixed load vs Zipf-skewed flow count.

    More distinct flows means more EMC pressure; the skewed profile
    keeps a hot head (cache-resident) over a long tail, the realistic
    shape for cache-sensitivity measurements.
    """
    counts = (4, 64) if quick else (4, 64, 256)
    duration = 0.001 if quick else 0.002
    exponent = 1.2
    doc = _matrix_doc("flow_scale_zipf", quick, seed, {
        "quick": quick, "flow_counts": list(counts),
        "zipf_exponent": exponent, "offered_pps": PRESSURE_PPS,
        "duration_s": duration, "num_vms": 3, "bypass": False,
    })
    sweep, checks, trend = [], [], {}
    for count in counts:
        profile = skewed_profile(frame_size=64, flows=count,
                                 exponent=exponent)
        runner = ChainLoadRunner(num_vms=3, bypass=False,
                                 duration=duration, flows=count,
                                 profile=profile)
        harness = _harness(runner, registry,
                           "flows_%d" % count, quick)
        point = harness.measure(PRESSURE_PPS)
        sweep.append({"flows": count, "point": point.as_dict()})
        trend["loss_fraction_%df" % count] = point.loss_fraction
        p99 = point.latency_us.get("p99_us")
        if p99 is not None:
            trend["p99_us_%df" % count] = p99
        checks.append((
            "delivered_traffic_%df" % count, point.delivered > 0,
            "%d of %d frames delivered" % (point.delivered,
                                           point.sent)))
        checks.append((
            "latency_quantiles_ordered_%df" % count,
            _latency_ordered(point.latency_us),
            "p50<=p95<=p99<=p999"))
    doc["sweep"] = sweep
    return _attach(doc, checks, trend)


def _run_rule_scale(quick, seed, registry):
    """Loss and throughput at fixed load vs classifier rule count.

    Filler rules are masked ``eth_src`` matches across several mask
    widths, so each step multiplies classifier subtables — the
    megaflow-lookup pressure axis.
    """
    rule_counts = (0, 128) if quick else (0, 128, 512)
    duration = 0.001 if quick else 0.002
    doc = _matrix_doc("rule_scale", quick, seed, {
        "quick": quick, "rule_counts": list(rule_counts),
        "offered_pps": PRESSURE_PPS, "duration_s": duration,
        "num_vms": 3, "bypass": False,
        "megaflow_enabled": MEGAFLOW_ENABLED,
    })
    sweep, checks, trend = [], [], {}
    for rules in rule_counts:
        runner = ChainLoadRunner(num_vms=3, bypass=False,
                                 duration=duration, extra_rules=rules,
                                 megaflow_enabled=MEGAFLOW_ENABLED)
        harness = _harness(runner, registry,
                           "rules_%d" % rules, quick)
        point = harness.measure(PRESSURE_PPS)
        sweep.append({"extra_rules": rules, "point": point.as_dict()})
        trend["throughput_mpps_%dr" % rules] = point.throughput_mpps
        trend["loss_fraction_%dr" % rules] = point.loss_fraction
        checks.append((
            "delivered_traffic_%dr" % rules, point.delivered > 0,
            "%d of %d frames delivered" % (point.delivered,
                                           point.sent)))
    doc["sweep"] = sweep
    return _attach(doc, checks, trend)


def _run_flowmod_churn(quick, seed, registry):
    """Loss and tail latency at fixed load vs flowmod churn rate.

    Each churn cycle adds and deletes an unrelated rule, exercising
    EMC invalidation while traffic is in flight.
    """
    rates = (0.0, 2000.0) if quick else (0.0, 1000.0, 4000.0)
    duration = 0.002 if quick else 0.004
    doc = _matrix_doc("flowmod_churn", quick, seed, {
        "quick": quick, "churn_hz": list(rates),
        "offered_pps": PRESSURE_PPS, "duration_s": duration,
        "num_vms": 3, "bypass": False,
    })
    sweep, checks, trend = [], [], {}
    for churn_hz in rates:
        runner = ChainLoadRunner(num_vms=3, bypass=False,
                                 duration=duration, churn_hz=churn_hz)
        harness = _harness(runner, registry,
                           "churn_%d" % int(churn_hz), quick)
        point = harness.measure(PRESSURE_PPS)
        experiment = runner.last_experiment
        flowmods = experiment.flowmods_applied if experiment else 0
        sweep.append({"churn_hz": churn_hz, "flowmods": flowmods,
                      "point": point.as_dict()})
        key = "%dhz" % int(churn_hz)
        trend["loss_fraction_%s" % key] = point.loss_fraction
        p99 = point.latency_us.get("p99_us")
        if p99 is not None:
            trend["p99_us_%s" % key] = p99
        checks.append((
            "delivered_traffic_%s" % key, point.delivered > 0,
            "%d of %d frames delivered" % (point.delivered,
                                           point.sent)))
        checks.append((
            "churn_applied_%s" % key,
            (flowmods > 0) == (churn_hz > 0),
            "%d flowmods at %g Hz" % (flowmods, churn_hz)))
    doc["sweep"] = sweep
    return _attach(doc, checks, trend)


def _run_rebalance_under_load(quick, seed, registry):
    """Static hash vs auto load balancer at one hot-port collision load.

    A single-point cut of the full sched family: same adversarial
    ofport layout, same Zipf load split, measured live with the auto
    balancer on vs the static hash.
    """
    from repro.bench.workloads import sched

    duration = 0.01 if quick else 0.02
    warmup = 0.008
    total_pps = 2.0e7
    doc = _matrix_doc("rebalance_under_load", quick, seed, {
        "quick": quick, "offered_pps_total": total_pps,
        "duration_s": duration, "warmup_s": warmup,
        "n_pmd_cores": sched.N_CORES, "n_rx_ports": sched.N_PORTS,
    })
    variants = {
        name: sched.run_variant(name, total_pps, duration, warmup)
        for name in ("static", "auto_lb")
    }
    doc["workloads"] = variants
    static = variants["static"]["throughput_mpps"]
    auto_lb = variants["auto_lb"]["throughput_mpps"]
    checks = [
        ("auto_lb_beats_static_hash", auto_lb > static,
         "%.4f > %.4f Mpps" % (auto_lb, static)),
        ("auto_lb_applied_a_rebalance",
         variants["auto_lb"]["auto_lb_applied"] >= 1,
         "%d rebalance(s) applied"
         % variants["auto_lb"]["auto_lb_applied"]),
    ]
    trend = {
        "static_mpps": static,
        "auto_lb_mpps": auto_lb,
        "auto_lb_gain_mpps": auto_lb - static,
    }
    return _attach(doc, checks, trend)


def _run_elephants_mice(quick, seed, registry):
    """Loss and latency at fixed load under the datacenter mix: a few
    hot elephants over a churning swarm of mice.

    The state-table stress shape: the elephants pin a handful of hot
    entries while every mouse walks the idle-eviction path — very
    different cache behaviour from a uniform or Zipf mix.
    """
    counts = (16, 64) if quick else (16, 64, 256)
    duration = 0.001 if quick else 0.002
    doc = _matrix_doc("elephants_mice", quick, seed, {
        "quick": quick, "mice_counts": list(counts), "elephants": 2,
        "elephant_share": 0.8, "offered_pps": PRESSURE_PPS,
        "duration_s": duration, "num_vms": 3, "bypass": False,
    })
    sweep, checks, trend = [], [], {}
    for mice in counts:
        profile = elephants_mice_profile(mice=mice)
        runner = ChainLoadRunner(num_vms=3, bypass=False,
                                 duration=duration, flows=mice + 2,
                                 profile=profile)
        harness = _harness(runner, registry, "mice_%d" % mice, quick)
        point = harness.measure(PRESSURE_PPS)
        sweep.append({"mice": mice, "point": point.as_dict()})
        trend["loss_fraction_%dm" % mice] = point.loss_fraction
        p99 = point.latency_us.get("p99_us")
        if p99 is not None:
            trend["p99_us_%dm" % mice] = p99
        checks.append((
            "delivered_traffic_%dm" % mice, point.delivered > 0,
            "%d of %d frames delivered" % (point.delivered,
                                           point.sent)))
        checks.append((
            "latency_quantiles_ordered_%dm" % mice,
            _latency_ordered(point.latency_us),
            "p50<=p95<=p99<=p999"))
    doc["sweep"] = sweep
    return _attach(doc, checks, trend)


def _run_bursty_onoff(quick, seed, registry):
    """Loss and tail latency at fixed load vs source duty cycle.

    On/off sources at the same configured rate: the on-phase bursts
    probe queue absorption, the off phases let everything drain — the
    classic bursty-traffic pressure axis.
    """
    duties = (1.0, 0.5) if quick else (1.0, 0.5, 0.25)
    period = 0.0005
    duration = 0.002 if quick else 0.004
    doc = _matrix_doc("bursty_onoff", quick, seed, {
        "quick": quick, "duty_cycles": list(duties),
        "period_s": period, "offered_pps": PRESSURE_PPS,
        "duration_s": duration, "num_vms": 3, "bypass": False,
    })
    sweep, checks, trend = [], [], {}
    full_duty_sent = None
    for duty in duties:
        kwargs = {}
        if duty < 1.0:
            kwargs = {"source_on_time": period * duty,
                      "source_off_time": period * (1.0 - duty)}
        runner = ChainLoadRunner(num_vms=3, bypass=False,
                                 duration=duration, **kwargs)
        harness = _harness(runner, registry,
                           "duty_%d" % int(duty * 100), quick)
        point = harness.measure(PRESSURE_PPS)
        key = "%dpct" % int(duty * 100)
        sweep.append({"duty_cycle": duty, "point": point.as_dict()})
        trend["loss_fraction_%s" % key] = point.loss_fraction
        p99 = point.latency_us.get("p99_us")
        if p99 is not None:
            trend["p99_us_%s" % key] = p99
        checks.append((
            "delivered_traffic_%s" % key, point.delivered > 0,
            "%d of %d frames delivered" % (point.delivered,
                                           point.sent)))
        if duty == 1.0:
            full_duty_sent = point.sent
        elif full_duty_sent:
            checks.append((
                "duty_cycle_reduces_offered_%s" % key,
                point.sent < full_duty_sent,
                "%d < %d frames offered" % (point.sent,
                                            full_duty_sent)))
    doc["sweep"] = sweep
    return _attach(doc, checks, trend)


def _run_syn_flood(quick, seed, registry):
    """SYN-flood boundedness of the XFSM tier vs attack rate.

    The drop edge of the firewall program never persists, so outside
    SYNs must write zero state entries at any rate; ``--no-xfsm``
    ablates the tier and the checks demonstrate the leak instead.
    """
    from repro.bench.workloads import state as state_mod

    rates = (1e5, 4e5) if quick else (1e5, 4e5, 1e6)
    duration = 0.004 if quick else 0.01
    legit_flows = 8
    doc = _matrix_doc("syn_flood", quick, seed, {
        "quick": quick, "attack_pps": list(rates),
        "duration_s": duration, "legit_flows": legit_flows,
        "xfsm_enabled": state_mod.XFSM_ENABLED,
    })
    sweep, checks, trend = [], [], {}
    for rate in rates:
        row = state_mod.syn_flood_xfsm(duration,
                                       legit_flows=legit_flows,
                                       legit_pps=1e5, attack_pps=rate)
        key = "%dk" % int(rate / 1e3)
        sweep.append({"attack_pps": rate, "flood": row})
        trend["synflood_occupancy_%s" % key] = row["state_occupancy"]
        if state_mod.XFSM_ENABLED:
            checks.append((
                "flood_bounded_%s" % key,
                row["state_occupancy"] <= legit_flows
                and row["attack_leaked"] == 0,
                "%d entries for %d legit flows, %d SYNs leaked"
                % (row["state_occupancy"], legit_flows,
                   row["attack_leaked"])))
        else:
            checks.append((
                "flood_leaks_ablated_%s" % key,
                row["attack_leaked"] > 0,
                "%d SYNs delivered with the tier ablated"
                % row["attack_leaked"]))
        checks.append((
            "legit_delivered_%s" % key,
            row["legit_delivered_forward"] > 0,
            "%d legit frames through the perimeter"
            % row["legit_delivered_forward"]))
    doc["sweep"] = sweep
    return _attach(doc, checks, trend)


# -- composites (the four legacy families) ------------------------------------


def _composite(family: str):
    def run(quick, seed, registry):
        from repro.bench import workloads

        module = workloads.get(family)
        doc = module.run_bench(quick, seed=seed)
        doc["trend"] = {key: round(float(value), 6) for key, value
                        in sorted(module.trend_metrics(doc).items())}
        return doc

    return run


# -- registry -----------------------------------------------------------------

SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario for scenario in (
        Scenario("zero_loss_pktsize", "matrix",
                 "RFC2544 zero-loss throughput vs frame size",
                 _run_zero_loss_pktsize),
        Scenario("zero_loss_chain_length", "matrix",
                 "RFC2544 zero-loss throughput vs chain length",
                 _run_zero_loss_chain_length),
        Scenario("flow_scale_zipf", "matrix",
                 "loss/latency vs Zipf-skewed flow count",
                 _run_flow_scale_zipf),
        Scenario("rule_scale", "matrix",
                 "loss/throughput vs classifier rule count",
                 _run_rule_scale),
        Scenario("flowmod_churn", "matrix",
                 "loss/tail latency vs flowmod churn rate",
                 _run_flowmod_churn),
        Scenario("rebalance_under_load", "matrix",
                 "auto load balancer vs static hash, hot-port collision",
                 _run_rebalance_under_load),
        Scenario("elephants_mice", "matrix",
                 "loss/latency under the elephants-and-mice flow mix",
                 _run_elephants_mice),
        Scenario("bursty_onoff", "matrix",
                 "loss/tail latency vs source on/off duty cycle",
                 _run_bursty_onoff),
        Scenario("syn_flood", "state",
                 "SYN-flood boundedness of the XFSM state table",
                 _run_syn_flood),
        Scenario("stateful_churn", "state",
                 "stateful tier: guest VNF vs XFSM datapath vs bypass",
                 _composite("state")),
        Scenario("fastpath_baseline", "fastpath",
                 "flow-batched fast path, EMC invalidation, bypass chains",
                 _composite("fastpath")),
        Scenario("hot_port_collision", "sched",
                 "PMD rxq scheduling: static vs cycles vs auto-lb",
                 _composite("sched")),
        Scenario("miss_storm", "overload",
                 "bounded upcalls under a miss storm; controller outage",
                 _composite("overload")),
        Scenario("crash_soak", "chaos",
                 "Poisson VM crashes with and without the repairer",
                 _composite("chaos")),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError("unknown scenario %r (know: %s)"
                       % (name, ", ".join(sorted(SCENARIOS)))) from None


def run_scenario(name: str, quick: bool = True,
                 seed: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None
                 ) -> Dict[str, Any]:
    """Run one scenario; returns its schema-v1 document (with a
    ``trend`` block of headline metrics)."""
    scenario = get_scenario(name)
    if registry is None:
        registry = MetricsRegistry()
    return scenario.run(quick, seed, registry)


def trend_metrics_of(doc: Dict[str, Any]) -> Dict[str, float]:
    """The headline metrics a scenario document carries."""
    trend = doc.get("trend")
    if not isinstance(trend, dict) or not trend:
        raise ValueError("scenario document carries no trend metrics")
    return trend


def scenario_names() -> List[str]:
    return list(SCENARIOS)
