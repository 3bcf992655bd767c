"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

They run tiny sizes (well under a second of measurement per phase), so
the numbers they produce are meaningless; they check the contract: the
spec's grammar, that every workload emits exactly the metrics it
declares in both modes, that a smoke run passes the correctness gate,
and that the benchmark refuses to run without the program.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = "0.4"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_spec_grammar():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["name"] in workloads.WORKLOADS
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert set(names[:len(spec["workloads"])]) == set(workloads.WORKLOADS)


def test_inputs_come_from_the_seed():
    workload = workloads.WORKLOADS["rule_churn"]
    first = workloads.make_inputs(workload, 7, 20)
    again = workloads.make_inputs(workload, 7, 20)
    other = workloads.make_inputs(workload, 8, 20)
    assert first.flaps == again.flaps and first.flap_phase == again.flap_phase
    assert (first.flaps, first.flap_phase) != (other.flaps, other.flap_phase)
    zipf = workloads.WORKLOADS["switched_chain"]
    orders = [
        [t.flow_key for t in
         workloads.make_inputs(zipf, seed, 20).profile.templates]
        for seed in (1, 1, 2)
    ]
    assert orders[0] == orders[1] != orders[2]


def run_main(capsys, monkeypatch, *argv):
    monkeypatch.setattr(workloads, "SETUPS", 1)
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_emits_declared_metrics(name, trace, capsys, monkeypatch):
    code, result = run_main(capsys, monkeypatch, "--workload", name,
                            "--seed", "5", "--seconds", TINY,
                            "--trace", trace)
    spec = load_spec()
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and code == 0
    assert result["attempted"] >= 1
    if name == "rule_churn":
        # The known teardown stall: refused TX shows as paced loss.
        assert result["failed"] > 0
    else:
        assert result["failed"] == 0


def test_smoke_command_passes_the_gate():
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bypass_chain",
         "--seed", "3", "--seconds", TINY, "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["setup_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bypass_chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_tracer_self_time_and_restore():
    original_outer = _Layer.__dict__["outer"]
    tracer = spans.Tracer()
    tracer._wrap("x.outer", _Layer, "outer", None)
    tracer._wrap("y.inner", _Layer, "inner", None)
    assert _Layer().outer() == 2
    tracer.uninstall()
    assert _Layer.__dict__["outer"] is original_outer
    snap = tracer.snapshot()
    assert snap["calls"] == {"x.outer": 1, "y.inner": 1}
    inner_span, outer_span = tracer.spans
    assert inner_span[3] == tracer.names.index("x.outer")
    assert outer_span[3] == -1
    outer_duration = outer_span[2] - outer_span[1]
    inner_duration = inner_span[2] - inner_span[1]
    assert snap["self_s"]["x.outer"] == pytest.approx(
        outer_duration - inner_duration)
