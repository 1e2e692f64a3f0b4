"""Tests of the benchmark itself: seeded inputs, exact counts, failing gates."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.load_program()
import workloads  # noqa: E402  (needs alphacf on the path first)
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
COUNTS = ("cf_core.digits", "series_eval.terms", "series_eval.trunc_checks",
          "fastgrid.points", "orbit_compare.steps")
# a few ops per workload: one full rotation of op kinds where there is one
SMALL = {"exact-audit": 2, "ball-eval": 2, "grid-scan": 3, "rational-orbits": 5}


def _traced(name, seed):
    n = SMALL[name]
    inputs = workloads.make_inputs(name, seed, n)
    tracer = Tracer()
    ops = run.Ops().run(workloads.WORKLOADS[name].op, inputs, tracer)
    metrics = workloads.layer_metrics(tracer.spans, n, tracer.spans, n)
    return inputs, ops, tracer.spans, {k: metrics[k] for k in COUNTS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_inputs_and_counts(name):
    inputs_a, ops_a, spans, counts_a = _traced(name, 7)
    inputs_b, ops_b, _, counts_b = _traced(name, 7)
    assert [repr(i) for i in inputs_a] == [repr(i) for i in inputs_b]
    assert counts_a == counts_b
    assert any(counts_a.values())
    assert ops_a.failures == ops_b.failures == []
    # spans link to their parent, which belongs to the same op
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"] == "op":
            assert s["parent"] is None
        else:
            assert by_id[s["parent"]]["op"] == s["op"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_other_seed_other_inputs(name):
    a = workloads.make_inputs(name, 7, 6)
    b = workloads.make_inputs(name, 8, 6)
    assert [repr(i) for i in a] != [repr(i) for i in b]


def test_broken_gate_counts_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "GAP_GATE", 0.0)
    inputs = workloads.make_inputs("exact-audit", 7, 1)
    ops = run.Ops().run(workloads.WORKLOADS["exact-audit"].op, inputs, Tracer())
    assert ops.failures == ["op 0: gate failed"]


def test_raising_op_counts_as_failed():
    good = workloads.make_inputs("rational-orbits", 7, 2)
    bad = workloads.Input(2, "rational", good[0].alphas, Fraction(3, 4))
    ops = run.Ops().run(workloads.WORKLOADS["rational-orbits"].op,
                        good + [bad], Tracer())
    assert len(ops.latencies) == 3
    assert ops.failures == ["op 2: OutOfDomain: matched orbits start from "
                            "x in [0, 1/2]"]


def test_benchmark_json_matches_output():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        workloads.LAYER_UNITS


def test_latencies_scale_with_host_speed():
    ops = run.Ops()
    ops.starts = [10.0, 11.0, 12.5]
    ops.latencies = [0.5, 0.5, 0.5]
    # the first 2 s window ran at reference speed, the second at half of it
    ref = run.CALIB_REF_S
    ops.calibs = [(10.5, ref), (11.5, ref), (13.0, 2 * ref)]
    assert ops.scaled_latencies() == pytest.approx([0.5, 0.5, 0.25])


def test_end_to_end_result_line(capsys):
    run.main(["--workload", "rational-orbits", "--seed", "3",
              "--seconds", "0.2", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert json.loads(lines[-2])["info"]["fail_frac"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "exact-audit", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
