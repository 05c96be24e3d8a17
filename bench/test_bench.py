"""Self-test of the benchmark: the gate catches a wrong minimum, and every
declared metric is printed with its unit.

    python3 -m pytest -q bench/test_bench.py

Each case runs the real benchmark loop on the solve-classical preset
alone (about ten seconds in all), so a wrong reference is caught the way a
solver regression would be.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

ARGS = ["--workload", "preset-mix", "--seed", "1", "--seconds", "0"]


@pytest.fixture
def one_preset(monkeypatch):
    monkeypatch.setattr(workloads, "make_runs", lambda name, seed: [
        {"config": workloads.load_preset("solve-classical"), "seed": seed}])


def bench(capsys, trace):
    assert run.main(ARGS + ["--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def assert_every_metric_printed(result, lines, declared):
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(ln.startswith(f"{name} ") and ln.endswith(f" {unit}")
                   for ln in lines), name


def test_wrong_reference_raises_fail_share(one_preset, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "load_references",
                        lambda: {"solve-classical": {"energy": 1.0}})
    result, lines = bench(capsys, trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["pass_share"]["value"] == 0.0
    assert any(ln.startswith("# fail_share 1.0000") for ln in lines)
    assert_every_metric_printed(result, lines, run.declared_metrics()[0])


def test_traced_run_prints_every_layer(one_preset, capsys):
    result, lines = bench(capsys, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["solver.sweeps"]["value"] > 0
    assert_every_metric_printed(result, lines, run.declared_metrics()[1])


def test_gate_accepts_reference_and_rejects_a_shifted_one():
    refs = workloads.load_references()
    report = {"label": "collapse-refinement", "passed": True,
              "summary": {"levels": refs["collapse-refinement"]["levels"]}}
    assert workloads.gate(report, 0, refs) == []
    shifted = json.loads(json.dumps(refs))
    shifted["collapse-refinement"]["levels"][2]["energy"] *= 1 + 1e-7
    [miss] = workloads.gate(report, 0, shifted)
    assert miss.startswith("h=1/128 energy 7.810048084879064 != 7.81004")
    assert workloads.gate(report, 1, refs) == ["exit 1"]
