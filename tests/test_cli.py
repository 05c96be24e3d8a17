import json
import subprocess
import sys

import pytest

from qhalf.cli import (
    KINDS,
    RunResult,
    UsageError,
    emit_plotdata,
    list_presets,
    load_preset,
    main,
    read_report,
    run,
    validate_config,
)


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_every_preset_is_well_formed():
    presets = dict(list_presets())
    assert len(presets) >= 14
    for name, cfg in presets.items():
        validate_config(cfg)
        assert cfg["kind"] in KINDS
        # report files are named by the label; keep it equal to the
        # preset name so --out directories stay collision-free
        assert cfg["label"] == name


def test_load_preset_unknown_name():
    with pytest.raises(UsageError):
        load_preset("no-such-preset")


def test_list_presets_command(capsys):
    assert main(["--list-presets"]) == 0
    out = capsys.readouterr().out
    assert "zeros-annulus-n0" in out
    assert "metric-suite" in out


def test_negative_q_is_usage_error(tmp_path):
    cfg = {"kind": "solve", "domain": {"h": 0.0625}, "Q": -3,
           "data": {"generator": "linear"}}
    rc = main(["solve", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path)])
    assert rc == 2


def test_scalar_solve_beyond_six_sheets(tmp_path):
    # scalar sheets are matched by rank, so no sheet count is out of reach
    cfg = {"kind": "solve", "label": "q7", "domain": {"h": 0.0625}, "Q": 7,
           "data": {"generator": "linear"}, "checks": [{"type": "converged"}]}
    rc = main(["solve", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path / "q7-report.json")
    assert report["summary"]["Q"] == 7
    assert report["summary"]["converged"] is True


def test_unknown_field_is_usage_error(tmp_path):
    cfg = {"kind": "metric-suite", "sede": 3}
    rc = main(["metric-suite", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path)])
    assert rc == 2


def test_command_line_misuse(tmp_path):
    cfg_file = write_config(tmp_path, {"kind": "metric-suite", "pairs": 5})
    # kind mismatch between the command line and the config
    assert main(["zeros", "--config", cfg_file]) == 2
    # neither and both sources
    assert main(["zeros"]) == 2
    assert main(["zeros", "--config", cfg_file, "--preset", "metric-suite"]) == 2
    # missing kind
    assert main(["--config", cfg_file]) == 2
    assert main(["zeros", "--preset", "no-such-preset"]) == 2


def test_zeros_preset_end_to_end(tmp_path):
    rc = main(["zeros", "--preset", "zeros-annulus-n0", "--out", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path / "zeros-annulus-n0-report.json")
    assert report["passed"]
    assert all(c["ok"] for c in report["checks"])
    lines = (tmp_path / "zeros-annulus-n0-zeros.csv").read_text().splitlines()
    assert lines[0] == "ring,re,im,re_predicted,im_predicted"
    assert len(lines) == 5  # four zeros on the unit ring


def test_report_deterministic_modulo_header(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    cfg = {"kind": "metric-suite", "label": "mini", "seed": 3, "pairs": 40}
    assert run(cfg, out_dir=str(d1)) == 0
    assert run(cfg, out_dir=str(d2)) == 0
    r1 = (d1 / "mini-report.json").read_text().splitlines()
    r2 = (d2 / "mini-report.json").read_text().splitlines()
    assert r1[0].startswith("# generated ")
    assert r1[1:] == r2[1:]


def test_seed_changes_the_numbers(tmp_path):
    cfg = {"kind": "metric-suite", "label": "mini", "pairs": 40}
    run(cfg, out_dir=str(tmp_path / "a"), seed=3)
    run(cfg, out_dir=str(tmp_path / "b"), seed=4)
    a = read_report(tmp_path / "a" / "mini-report.json")
    b = read_report(tmp_path / "b" / "mini-report.json")
    assert a["passed"] and b["passed"]
    assert a["seed"] == 3 and b["seed"] == 4
    va = [c["value"] for c in a["checks"]]
    vb = [c["value"] for c in b["checks"]]
    assert va != vb


def test_frequency_series_columns(tmp_path):
    rc = main(["frequency", "--preset", "frequency-linear",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "frequency-linear-frequency.csv").read_text().splitlines()
    assert lines[0] == "r,D,H,E,Gq,I"
    assert len(lines) > 10


def test_two_circles_series_columns(tmp_path):
    rc = main(["two-circles", "--preset", "two-circles", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "two-circles-density.csv").read_text().splitlines()
    assert lines[0] == "r,ratio"
    assert len(lines) == 11


def test_empty_series_writes_header_only(tmp_path):
    result = RunResult({"checks": []}, {"frequency": (["r", "D"], [])})
    files = emit_plotdata(result, str(tmp_path), "empty")
    text = (tmp_path / files["frequency"]).read_text()
    assert text == "r,D\n"


def test_pipeline_failure_writes_error_report(tmp_path):
    # spacing too coarse for the disk: domain construction must fail
    cfg = {"kind": "solve", "label": "coarse", "domain": {"h": 0.5}, "Q": 1,
           "data": {"generator": "quadratic-harmonic"}}
    rc = run(cfg, out_dir=str(tmp_path))
    assert rc == 1
    report = read_report(tmp_path / "coarse-report.json")
    assert not report["passed"]
    assert report["error"]["type"] == "ConstructionError"
    assert "grid spacing" in report["error"]["message"]


def test_expected_failure_inverts_exit_code(tmp_path):
    control = load_preset("monotonicity-control")
    assert control["checks"][0]["expect"] == "fail"
    assert run(control, out_dir=str(tmp_path)) == 0
    report = read_report(tmp_path / "monotonicity-control-report.json")
    assert report["checks"][0]["observed"] == "fail"
    # the same pipeline demanded to pass must come back as a failure
    control["checks"][0]["expect"] = "pass"
    control["label"] = "control-strict"
    assert run(control, out_dir=str(tmp_path)) == 1


def test_bad_generator_params_are_usage_errors(tmp_path):
    cfg = {"kind": "frequency", "domain": {"h": 0.0625}, "Q": 2,
           "data": {"generator": "linear", "params": {"slop": 2.0}},
           "source": "sample", "checks": []}
    with pytest.raises(UsageError):
        run(cfg, out_dir=str(tmp_path))


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qhalf.cli", "--list-presets"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "collapse-refinement" in proc.stdout
