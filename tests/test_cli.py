import inspect
import json
import math
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qhalf import cli
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
from qhalf.data_maps import GENERATORS, custom_coefficients
from qhalf.frequency import frequency_scan
from qhalf.solver import minimize, sample_map


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


def test_load_preset_unknown_name(capsys):
    # the schema sits beside the presets but is not one
    for name in ("no-such-preset", "config.schema"):
        with pytest.raises(UsageError, match="unknown preset"):
            load_preset(name)
        assert main(["zeros", "--preset", name]) == 2
        assert "unknown preset" in capsys.readouterr().err


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
    cfg_file = write_config(tmp_path, {"kind": "metric-suite"})
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
    cfg = {"kind": "metric-suite", "label": "mini", "seed": 3}
    assert run(cfg, out_dir=str(d1)) == 0
    assert run(cfg, out_dir=str(d2)) == 0
    r1 = (d1 / "mini-report.json").read_text().splitlines()
    r2 = (d2 / "mini-report.json").read_text().splitlines()
    assert r1[0].startswith("# generated ")
    assert r1[1:] == r2[1:]


def test_seed_changes_the_numbers(tmp_path):
    cfg = {"kind": "metric-suite", "label": "mini"}
    run(cfg, out_dir=str(tmp_path / "a"), seed=3)
    run(cfg, out_dir=str(tmp_path / "b"), seed=4)
    a = read_report(tmp_path / "a" / "mini-report.json")
    b = read_report(tmp_path / "b" / "mini-report.json")
    assert a["passed"] and b["passed"]
    assert a["seed"] == 3 and b["seed"] == 4
    va = [c["value"] for c in a["checks"]]
    vb = [c["value"] for c in b["checks"]]
    assert va != vb


@pytest.mark.parametrize("kind, preset", [("metric-suite", "metric-suite"),
                                          ("zeros", "zeros-three-rings")])
def test_negative_seed_override_fails_before_any_work(tmp_path, monkeypatch,
                                                      kind, preset):
    def no_work(cfg):
        raise AssertionError("pipeline work started before validation")

    monkeypatch.setitem(cli.KINDS, kind, cli.KINDS[kind]._replace(run=no_work))
    with pytest.raises(UsageError) as err:
        run(load_preset(preset), out_dir=str(tmp_path), seed=-1)
    assert err.value.path == "seed"
    assert main([kind, "--preset", preset, "--seed", "-1",
                 "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_converged_bound_defaults_to_the_solver_default(tmp_path):
    cfg = {"kind": "solve", "label": "default-stop", "domain": {"h": 1 / 16},
           "Q": 2, "data": {"generator": "linear"},
           "checks": [{"type": "converged"}]}
    assert run(cfg, out_dir=str(tmp_path)) == 0
    row = read_report(tmp_path / "default-stop-report.json")["checks"][0]
    assert row["name"] == "solver-converged"
    assert row["bound"] == 1e-12


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


@pytest.mark.parametrize("r_inner, r_outer",
                         [(1e-200, 2.5), (1e-200, 2.5e-200), (1e200, 2.5e200)])
def test_two_circles_rows_pass_at_any_scale(tmp_path, r_inner, r_outer):
    # The ratio does not depend on scale, but (0.005 r_inner)^2 under- or
    # overflows at these radii unless it is taken in units of r_inner.
    cfg = dict(load_preset("two-circles"), r_inner=r_inner, r_outer=r_outer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(cfg, out_dir=str(tmp_path)) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    report = read_report(tmp_path / "two-circles-report.json")
    assert len(report["checks"]) == 4
    assert all(row["ok"] for row in report["checks"])


def test_empty_series_writes_header_only(tmp_path):
    result = RunResult({"checks": []}, {"frequency": (["r", "D"], [])})
    files = emit_plotdata(result, str(tmp_path), "empty")
    text = (tmp_path / files["frequency"]).read_text()
    assert text == "r,D\n"


def test_pipeline_failure_writes_error_report(tmp_path, monkeypatch):
    # a valid config whose sampled field is made to vanish everywhere, so H
    # vanishes at every radius and the scan fails mid-pipeline (no config
    # gives this field)
    def zero_map(dom, data):
        zero = [(1, 0.0, 0.0)]
        return sample_map(dom, custom_coefficients(
            [[zero] * data.Q, [zero] * (data.Q - 1)], phi_coeffs=[]))

    monkeypatch.setattr("qhalf.cli.sample_map", zero_map)
    cfg = {"kind": "frequency", "label": "flat", "domain": {"h": 1 / 64},
           "Q": 2, "data": {"generator": "linear"}, "source": "sample"}
    validate_config(cfg)
    rc = run(cfg, out_dir=str(tmp_path))
    assert rc == 1
    report = read_report(tmp_path / "flat-report.json")
    assert not report["passed"]
    assert report["error"]["type"] == "ResolutionError"
    assert "no radius produced a usable annulus" in report["error"]["message"]


def test_decreasing_rows_on_a_ladder_at_solver_precision(tmp_path):
    # Equal linear sheets collapse exactly on every grid: spread and defect
    # sit at rounding level on both, the largest step is 0.0, and a ladder
    # with nothing left to decrease passes.
    flat = {"kind": "collapse", "label": "flat", "Q": 3,
            "domain": {"h_values": [1 / 16, 1 / 32]}, "data": _LINEAR,
            "checks": [{"type": "spread-decreasing"},
                       {"type": "defect-decreasing"}]}
    assert run(flat, out_dir=str(tmp_path)) == 0
    report = read_report(tmp_path / "flat-report.json")
    for lv in report["summary"]["levels"]:
        assert max(lv["sheet_spread"], lv["harmonic_defect"]) \
            <= cli.SOLVER_PRECISION
    assert [(c["name"], c["ok"]) for c in report["checks"]] == [
        ("spread-decreasing", True), ("defect-decreasing", True)]
    # a ladder above solver precision must still decrease: coarsening the
    # refinement data grows the spread and the defect
    grows = dict(flat, label="grows",
                 data=load_preset("collapse-refinement")["data"],
                 domain={"h_values": [1 / 32, 1 / 16]})
    assert run(grows, out_dir=str(tmp_path)) == 1
    report = read_report(tmp_path / "grows-report.json")
    assert [c["ok"] for c in report["checks"]] == [False, False]


def test_collapse_levels_follow_the_config_order(tmp_path):
    # The ladder is solved finest first but reported in config order, each
    # level bit for bit as its own one-level run reports it.
    base = {"kind": "collapse", "Q": 3,
            "data": load_preset("collapse-refinement")["data"]}
    hs = [1 / 16, 1 / 24, 1 / 32]

    def levels(label, h_values):
        run(dict(base, label=label, domain={"h_values": h_values}),
            out_dir=str(tmp_path))
        return read_report(tmp_path / f"{label}-report.json")["summary"]["levels"]

    solo = {h: levels(f"solo-{i}", [h])[0] for i, h in enumerate(hs)}
    for label, order in (("coarse-first", hs), ("fine-first", hs[::-1])):
        assert levels(label, order) == [solo[h] for h in order]


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


def test_runs_import_neither_scipy_optimize_nor_spatial(tmp_path):
    # A fresh interpreter runs a zeros, a density and a graph-interface
    # frequency preset (the last bisects the interface's crossing angles);
    # the package needs scipy only for its sparse factorizations, and
    # validates configs without jsonschema and its dependencies.
    code = (
        "import sys\n"
        "from qhalf import cli\n"
        "for name in ('zeros-three-rings', 'density-suite',"
        " 'monotonicity-wavy'):\n"
        "    assert cli.run(cli.load_preset(name), sys.argv[1]) == 0, name\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('scipy.optimize', 'scipy.spatial'))"
        " or m.split('.')[0] in ('jsonschema', 'referencing', 'attrs', 'attr')))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("check", [{"type": "monotonicity"},
                                   {"type": "doubling"},
                                   {"type": "i-value", "target": 1.0}])
def test_scan_without_reliable_radius_fails(tmp_path, check):
    # every radius in [0.1, 0.2] is thinner than 8 cells at h = 1/64, so
    # there is nothing to check; the config is refused before any work
    cfg = {"kind": "frequency", "label": "thin", "domain": {"h": 1 / 64},
           "Q": 2, "data": {"generator": "linear"}, "source": "sample",
           "scan": {"r_max": 0.2, "r_min": 0.1}, "checks": [check]}
    with pytest.raises(UsageError) as err:
        run(cfg, out_dir=str(tmp_path))
    assert err.value.path == "scan.r_max"
    assert main(["frequency", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "thin-report.json").exists()


def test_oversized_grid_is_usage_error(tmp_path, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("grid built before the size check")

    monkeypatch.setattr("qhalf.cli.build_halfdisk", no_build)
    solve = {"kind": "solve", "domain": {"h": 1 / 512}, "Q": 1,
             "data": {"generator": "linear"}}
    collapse = {"kind": "collapse", "Q": 3, "data": {"generator": "linear"},
                "domain": {"h_values": [1 / 32, 1 / 512]}}
    for cfg, path in ((solve, "domain.h"), (collapse, "domain.h_values.1")):
        with pytest.raises(UsageError) as err:
            validate_config(cfg)
        assert err.value.path == path
        rc = main([cfg["kind"], "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
    # R/h = 511 is the largest accepted bounding grid
    validate_config(dict(solve, domain={"h": 1 / 511}))
    validate_config(dict(collapse, domain={"h_values": [1 / 32, 1 / 511]}))


def test_oversized_sheet_count_is_usage_error(tmp_path, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("grid built before the size check")

    monkeypatch.setattr("qhalf.cli.build_halfdisk", no_build)
    big = {"kind": "solve", "domain": {"h": 1 / 32}, "Q": 10**6,
           "data": {"generator": "linear"}}
    with pytest.raises(UsageError) as err:
        validate_config(big)
    assert err.value.path == "Q"
    rc = main([big["kind"], "--config", write_config(tmp_path, big),
               "--out", str(tmp_path)])
    assert rc == 2
    validate_config(dict(big, Q=7, domain={"h": 1 / 16}))


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")


def _preset_plus(name, *checks):
    cfg = load_preset(name)
    cfg["checks"] = cfg.get("checks", []) + list(checks)
    return cfg


def _without_target():
    cfg = load_preset("frequency-linear")
    del cfg["checks"][0]["target"]
    return cfg


def _with_solver(name, **fields):
    cfg = load_preset(name)
    cfg["solver"] = dict(cfg.get("solver", {}), **fields)
    return cfg


def _wavy_interface(amplitude, wavenumber):
    cfg = load_preset("monotonicity-wavy")
    cfg["domain"] = dict(cfg["domain"], h=1 / 32, interface={
        "amplitude": amplitude, "wavenumber": wavenumber})
    return cfg


def _with_field(name, path, key, value):
    cfg = load_preset(name)
    target = cfg
    for part in filter(None, path.split(".")):
        target = target[int(part) if part.isdigit() else part]
    target[key] = value
    return cfg


# Bounds and sampling settings fixed beside the check that uses them: the
# schema has no field for them, so setting one (here to its fixed value) is
# an unknown field at its parent path.
_FIXED_FIELDS = [
    ("metric-suite", "", "pairs", 1000),
    ("metric-suite", "", "max_q", 6),
    ("metric-suite", "", "max_n", 4),
    ("metric-suite", "", "assignment_tol", 1e-12),
    ("metric-suite", "", "triangle_tol", 1e-10),
    ("collapse-refinement", "checks.1", "ratio", 0.02),
    ("collapse-refinement", "checks.4", "shrink_min", 1.5),
    ("doubling-bounds", "checks.0", "lam", 1.2),
    ("interpolation-bound", "", "pairs", 50),
    ("interpolation-bound", "", "lams", [0.1, 0.2]),
    ("interpolation-bound", "", "c_max", 20.0),
    ("interpolation-bound", "", "degree_max", 3),
    ("interpolation-bound", "", "amplitude", 1.0),
    ("zeros-annulus-n0", "", "annuli", [{"r_lo": 0.5, "r_hi": 2.0}]),
    ("zeros-three-rings", "", "ring_pad", 2.0),
    ("zeros-three-rings", "", "match_tol", 1e-10),
    ("decay-orders", "", "orders", [0, 1, 2, 3, 4]),
    ("decay-orders", "", "exponent_rtol", 0.2),
    ("density-suite", "", "depth", 8),
    ("two-circles", "", "limit_tol", 0.01),
    ("two-circles", "", "model_tol", 1e-4),
]


def _one_density_point(**fields):
    """density-suite measuring one point: the interior point with fields."""
    cfg = load_preset("density-suite")
    point = {k: v for k, v in cfg["points"][2].items() if k != "z"}
    return dict(cfg, points=[{**point, **fields}])


_SINE = {"amplitude": 0.05, "wavenumber": 3}
_SINE_CURLED = {"amplitude": 0.05, "wavenumber": 6}
_LINEAR = {"generator": "linear"}
GUARD_CASES = [
    ("frequency-check-on-collapse-kind",
     _preset_plus("collapse-refinement", {"type": "monotonicity"}),
     "checks.5.type"),
    ("collapse-check-on-frequency-kind",
     _preset_plus("monotonicity-wavy", {"type": "spread-max"}),
     "checks.1.type"),
    ("frequency-check-on-solve-kind",
     _preset_plus("solve-classical", {"type": "doubling"}), "checks.2.type"),
    ("classical-reference-q3",
     {"kind": "solve", "domain": {"h": 1 / 16}, "Q": 3, "data": _LINEAR,
      "checks": [{"type": "converged"}, {"type": "classical-reference"}]},
     "checks.1.type"),
    ("odd-defect-on-sine-wave",
     {"kind": "collapse", "Q": 2, "data": _LINEAR,
      "domain": {"h_values": [1 / 16, 1 / 32], "interface": _SINE},
      "checks": [{"type": "odd-defect-vs-oscillation"}]},
     "checks.0.type"),
    ("identity-refinement-one-spacing",
     _preset_plus("collapse-q3-linear", {"type": "outer-identity-refinement"}),
     "checks.1.type"),
    ("interpolation-bound-mix",
     _preset_plus("interpolation-bound", {"type": "converged"},
                  {"type": "classical-reference"}),
     "checks"),
    ("i-value-without-target", _without_target(), "checks.0"),
    ("unknown-kind", {"kind": "x"}, "kind"),
    ("solve-without-data",
     {"kind": "solve", "domain": {"h": 1 / 16}, "Q": 1,
      "checks": [{"type": "converged"}]},
     ""),
    ("frequency-without-h",
     {"kind": "frequency", "domain": {"h_values": [1 / 16]}, "Q": 2,
      "data": _LINEAR},
     "domain.h"),
    ("collapse-without-h-values",
     {"kind": "collapse", "domain": {"h": 1 / 16}, "Q": 3, "data": _LINEAR},
     "domain.h_values"),
    ("scan-r-min-above-r-max",
     dict(load_preset("monotonicity-wavy"), scan={"r_min": 0.8, "r_max": 0.3}),
     "scan.r_max"),
    ("scan-r-min-equals-r-max",
     dict(load_preset("frequency-linear"), scan={"r_min": 0.5, "r_max": 0.5}),
     "scan.r_max"),
    ("scan-r-min-above-default-r-max",
     dict(load_preset("frequency-linear"), scan={"r_min": 0.99}), "scan.r_min"),
    ("scan-r-max-below-default-r-min",
     dict(load_preset("frequency-linear"), scan={"r_max": 0.2}), "scan.r_max"),
    # r_min below 16 h is raised to it, above r_max = 0.2 at h = 1/64
    ("scan-r-max-below-resolvable-r-min",
     {"kind": "frequency", "domain": {"h": 1 / 64}, "Q": 2, "source": "sample",
      "data": _LINEAR, "scan": {"r_min": 0.1, "r_max": 0.2}},
     "scan.r_max"),
    ("scan-r-min-above-default-r-max-in-ladder",
     dict(load_preset("collapse-refinement"), scan={"r_min": 0.95}),
     "scan.r_min"),
    ("scan-defaults-cross",
     {"kind": "frequency", "domain": {"h": 1 / 16}, "Q": 2, "source": "sample",
      "data": _LINEAR},
     "domain.h"),
    ("spacing-above-r-over-8",
     {"kind": "solve", "domain": {"h": 0.5}, "Q": 1,
      "data": {"generator": "quadratic-harmonic"}},
     "domain.h"),
    ("spacing-r-over-8-in-ladder",
     {"kind": "collapse", "Q": 3, "data": _LINEAR,
      "domain": {"h_values": [1 / 16, 1 / 8]}},
     "domain.h_values.1"),
    ("bad-generator-params",
     {"kind": "frequency", "domain": {"h": 1 / 16}, "Q": 2, "source": "sample",
      "data": {"generator": "linear", "params": {"slop": 2.0}}},
     "data.params"),
    ("solver-collapsed-field",
     _with_solver("solve-classical", collapsed=False), "solver"),
    ("solver-init-collapsed",
     _with_solver("solve-classical", init="collapsed"), "solver.init"),
    ("solver-omega", _with_solver("solve-classical", omega=1.5), "solver"),
    ("solver-eps-stop", _with_solver("solve-classical", eps_stop=1e-12),
     "solver"),
    # the stop rule is the solver's: a config sets no stop
    ("solver-update-stop-zero", _with_solver("solve-classical", update_stop=0),
     "solver"),
    ("scan-rho", dict(load_preset("frequency-linear"), scan={"rho": 0.9}),
     "scan"),
    ("domain-min-angle",
     dict(load_preset("monotonicity-wavy"),
          domain=dict(load_preset("monotonicity-wavy")["domain"],
                      min_angle_deg=20.0)),
     "domain"),
    ("vector-data-on-collapse-kind",
     {"kind": "collapse", "domain": {"h_values": [1 / 16, 1 / 32]},
      "data": {"generator": "sqrt-branch"},
      "checks": [{"type": "spread-decreasing"}]},
     "data.generator"),
    ("vector-data-on-minimize-source",
     {k: v for k, v in load_preset("frequency-sqrt-branch").items()
      if k != "source"},
     "data.generator"),
    ("numeric-kappa", _with_field("monotonicity-wavy", "checks.0", "kappa", 0.5),
     "checks.0.kappa"),
    # a field its kind or check does not read would be ignored
    ("doubling-tol", _with_field("doubling-bounds", "checks.0", "tol", 0.1),
     "checks.0.tol"),
    ("doubling-target",
     _with_field("doubling-bounds", "checks.0", "target", 1.0),
     "checks.0.target"),
    ("i-value-kappa",
     _with_field("frequency-linear", "checks.0", "kappa", "calibrated"),
     "checks.0.kappa"),
    ("spread-decreasing-tol",
     _with_field("collapse-refinement", "checks.0", "tol", 0.1),
     "checks.0.tol"),
    ("surface-on-zeros",
     dict(load_preset("zeros-three-rings"), surface={"tau": 1.2}), ""),
    ("points-on-zeros",
     dict(load_preset("zeros-three-rings"),
          points=load_preset("density-suite")["points"]),
     "points"),
    ("Q-on-interpolation", dict(load_preset("interpolation-bound"), Q=2), "Q"),
    ("data-on-interpolation",
     dict(load_preset("interpolation-bound"), data=_LINEAR), "data"),
    ("solver-on-interpolation",
     dict(load_preset("interpolation-bound"), solver={"init": "mean"}),
     "solver"),
    ("custom-coefficients-generator",
     {"kind": "solve", "domain": {"h": 1 / 16},
      "data": {"generator": "custom-coefficients"}},
     "data.generator"),
    # Q is set at the top level only; params.Q would reach the generator
    ("params-Q",
     {"kind": "solve", "domain": {"h": 1 / 16},
      "data": {"generator": "linear", "params": {"Q": 0}}},
     "data.params"),
    ("params-amplitude-string",
     {"kind": "collapse", "Q": 2, "domain": {"h_values": [1 / 16]},
      "data": {"generator": "odd-cubic", "params": {"amplitude": "x"}}},
     "data.params.amplitude"),
    # 16h = 1 raises the given r_min = 0.1 past the default r_max = 0.75
    ("scan-r-min-raised-past-default-r-max",
     dict(load_preset("frequency-linear"), domain={"h": 1 / 16},
          scan={"r_min": 0.1}),
     "domain.h"),
    # a config holds only what the presets vary: alpha = 1/2, the surface's
    # shape, the two-circles point and radii, the frequency-drop crossover
    # and a plain outer-identity check are fixed, so setting one is refused
    ("surface-fillet-above-tau",
     dict(load_preset("density-suite"),
          surface={"alpha": 0.5, "tau": 1.2, "fillet": 1.5}),
     ""),
    ("surface-fillet-above-straight-x",
     dict(load_preset("density-suite"), surface={"tau": 2.0, "fillet": 1.7}),
     ""),
    ("alpha-on-decay", dict(load_preset("decay-orders"), alpha=0.5), ""),
    ("alpha-on-zeros", dict(load_preset("zeros-three-rings"), alpha=0.5), ""),
    ("two-circles-point", dict(load_preset("two-circles"), point=[1.0, 0.0]),
     ""),
    ("two-circles-radii", dict(load_preset("two-circles"), radii=[0.1, 0.05]),
     ""),
    ("frequency-drop-r-cross",
     _with_field("monotonicity-control", "data", "params", {"r_cross": 0.45}),
     "data.params"),
    ("outer-identity-on-frequency",
     dict(load_preset("frequency-linear"),
          checks=[{"type": "outer-identity"}]),
     "checks.0.type"),
    # json.load reads the literals NaN and Infinity, which the schema's
    # bounds let through; a NaN update_stop, which would never stop the
    # sweeps, is refused as any stop is
    ("solver-update-stop-nan",
     _with_solver("solve-classical", update_stop=math.nan), "solver"),
    ("density-z-infinite", _one_density_point(z=[math.inf, 1.0]),
     "points.0.z.0"),
    ("check-tol-nan",
     _with_field("frequency-linear", "checks.0", "tol", math.nan),
     "checks.0.tol"),
    # density_at would refuse each point mid-pipeline (exit 1)
    ("density-z-on-slit", _one_density_point(z=[-0.5, 0.0]), "points.0"),
    ("density-radius-reaches-another-sheet",
     _one_density_point(z=[0.0, 0.75], radii=[0.5]), "points.0"),
    # the touching point of ring -1 lies 8.07e-5 from the branch point image
    ("density-radius-reaches-branch-point",
     _one_density_point(z=[0.0, math.exp(-math.pi)], radii=[1e-3]),
     "points.0"),
    ("density-z-off-surface", _one_density_point(z=[5.0, 5.0]), "points.0"),
    # one spelling per input: a density point is a points entry given by
    # its z, and a Q = 1 field is sampled, so a theta_floor section, R^4
    # coords and the glued-plus source are refused
    ("density-floor-z-on-slit",
     dict(load_preset("density-suite"),
          theta_floor={"z_points": [[-0.5, 0.0]]}),
     ""),
    ("density-coords-off-surface",
     _one_density_point(coords=[5.0, 5.0, 5.0, 5.0]), "points.0"),
    # two points of one name would write one series over the other
    ("density-point-name-repeated",
     dict(load_preset("density-suite"),
          points=[p | {"name": "a"} for p in
                  load_preset("density-suite")["points"][:2]]),
     "points.1.name"),
    ("glued-plus-source",
     dict(load_preset("monotonicity-control"), source="glued-plus"), "source"),
    # fields read only under a setting
    ("solver-on-sampled-frequency",
     dict(load_preset("frequency-linear"), solver={"init": "mean"}), "solver"),
    ("scan-on-collapse-without-refinement",
     dict(load_preset("collapse-q3-linear"), scan={"r_max": 0.6}), "scan"),
    ("two-circles-inner-above-outer",
     dict(load_preset("two-circles"), r_inner=3.0), "r_outer"),
    # build_halfdisk would refuse both mid-pipeline (exit 1): the first
    # meets the outer circle at 23.6 deg, the second snaps to rows that
    # jump by more than one between columns at h = 1/32
    ("interface-below-transversality", _wavy_interface(0.3, 30),
     "domain.interface"),
    ("interface-too-steep-for-grid", _wavy_interface(0.9, 3),
     "domain.interface"),
    # an interface is a sine wave and no interface is straight, so a
    # straight one's amplitude would be ignored
    ("interface-kind-straight",
     _with_field("solve-classical", "domain", "interface",
                 {"kind": "straight", "amplitude": 5}),
     "domain.interface"),
    # at wavenumber 6 the sine wave's curvature, 1.8, folds the tube
    # coordinates inside the unit disk
    ("interface-leaves-tube-frequency",
     {"kind": "frequency", "Q": 2, "source": "sample",
      "domain": {"h": 1 / 32, "interface": _SINE_CURLED},
      "data": {"generator": "quadratic-harmonic"},
      "checks": [{"type": "i-value", "target": 2.0}]},
     "domain.interface"),
    ("interface-leaves-tube-collapse",
     {"kind": "collapse", "Q": 2,
      "domain": {"h_values": [1 / 16, 1 / 32], "interface": _SINE_CURLED},
      "data": {"generator": "quadratic-harmonic"},
      "checks": [{"type": "outer-identity-refinement"}]},
     "domain.interface"),
    ("generator-without-q",
     {"kind": "solve", "domain": {"h": 1 / 16}, "data": _LINEAR}, "Q"),
    # ring n >= 4 matches its zeros only to 1.25e-10, n <= -5 cannot resolve
    # the winding: both would end in a failed check row (exit 1)
    ("zeros-ring-above-3", {"kind": "zeros", "rings": [4]}, "rings.0"),
    ("zeros-ring-below-minus-4", {"kind": "zeros", "rings": [-5]}, "rings.0"),
    # an integer is a JSON integer, not a float of integer value, which
    # the runners would refuse mid-pipeline (exit 1)
    ("q-integer-valued-float", dict(load_preset("solve-classical"), Q=1.0),
     "Q"),
    ("max-sweeps-integer-valued-float",
     _with_solver("solve-classical", max_sweeps=20000.0), "solver"),
    ("seed-integer-valued-float",
     dict(load_preset("interpolation-bound"), seed=1000.0), "seed"),
    # at h = 1/16 the 0.1 blend band spans fewer than two node layers
    ("interpolation-band-below-two-layers",
     _with_field("interpolation-bound", "", "domain", {"h": 1 / 16}),
     "domain.h"),
    # linear has no slope, so the zero map, which has no frequency to scan
    # and no oscillation to divide by, is out of reach
    ("slope-zero-frequency",
     _with_field("frequency-linear", "data", "params", {"slope": 0.0}),
     "data.params"),
    ("slope-zero-refinement",
     {"kind": "collapse", "Q": 3, "domain": {"h_values": [1 / 32, 1 / 64]},
      "data": {"generator": "linear", "params": {"slope": 0.0}},
      "checks": [{"type": "outer-identity-refinement"}]},
     "data.params"),
    ("slope-zero-oscillation-ratio",
     {"kind": "collapse", "Q": 2, "domain": {"h_values": [1 / 16, 1 / 32]},
      "data": {"generator": "linear", "params": {"slope": -0.0}},
      "checks": [{"type": "odd-defect-vs-oscillation"}]},
     "data.params"),
    # a config states no value the code states: each field below, set to
    # the value a preset gave it, now has that value fixed in the code
    ("domain-R", _with_field("solve-classical", "domain", "R", 1.0), "domain"),
    ("params-slope",
     _with_field("frequency-linear", "data", "params", {"slope": 1.0}),
     "data.params"),
    ("solver-update-stop", _with_solver("solve-classical", update_stop=1e-12),
     "solver"),
    ("solver-max-sweeps", _with_solver("solve-classical", max_sweeps=50000),
     "solver"),
    ("spread-max-tol",
     _with_field("collapse-q3-linear", "checks.0", "tol", 1e-8), "checks.0.tol"),
    ("classical-reference-tol",
     _with_field("solve-classical", "checks.1", "tol", 1e-8), "checks.1.tol"),
    ("outer-identity-refinement-tol",
     _with_field("collapse-refinement", "checks.4", "tol", 0.05),
     "checks.4.tol"),
    ("monotonicity-tol",
     _with_field("monotonicity-wavy", "checks.0", "tol", 0.02), "checks.0.tol"),
] + [(f"{name}-{key}", _with_field(name, path, key, value), path)
     for name, path, key, value in _FIXED_FIELDS]


@pytest.mark.parametrize("cfg, path", [c[1:] for c in GUARD_CASES],
                         ids=[c[0] for c in GUARD_CASES])
def test_config_rules_fail_before_any_work(tmp_path, monkeypatch, cfg, path):
    def no_work(*args, **kwargs):
        raise AssertionError("pipeline work started before validation")

    for name in ("minimize", "build_halfdisk", "sample_map",
                 "interpolate_annulus", "density_at"):
        monkeypatch.setattr(f"qhalf.cli.{name}", no_work)
    with pytest.raises(UsageError) as err:
        validate_config(cfg)
    assert err.value.path == path
    try:
        rc = main([cfg["kind"], "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
    except SystemExit as exc:  # argparse refuses a kind KINDS does not list
        rc = exc.code
    assert rc == 2


_FREQ = {"kind": "frequency", "Q": 2, "domain": {"h": 1 / 16}, "data": _LINEAR}
_POINT = {"name": "a", "z": [0, 1, 2], "radii": [], "expect": 0.5, "tol": 0.1}


# Each schema refusal, path and message is the one jsonschema 4.26.0's
# best_match picks: the shallowest path, then the largest path, then the
# first. The schema states shapes only, so an unknown field is refused
# before the kind's needs are read (untyped-node), and the CHECKS table
# refuses a missing target in the schema's words (untyped-node-in-check).
@pytest.mark.parametrize("cfg, path, message", [
    ({"kind": "zeros", "rings": [9], "sede": 1}, "",
     "Additional properties are not allowed ('sede' was unexpected)"),
    (dict(_FREQ, checks=[{"type": "i-value", "target": 1.0, "tol": 0},
                         {"type": "i-value", "target": 1.0, "tol": -1}]),
     "checks.1.tol", "-1 is less than or equal to the minimum of 0"),
    ({"kind": "density", "points": [_POINT]}, "points.0.z",
     "[0, 1, 2] is too long"),
    ({"kind": "solve", "sede": 1}, "",
     "Additional properties are not allowed ('sede' was unexpected)"),
    (dict(_FREQ, checks=[{"type": "i-value", "kappa": "calibrated"}]),
     "checks.0", "'target' is a required property"),
    (dict(_FREQ, Q=0.5), "Q", "0.5 is not of type 'integer'"),
    (dict(_FREQ, Q=True), "Q", "True is not of type 'integer'"),
    (dict(_FREQ, domain={"h": -1}), "domain.h",
     "-1 is less than or equal to the minimum of 0"),
    (dict(_FREQ, domain=3), "domain", "3 is not of type 'object'"),
    ({"label": "-x", "seed": -1}, "", "'kind' is a required property"),
], ids=["shallowest-path", "larger-index", "larger-key", "untyped-node",
        "untyped-node-in-check", "first-keyword", "bool-is-no-integer",
        "ref", "not-an-object", "no-kind"])
def test_schema_refusal_is_the_best_match(cfg, path, message):
    with pytest.raises(UsageError) as err:
        validate_config(cfg)
    assert (err.value.path, str(err.value)) == (path, message)


@pytest.mark.parametrize("keyword, value", [
    ("anyOf", [{"required": ["init"]}]),
    ("allOf", [{"required": ["init"]}]),
    ("if", {"required": ["init"]}),
    ("const", {}),
    ("additionalProperties", {"type": "number"}),
], ids=["anyOf", "allOf", "if", "const", "additionalProperties"])
def test_schema_walker_refuses_keywords_it_does_not_read(monkeypatch, keyword,
                                                         value):
    # A schema keyword the walker does not implement fails every
    # validation that reaches it, so the schema cannot outgrow it; the
    # conditional rules live in the KINDS and CHECKS tables instead.
    schema = json.loads(resources.files("qhalf").joinpath(
        "presets/config.schema.json").read_text())
    schema["$defs"]["solver"][keyword] = value
    monkeypatch.setattr(cli, "_SCHEMA", schema)
    validate_config(load_preset("zeros-three-rings"))
    with pytest.raises(NotImplementedError, match=keyword):
        validate_config(load_preset("solve-classical"))


# z over the region and beyond it, the slit x < 0 included
@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(-0.2, 3.2), st.floats(-1.6, 1.6),
       st.sampled_from([0.1, 0.05, 0.02, 0.005]))
def test_density_point_is_refused_at_its_path_or_measured(x, y, r):
    cfg = _one_density_point(z=[x, y], radii=[r, 0.7 * r])
    try:
        validate_config(cfg)
    except UsageError as exc:
        assert exc.path == "points.0"
        return
    # a fresh directory per example: hypothesis refuses the tmp_path fixture
    with tempfile.TemporaryDirectory() as out:
        assert run(cfg, out_dir=out) in (0, 1)
        report = read_report(Path(out) / "density-suite-report.json")
    assert "error" not in report


def test_field_tables_are_the_schema_fields():
    # validate_config refuses what the tables leave out, so a schema field
    # no kind or check reads could never be set.
    schema = json.loads(resources.files("qhalf").joinpath(
        "presets/config.schema.json").read_text())
    kinds = set(cli.COMMON_FIELDS).union(*(kind.needs + kind.reads
                                           for kind in KINDS.values()))
    assert set(schema["properties"]) == kinds
    checks = {"type", "expect"}.union(*(rule.fields
                                        for table in cli.CHECKS.values()
                                        for rule in table.values()))
    assert set(schema["$defs"]["check"]["properties"]) == checks
    params = set().union(*(inspect.signature(fn).parameters
                           for fn in GENERATORS.values()))
    assert set(schema["$defs"]["data"]["properties"]["params"]
               ["properties"]) == params - {"Q"}


def test_every_config_field_is_set_by_a_preset():
    # A config holds only what the presets vary: a field or check type no
    # shipped preset sets is a knob whose one value in use is its default.
    schema = json.loads(resources.files("qhalf").joinpath(
        "presets/config.schema.json").read_text())
    defs = schema["$defs"]
    presets = [cfg for _, cfg in list_presets()]

    def within(cfgs, key):
        return [c[key] for c in cfgs if key in c]

    domains, data = within(presets, "domain"), within(presets, "data")
    sections = {
        "top level": (schema["properties"], presets),
        "domain": (defs["domain"]["properties"], domains),
        "interface": (defs["interface"]["properties"],
                      within(domains, "interface")),
        "data": (defs["data"]["properties"], data),
        "params": (defs["data"]["properties"]["params"]["properties"],
                   within(data, "params")),
        "solver": (defs["solver"]["properties"], within(presets, "solver")),
        "scan": (defs["scan"]["properties"], within(presets, "scan")),
        "check": (defs["check"]["properties"],
                  [c for cfg in presets for c in cfg.get("checks", [])]),
        "point": (defs["point"]["properties"],
                  [p for cfg in presets for p in cfg.get("points", [])]),
    }
    for name, (fields, objects) in sections.items():
        unset = set(fields) - set().union(*objects)
        assert not unset, (name, unset)
    for kind, table in cli.CHECKS.items():
        used = {c["type"] for cfg in presets if cfg["kind"] == kind
                for c in cfg.get("checks", [])}
        assert not set(table) - used, (kind, set(table) - used)


def test_no_preset_restates_a_default_bound():
    # A check's bound is its CHECKS entry; a tol equal to it states the
    # same bound a second time.
    for name, cfg in list_presets():
        for i, check in enumerate(cfg.get("checks", [])):
            if "tol" in check:
                default = cli.CHECKS[cfg["kind"]][check["type"]].tol
                assert check["tol"] != default, (name, i, default)


def test_solver_and_scan_fields_are_the_keyword_parameters():
    # The runners pass these objects straight through as keywords, so a
    # field the function cannot take would fail mid-pipeline (exit 1).
    schema = json.loads(resources.files("qhalf").joinpath(
        "presets/config.schema.json").read_text())
    for name, fn in (("solver", minimize), ("scan", frequency_scan)):
        params = inspect.signature(fn).parameters.values()
        keywords = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
        assert set(schema["$defs"][name]["properties"]) == keywords, name
