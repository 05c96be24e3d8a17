"""Acceptance suite: one test per headline property of the package.

Every test drives a shipped preset through the experiment runner, then
re-asserts the quantitative claim from the report values, so each line
of the pytest output is one pass/fail verdict and the numbers behind it
live in version-controlled configs.
"""

import pytest


@pytest.fixture
def run_preset(preset_run):
    """run_preset(name) -> (exit code, report, seconds); one run per session."""
    return lambda name: preset_run(name)[:3]


def by_name(report):
    return {c["name"]: c for c in report["checks"]}


@pytest.fixture
def refinement(run_preset):
    """Shared three-grid collapsed solve; two criteria read from it."""
    return run_preset("collapse-refinement")


def test_criterion_01_metric_oracle_suite(run_preset):
    rc, report, elapsed = run_preset("metric-suite")
    assert rc == 0
    checks = by_name(report)
    assert checks["assignment-matches-bruteforce"]["value"] <= 1e-12
    assert checks["triangle-inequality"]["value"] <= 1e-10
    assert checks["symmetry"]["ok"]
    assert checks["self-distance-zero"]["ok"]
    assert report["summary"]["pairs"] == 1000
    assert report["summary"]["max_q"] == 6
    assert report["summary"]["max_n"] == 4
    assert elapsed < 10.0


def test_criterion_02_classical_limit_solve(run_preset):
    rc, report, elapsed = run_preset("solve-classical")
    assert rc == 0
    assert report["summary"]["Q"] == 1
    assert report["summary"]["h"] == 1.0 / 64
    assert by_name(report)["matches-direct-solve"]["value"] <= 1e-8
    assert elapsed < 30.0


def test_criterion_03_collapse_under_refinement(refinement):
    rc, report, elapsed = refinement
    assert rc == 0
    levels = report["summary"]["levels"]
    assert [lv["h"] for lv in levels] == [1.0 / 32, 1.0 / 64, 1.0 / 128]
    assert all(lv["converged"] for lv in levels)
    # The collapsed scalar solve starts at the minimizer; sweeps certify it.
    assert all(lv["sweeps"] <= 2 for lv in levels)
    assert all(lv["stop_reason"] == "update_stop" for lv in levels)
    spreads = [lv["sheet_spread"] for lv in levels]
    defects = [lv["harmonic_defect"] for lv in levels]
    assert spreads[0] > spreads[1] > spreads[2]
    assert defects[0] > defects[1] > defects[2]
    osc = levels[-1]["oscillation"]
    assert spreads[-1] <= 0.02 * osc
    assert levels[-1]["odd_defect"] <= 0.02 * osc
    assert elapsed < 300.0


def test_criterion_04_outer_variation_identity(refinement):
    _, report, _ = refinement
    row = by_name(report)["outer-identity-refinement"]
    assert row["ok"]
    assert row["value"] <= 0.05        # worst |D - E| / D on the finest grid
    assert row["shrink"] >= 1.5        # improvement from the coarser grid
    assert row["coarse"] > row["value"]


def test_criterion_05_homogeneous_frequencies(run_preset):
    rc, report, _ = run_preset("frequency-linear")
    assert rc == 0
    row = by_name(report)["frequency-near-1"]
    assert row["value"] <= 0.02
    assert row["homogeneity"] <= 0.01  # u(x/2) against 2^{-i0} u(x)
    rc, report, _ = run_preset("frequency-sqrt-branch")
    assert rc == 0
    row = by_name(report)["frequency-near-1.5"]
    assert row["value"] <= 0.03
    assert row["homogeneity"] <= 0.01


def test_criterion_06_almost_monotone_frequency(run_preset):
    rc, report, _ = run_preset("monotonicity-wavy")
    assert rc == 0
    row = by_name(report)["almost-monotone"]
    assert row["ok"] and row["value"] <= 0.02
    assert report["summary"]["kappa"] > 0.0
    # the drop map must fail the very same check
    rc, report, _ = run_preset("monotonicity-control")
    assert rc == 0
    row = by_name(report)["almost-monotone"]
    assert row["expect"] == "fail"
    assert row["observed"] == "fail"
    assert row["ok"]


def test_criterion_07_doubling_bounds(run_preset):
    rc, report, _ = run_preset("doubling-bounds")
    assert rc == 0
    row = by_name(report)["doubling-bounds"]
    assert row["h_pass"] and row["d_pass"] and row["range_pass"]
    assert row["pairs"] >= 100
    assert row["value"] <= 0.0         # worst overshoot outside the bounds


def test_criterion_08_zero_rings(run_preset):
    rc, report, elapsed = run_preset("zeros-three-rings")
    assert rc == 0
    assert len(report["checks"]) == 3
    for row in report["checks"]:
        assert row["ok"]
        assert row["count"] == 4
        assert row["value"] <= 1e-10
    assert report["summary"]["zeros_found"] == 12
    assert elapsed < 60.0


def test_criterion_09_flat_extension_decay(run_preset):
    rc, report, _ = run_preset("decay-orders")
    assert rc == 0
    checks = by_name(report)
    expected = 0.5 / 3.0
    for order in range(5):
        assert checks[f"order-{order}-tail-monotone"]["ok"]
        fitted = checks[f"order-{order}-exponent"]["value"]
        assert abs(fitted - expected) <= 0.2 * expected
    assert checks["order-0-envelope"]["ok"]


def test_criterion_10_densities(run_preset):
    rc, report, el_flat = run_preset("two-circles")
    assert rc == 0
    checks = by_name(report)
    assert checks["exact-value"]["value"] == 1.5
    assert abs(checks["ratio-limit"]["value"] - 1.5) <= 0.015
    assert checks["analytic-model"]["value"] <= 1e-4
    rc, report, el_surf = run_preset("density-suite")
    assert rc == 0
    checks = by_name(report)
    assert abs(checks["density-double-point"]["value"] - 1.5) <= 0.05 * 1.5
    assert checks["density-double-point"]["preimages"] == 2
    assert abs(checks["density-boundary"]["value"] - 0.5) <= 0.05 * 0.5
    assert abs(checks["density-interior"]["value"] - 1.0) <= 0.03
    assert checks["density-floor-on-boundary"]["value"] >= 0.49
    assert el_flat + el_surf < 300.0


def test_criterion_11_interpolation_estimate(run_preset):
    rc, report, _ = run_preset("interpolation-bound")
    assert rc == 0
    assert report["summary"]["pairs"] == 50
    assert report["summary"]["lams"] == [0.1, 0.2]
    assert report["summary"]["fitted_constant"] <= 20.0
