"""Experiment driver: JSON configs, canned presets, reports, plot data.

Each experiment kind wires existing pieces into a pipeline (build domain,
solve or sample, scan, check) and reduces the outcome to a list of named
checks. Reports are JSON with sorted keys behind a single timestamp
header line, so two runs of the same config and seed agree byte for byte
below the first line. CSV series for plotting are written next to the
report.

validate_config checks every config rule before any work starts: the
schema, grid and sheet budgets, the boundary data, and the CHECKS table
of which check types each kind accepts and what they need. The runners
assume a valid config and have no error branches of their own.

Exit codes: 0 all checks passed, 1 a check or the pipeline itself
failed, 2 the config or command line is malformed.
"""

import argparse
import csv
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import jsonschema

from . import data_maps
from .domain import (
    BOUNDARY_PLUS,
    ConstructionError,
    InterfaceSpec,
    build_distance_field,
    build_halfdisk,
    check_interface,
    check_spacing,
    grid_half_width,
)
from .frequency import (
    DOUBLING_COLUMNS,
    calibrate_kappa,
    check_doubling_bounds,
    check_monotonicity,
    check_outer_identity,
    frequency_scan,
    homogeneity_defect,
    scan_bounds,
)
from .holomorphic import (
    MATCH_TOL,
    ZeroMatchError,
    derivative_decay_check,
    find_zeros_numeric,
    predicted_zeros_in_annulus,
)
from .qpoint import QPoint, g_distance, g_distance_bruteforce
from .solver import (
    UPDATE_STOP,
    GridField,
    collapse_decompose,
    harmonic_reference,
    interpolate_annulus,
    minimize,
    sample_map,
)
from .surface import (
    QUADTREE_DEPTH,
    build_surface,
    density_at,
    surface_image,
    two_circles_density,
)

# Largest bounding grid build_halfdisk may allocate: R/h <= 511, four
# times the finest shipped R/h of 128.
MAX_GRID_CELLS = 2**20
# Largest Q x (bounding grid cells) a run may allocate as sheet values,
# 64 MB of floats per array: Q = 8 on the largest accepted grid.
MAX_SHEET_VALUES = 2**23
# Largest relative |D - E| / D the outer-identity checks accept by default.
OUTER_IDENTITY_TOL = 0.05
# Largest sheet spread and odd defect, relative to the boundary oscillation,
# the collapse checks accept.
OSCILLATION_RATIO = 0.02

# The only list of check types: kind -> check type -> what the check needs
# beyond the schema (None: nothing). validate_config enforces it.
CHECKS = {
    "solve": {"converged": None, "classical-reference": "Q = 1",
              "interpolation-bound": "to be the only check"},
    "collapse": {"spread-decreasing": None, "spread-max": None,
                 "spread-vs-oscillation": None, "defect-decreasing": None,
                 "odd-defect-vs-oscillation": "a straight interface",
                 "outer-identity-refinement": "two or more grid spacings"},
    "frequency": {"i-value": None, "outer-identity": None,
                  "monotonicity": None, "doubling": None},
}


class UsageError(Exception):
    """Config or command-line problem; carries the offending field path."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path


@dataclass
class RunResult:
    report: dict
    series: dict = field(default_factory=dict)  # name -> (header, rows)


# ---------------------------------------------------------------------------
# config loading and validation

_SCHEMA = None


def _load_schema():
    global _SCHEMA
    if _SCHEMA is None:
        text = resources.files("qhalf").joinpath(
            "presets/config.schema.json").read_text()
        _SCHEMA = json.loads(text)
    return _SCHEMA


def validate_config(cfg):
    """Check every config rule before any work; raises UsageError with a path."""
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    validator = jsonschema.Draft202012Validator(_load_schema())
    err = jsonschema.exceptions.best_match(validator.iter_errors(cfg))
    if err is not None:
        path = ".".join(str(p) for p in err.absolute_path)
        raise UsageError(err.message, path)
    kind, dcfg = cfg["kind"], cfg.get("domain", {})
    spacing = {"solve": "h", "frequency": "h", "collapse": "h_values"}.get(kind)
    if spacing is not None and spacing not in dcfg:
        raise UsageError(f"{kind} needs domain.{spacing}", f"domain.{spacing}")
    spacings = [("domain.h", dcfg["h"])] if "h" in dcfg else []
    spacings += [(f"domain.h_values.{i}", h)
                 for i, h in enumerate(dcfg.get("h_values", []))]
    sheet_counts = [("Q", cfg["Q"])] if "Q" in cfg else []
    q_param = cfg.get("data", {}).get("params", {}).get("Q")
    if isinstance(q_param, int):
        sheet_counts.append(("data.params.Q", q_param))
    R = dcfg.get("R", 1.0)
    iface = _interface_from(dcfg.get("interface"))
    for path, h in spacings:
        try:
            check_spacing(R, h)
        except ConstructionError as exc:
            raise UsageError(str(exc), path)
        side = 2.0 * grid_half_width(R, h) + 1.0
        if side * side > MAX_GRID_CELLS:
            raise UsageError(f"grid spacing {h} needs a {side:.0f}^2 "
                             f"grid, above {MAX_GRID_CELLS} cells", path)
        for q_path, q in sheet_counts:
            if q * side * side > MAX_SHEET_VALUES:
                raise UsageError(f"Q={q} sheets on the {side:.0f}^2 grid of "
                                 f"{path} exceed {MAX_SHEET_VALUES} values",
                                 q_path)
        try:
            check_interface(iface, R, h)
        except ConstructionError as exc:
            raise UsageError(f"{exc} (at h={h:g})", "domain.interface")
    scan = cfg.get("scan", {})
    if scan.get("r_min", 0.0) >= scan.get("r_max", math.inf):
        raise UsageError("scan.r_min must be below scan.r_max", "scan.r_max")
    checks = cfg.get("checks", [])
    interp = any(c["type"] == "interpolation-bound" for c in checks)
    spec = _data_from(cfg) if spacing is not None and not interp else None
    solves = kind != "frequency" or cfg.get("source", "minimize") == "minimize"
    if spec is not None and solves and spec.n != 1:
        raise UsageError(f"generator {cfg['data']['generator']!r} yields "
                         f"n={spec.n}, but a solve takes scalar sheets (n=1)",
                         "data.generator")
    met = {None: True, "Q = 1": spec is not None and spec.Q == 1,
           "a straight interface": iface.kind == "straight",
           "two or more grid spacings": len(dcfg.get("h_values", [])) >= 2,
           "to be the only check": len(checks) == 1}
    table = CHECKS.get(kind, {})
    for i, ccfg in enumerate(checks):
        t = ccfg["type"]
        if t not in table:
            raise UsageError(f"check {t!r} does not apply to kind {kind!r}",
                             f"checks.{i}.type")
        if not met[table[t]]:
            raise UsageError(f"check {t!r} needs {table[t]}", f"checks.{i}.type")
    # A bound left out takes its default at each scanned spacing.
    refine = any(c["type"] == "outer-identity-refinement" for c in checks)
    scanned = {"frequency": spacings,
               "collapse": spacings[-2:] if refine else []}.get(kind, [])
    for path, h in scanned:
        r_min, r_max = scan_bounds(R, h, **scan)
        if r_min >= r_max:
            at = ("scan.r_max" if "r_max" in scan
                  else "scan.r_min" if "r_min" in scan else path)
            raise UsageError(f"scan radii r_min={r_min:g} and r_max={r_max:g} "
                             f"leave nothing to scan at h={h:g}", at)


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


def list_presets():
    """All shipped presets as (name, config) pairs, sorted by name."""
    out = []
    for entry in resources.files("qhalf").joinpath("presets").iterdir():
        if entry.name.endswith(".json") and entry.name != "config.schema.json":
            out.append((entry.name[:-5], json.loads(entry.read_text())))
    return sorted(out)


def load_preset(name):
    box = resources.files("qhalf").joinpath(f"presets/{name}.json")
    if not box.is_file():
        known = ", ".join(n for n, _ in list_presets())
        raise UsageError(f"unknown preset {name!r}; shipped presets: {known}")
    return json.loads(box.read_text())


# ---------------------------------------------------------------------------
# shared pipeline pieces

def _interface_from(icfg):
    if icfg is None or icfg["kind"] == "straight":
        return InterfaceSpec.straight()
    return InterfaceSpec.sine_wave(icfg["amplitude"], icfg["wavenumber"])


def _domain_from(dcfg, h):
    return build_halfdisk(R=dcfg.get("R", 1.0), h=h,
                          interface=_interface_from(dcfg.get("interface")))


def _data_from(cfg):
    dcfg = cfg.get("data")
    if dcfg is None:
        raise UsageError(f"kind {cfg['kind']!r} needs boundary data", "data")
    params = dict(dcfg.get("params", {}))
    name = dcfg["generator"]
    if "Q" in cfg and name in ("linear", "quadratic-harmonic", "odd-cubic",
                               "frequency-drop"):
        params.setdefault("Q", cfg["Q"])
    try:
        spec = data_maps.make_boundary_data(name, **params)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc), "data.params")
    if "Q" in cfg and spec.Q != cfg["Q"]:
        raise UsageError(
            f"generator {name!r} yields Q={spec.Q} but config says Q={cfg['Q']}",
            "Q")
    return spec


def _check_row(name, ok, value, bound, expect="pass", **extra):
    observed = "pass" if ok else "fail"
    row = {"name": name, "observed": observed, "expect": expect,
           "ok": bool(ok) if expect == "pass" else not ok,
           "value": value, "bound": bound}
    row.update(extra)
    return row


def _base_report(cfg):
    return {"kind": cfg["kind"], "label": cfg.get("label", cfg["kind"]),
            "seed": cfg.get("seed", 0), "checks": [], "summary": {}}


def _frequency_series(scan):
    header = ["r", "D", "H", "E", "Gq", "I"]
    rows = list(zip(scan.r, scan.D, scan.H, scan.E, scan.Gq, scan.I))
    return header, rows


# ---------------------------------------------------------------------------
# experiment kinds

def _run_metric_suite(cfg):
    rng = np.random.default_rng(cfg.get("seed", 0))
    pairs, max_q, max_n = 1000, 6, 4
    a_tol, t_tol = 1e-12, 1e-10
    worst_assign = worst_sym = worst_self = 0.0
    worst_triangle = -math.inf
    for _ in range(pairs):
        q = int(rng.integers(1, max_q + 1))
        n = int(rng.integers(1, max_n + 1))
        a, b, c = (QPoint(p) for p in rng.uniform(-2.0, 2.0, size=(3, q, n)))
        dab = g_distance(a, b)
        worst_assign = max(worst_assign, abs(dab - g_distance_bruteforce(a, b)))
        worst_sym = max(worst_sym, abs(dab - g_distance(b, a)))
        worst_self = max(worst_self, g_distance(a, a))
        worst_triangle = max(worst_triangle,
                             g_distance(a, c) - dab - g_distance(b, c))
    report = _base_report(cfg)
    report["checks"] = [
        _check_row("assignment-matches-bruteforce", worst_assign <= a_tol,
                   worst_assign, a_tol),
        _check_row("symmetry", worst_sym <= a_tol, worst_sym, a_tol),
        _check_row("self-distance-zero", worst_self <= a_tol, worst_self, a_tol),
        _check_row("triangle-inequality", worst_triangle <= t_tol,
                   worst_triangle, t_tol),
    ]
    report["summary"] = {"pairs": pairs, "max_q": max_q, "max_n": max_n}
    return RunResult(report)


def _boundary_oscillation(dom, data):
    sel = dom.plus.tag == BOUNDARY_PLUS
    return data.oscillation(dom.plus.xy[sel])


def _run_solve(cfg):
    dcfg = cfg["domain"]
    checks_cfg = cfg.get("checks", [])
    if checks_cfg and checks_cfg[0]["type"] == "interpolation-bound":
        return _run_interpolation_suite(cfg, dcfg, checks_cfg[0])
    dom = _domain_from(dcfg, dcfg["h"])
    data = _data_from(cfg)
    u, info = minimize(dom, data, **cfg.get("solver", {}))
    report = _base_report(cfg)
    report["summary"] = {"h": dom.h, "Q": data.Q, "energy": info.energy,
                         "sweeps": info.sweeps, "converged": info.converged,
                         "stop_reason": info.stop_reason}
    for ccfg in checks_cfg:
        if ccfg["type"] == "classical-reference":
            tol = ccfg.get("tol", 1e-8)

            def bfn(xy):
                return np.asarray(data.plus(xy), dtype=float)[:, 0, :]

            ref = harmonic_reference(dom, "plus", bfn, bfn)
            err = float(np.abs(u.plus[:, 0, :] - ref).max())
            report["checks"].append(_check_row(
                "matches-direct-solve", err <= tol, err, tol,
                expect=ccfg.get("expect", "pass")))
        elif ccfg["type"] == "converged":
            report["checks"].append(_check_row(
                "solver-converged", info.converged, info.max_update,
                cfg.get("solver", {}).get("update_stop", UPDATE_STOP),
                expect=ccfg.get("expect", "pass")))
    return RunResult(report)


def _random_polynomial_spec(rng, q, degree_max, phi_terms):
    def terms():
        ks = np.arange(degree_max + 1)
        c = rng.uniform(-1.0, 1.0, size=(ks.size, 2)) / (1.0 + ks[:, None])
        return [(int(k), float(cr), float(ci)) for k, (cr, ci) in zip(ks, c)]

    coeffs = [[terms() for _ in range(q)], [terms() for _ in range(q - 1)]]
    return data_maps.custom_coefficients(coeffs, phi_coeffs=phi_terms)


def _run_interpolation_suite(cfg, dcfg, ccfg):
    """Random map pairs through the annulus blend, one shared constant.

    Every pair shares its interface trace (the blend requires that), the
    sheet values are independent harmonic polynomials. The reported
    constant is the worst ratio of band energy to the weighted collar
    bound over all pairs and band widths.
    """
    dom = _domain_from(dcfg, dcfg["h"])
    rng = np.random.default_rng(cfg.get("seed", 0))
    pairs, lams, c_max, degree_max = 50, [0.1, 0.2], 20.0, 3
    rows = []
    worst = 0.0
    for k in range(pairs):
        q = int(rng.integers(1, 4))
        phi_terms = [(int(j), float(cr), float(ci)) for j, (cr, ci) in
                     enumerate(rng.uniform(-1.0, 1.0, size=(degree_max + 1, 2)))]
        f = sample_map(dom, _random_polynomial_spec(rng, q, degree_max, phi_terms))
        g = sample_map(dom, _random_polynomial_spec(rng, q, degree_max, phi_terms))
        for lam in lams:
            _, rep = interpolate_annulus(f, g, lam)
            worst = max(worst, rep.fitted_constant)
            rows.append((k, q, lam, rep.band_energy, rep.collar_energy_f,
                         rep.collar_energy_g, rep.collar_distance_sq,
                         rep.fitted_constant))
    report = _base_report(cfg)
    report["checks"] = [_check_row("interpolation-constant", worst <= c_max,
                                   worst, c_max,
                                   expect=ccfg.get("expect", "pass"))]
    report["summary"] = {"h": dom.h, "pairs": pairs, "lams": lams,
                         "fitted_constant": worst}
    header = ["pair", "Q", "lam", "band_energy", "collar_energy_f",
              "collar_energy_g", "collar_distance_sq", "fitted_constant"]
    return RunResult(report, {"interpolation": (header, rows)})


def _run_collapse(cfg):
    dcfg = cfg["domain"]
    data = _data_from(cfg)
    report = _base_report(cfg)
    series = {}
    levels = []
    solves = []
    for h in dcfg["h_values"]:
        dom = _domain_from(dcfg, h)
        u, info = minimize(dom, data, **cfg.get("solver", {}))
        rep = collapse_decompose(u, info)
        solves.append((dom, u))
        levels.append({"h": dom.h, "sheet_spread": rep.sheet_spread,
                       "harmonic_defect": rep.harmonic_defect,
                       "odd_defect": rep.odd_defect,
                       "oscillation": _boundary_oscillation(dom, data),
                       "energy": info.energy, "sweeps": info.sweeps,
                       "converged": info.converged,
                       "stop_reason": info.stop_reason})
    spreads = np.array([lv["sheet_spread"] for lv in levels])
    defects = np.array([lv["harmonic_defect"] for lv in levels])
    osc = levels[-1]["oscillation"]
    report["summary"] = {"levels": levels, "Q": data.Q, "data": data.label}

    for ccfg in cfg.get("checks", []):
        t = ccfg["type"]
        expect = ccfg.get("expect", "pass")
        if t == "spread-decreasing":
            step = float(np.diff(spreads).max()) if spreads.size > 1 else 0.0
            report["checks"].append(_check_row(
                "spread-decreasing", step < 0.0 or spreads.size == 1,
                step, 0.0, expect=expect))
        elif t == "spread-max":
            tol = ccfg.get("tol", 1e-8)
            report["checks"].append(_check_row(
                "spread-max", spreads[-1] <= tol, float(spreads[-1]), tol,
                expect=expect))
        elif t == "spread-vs-oscillation":
            val = float(spreads[-1] / osc)
            report["checks"].append(_check_row(
                "spread-vs-oscillation", val <= OSCILLATION_RATIO, val,
                OSCILLATION_RATIO, expect=expect))
        elif t == "defect-decreasing":
            step = float(np.diff(defects).max()) if defects.size > 1 else 0.0
            report["checks"].append(_check_row(
                "defect-decreasing", step < 0.0 or defects.size == 1,
                step, 0.0, expect=expect))
        elif t == "odd-defect-vs-oscillation":
            val = float(levels[-1]["odd_defect"] / osc)
            report["checks"].append(_check_row(
                "odd-defect-vs-oscillation", val <= OSCILLATION_RATIO, val,
                OSCILLATION_RATIO, expect=expect))
        elif t == "outer-identity-refinement":
            tol = ccfg.get("tol", OUTER_IDENTITY_TOL)
            shrink_min = 1.5
            worsts = []
            for dom, u in solves[-2:]:
                scan = frequency_scan(u, build_distance_field(dom),
                                      **cfg.get("scan", {}))
                _, w = check_outer_identity(scan, tol)
                worsts.append(w)
                name = f"frequency-{int(round(1.0 / dom.h))}"
                series[name] = _frequency_series(scan)
            shrink = worsts[0] / worsts[1] if worsts[1] > 0 else math.inf
            ok = worsts[1] <= tol and shrink >= shrink_min
            report["checks"].append(_check_row(
                "outer-identity-refinement", ok, worsts[1], tol,
                expect=expect, coarse=worsts[0], shrink=shrink,
                shrink_min=shrink_min))

    header = ["h", "sheet_spread", "harmonic_defect", "odd_defect",
              "oscillation", "energy"]
    rows = [(lv["h"], lv["sheet_spread"], lv["harmonic_defect"],
             lv["odd_defect"], lv["oscillation"], lv["energy"])
            for lv in levels]
    series["collapse"] = (header, rows)
    return RunResult(report, series)


def _run_frequency(cfg):
    dcfg = cfg["domain"]
    dom = _domain_from(dcfg, dcfg["h"])
    data = _data_from(cfg)
    source = cfg.get("source", "minimize")
    report = _base_report(cfg)
    if source == "minimize":
        u, info = minimize(dom, data, **cfg.get("solver", {}))
        report["summary"].update({"converged": info.converged,
                                  "energy": info.energy,
                                  "sweeps": info.sweeps,
                                  "stop_reason": info.stop_reason})
    elif source == "sample":
        u = sample_map(dom, data)
    elif source == "glued-plus":
        u = GridField(dom, dom.plus, np.asarray(data.plus(dom.plus.xy), float))
    else:  # glued-full
        u = GridField(dom, dom.full, np.asarray(data.plus(dom.full.xy), float))
    dist = build_distance_field(dom)
    scan = frequency_scan(u, dist, **cfg.get("scan", {}))
    series = {"frequency": _frequency_series(scan)}

    def kappa_of(ccfg):
        if ccfg.get("kappa") != "calibrated":
            return 0.0
        summary = report["summary"]
        if "kappa" not in summary:
            kappa, kinfo = calibrate_kappa(dom, dist)
            summary.update({"kappa": kappa, "kappa_sweeps": kinfo.sweeps})
        return summary["kappa"]

    for ccfg in cfg.get("checks", []):
        t = ccfg["type"]
        expect = ccfg.get("expect", "pass")
        if t == "i-value":
            target = ccfg["target"]
            tol = ccfg.get("tol", 0.02)
            worst = float(np.abs(scan.I[scan.reliable] - target).max())
            report["checks"].append(_check_row(
                f"frequency-near-{target:g}", worst <= tol, worst, tol,
                expect=expect, homogeneity=homogeneity_defect(u, scan.i0)))
        elif t == "outer-identity":
            tol = ccfg.get("tol", OUTER_IDENTITY_TOL)
            ok, worst = check_outer_identity(scan, tol)
            report["checks"].append(_check_row(
                "outer-identity", ok, worst, tol, expect=expect))
        elif t == "monotonicity":
            tol = ccfg.get("tol", 0.02)
            ok, worst, c_eff = check_monotonicity(scan, tol=tol,
                                                  kappa=kappa_of(ccfg))
            report["checks"].append(_check_row(
                "almost-monotone", ok, worst, tol, expect=expect,
                c_eff=c_eff))
        elif t == "doubling":
            rep = check_doubling_bounds(scan, lam=1.2, kappa=kappa_of(ccfg))
            worst = max(rep.worst_h_margin, rep.worst_d_margin)
            report["checks"].append(_check_row(
                "doubling-bounds", rep.passed, worst, 0.0, expect=expect,
                h_pass=rep.h_pass, d_pass=rep.d_pass,
                range_pass=rep.range_pass, pairs=rep.pairs, c_eff=rep.c_eff))
            series["doubling"] = (list(DOUBLING_COLUMNS), rep.rows)
    report["summary"].update({"h": scan.h, "i0": scan.i0,
                              "c_mono": scan.c_mono,
                              "reliable_radii": int(scan.reliable.sum()),
                              "source": source})
    return RunResult(report, series)


def _run_zeros(cfg):
    alpha = cfg.get("alpha", 0.5)
    # ring n is the 4:1 annulus around the zero circle |z| = e^{n pi}, the
    # only ring that annulus holds
    rings = [int(n) for n in cfg.get("rings", [0])]
    annuli = [{"r_lo": math.exp(n * math.pi) / 2.0,
               "r_hi": math.exp(n * math.pi) * 2.0} for n in rings]
    report = _base_report(cfg)
    rows = []
    for ring, ann in zip(rings, annuli):
        r_lo, r_hi = ann["r_lo"], ann["r_hi"]
        name = f"zero-match-[{r_lo:.4g},{r_hi:.4g}]"
        try:
            zeros, paired = find_zeros_numeric(r_lo, r_hi, alpha)
        except ZeroMatchError as exc:
            report["checks"].append(_check_row(
                name, False, None, MATCH_TOL,
                count=len(predicted_zeros_in_annulus(r_lo, r_hi)),
                detail=str(exc)))
            continue
        rows.extend((ring, z.real, z.imag, p.real, p.imag)
                    for z, p in zip(zeros, paired))
        # a pair farther apart than MATCH_TOL would have raised
        worst = float(np.abs(zeros - paired).max(initial=0.0))
        report["checks"].append(_check_row(
            name, True, worst, MATCH_TOL, count=len(zeros)))
    report["summary"] = {"alpha": alpha, "annuli": annuli,
                         "zeros_found": len(rows)}
    header = ["ring", "re", "im", "re_predicted", "im_predicted"]
    return RunResult(report, {"zeros": (header, rows)})


def _run_decay(cfg):
    alpha = cfg.get("alpha", 0.5)
    orders, rtol = [0, 1, 2, 3, 4], 0.2
    report = _base_report(cfg)
    series = {}
    for order in orders:
        rep = derivative_decay_check(order, alpha)
        report["checks"].append(_check_row(
            f"order-{order}-tail-monotone", rep.tail_monotone,
            rep.crossover, None))
        gap = abs(rep.fitted_exponent - rep.expected_exponent)
        report["checks"].append(_check_row(
            f"order-{order}-exponent", gap <= rtol * rep.expected_exponent,
            rep.fitted_exponent, rep.expected_exponent, rtol=rtol))
        if rep.envelope_ok is not None:
            report["checks"].append(_check_row(
                f"order-{order}-envelope", rep.envelope_ok, None, None))
        series[f"decay-{order}"] = (["s", "magnitude"],
                                    list(zip(rep.s, rep.magnitude)))
    report["summary"] = {"alpha": alpha, "orders": orders,
                         "expected_exponent": alpha / 3.0}
    return RunResult(report, series)


def _run_density(cfg):
    scfg = cfg.get("surface", {})
    alpha = scfg.get("alpha", 0.5)
    surf = build_surface(alpha=alpha, tau=scfg.get("tau", 1.2),
                         fillet=scfg.get("fillet", 0.2))
    report = _base_report(cfg)
    series = {}
    for pt in cfg["points"]:
        name = pt["name"]
        if "coords" in pt:
            point = np.asarray(pt["coords"], dtype=float)
        else:
            point = surface_image(complex(pt["z"][0], pt["z"][1]), alpha)
        rep = density_at(surf, point, np.asarray(pt["radii"], float))
        expect, tol = pt["expect"], pt["tol"]
        ok = abs(rep.extrapolated - expect) <= tol * expect
        extra = {"expected": expect}
        if "seeds" in pt:
            ok = ok and len(rep.seeds) == pt["seeds"]
            extra["preimages"] = len(rep.seeds)
        report["checks"].append(_check_row(
            f"density-{name}", ok, rep.extrapolated, tol, **extra))
        series[f"density-{name}"] = (["r", "ratio"],
                                     list(zip(rep.radii, rep.ratios)))
    tf = cfg.get("theta_floor")
    if tf:
        floor = 0.5 - 0.01  # density 1/2 less a sampling slack
        radii = np.asarray(tf.get("radii", [0.08, 0.05]), dtype=float)
        worst = math.inf
        for z in tf["z_points"]:
            rep = density_at(surf, surface_image(complex(z[0], z[1]), alpha),
                             radii)
            worst = min(worst, rep.extrapolated)
        report["checks"].append(_check_row(
            "density-floor-on-boundary", worst >= floor, worst, floor,
            sampled=len(tf["z_points"])))
    report["summary"] = {"alpha": alpha, "depth": QUADTREE_DEPTH}
    return RunResult(report, series)


def _run_two_circles(cfg):
    r1, r2 = cfg["r_inner"], cfg["r_outer"]
    point = complex(cfg["point"][0], cfg["point"][1]) if "point" in cfg else None
    radii = np.asarray(cfg["radii"], float) if "radii" in cfg else None
    rep = two_circles_density(r1, r2, point=point, radii=radii)
    report = _base_report(cfg)
    small = int(np.argmin(rep.radii))
    limit_tol = 0.01
    scale = rep.exact if rep.exact > 0 else 1.0
    gap = float(abs(rep.ratios[small] - rep.exact))
    report["checks"].append(_check_row(
        "ratio-limit", gap <= limit_tol * scale, float(rep.ratios[small]),
        rep.exact, tol=limit_tol))
    if "expect" in cfg:
        report["checks"].append(_check_row(
            "exact-value", rep.exact == cfg["expect"], rep.exact,
            cfg["expect"]))
    if rep.location == "on inner circle":
        # half plane plus full disk: the closed-form small-radius model
        model = 1.5 - rep.radii / (3.0 * np.pi * r1)
        worst = float(np.abs(rep.ratios - model).max())
        report["checks"].append(_check_row(
            "analytic-model", worst <= 1e-4, worst, 1e-4))
    order = np.argsort(rep.radii)
    mono = float(np.diff(rep.ratios[order]).max()) if order.size > 1 else 0.0
    report["checks"].append(_check_row(
        "ratio-monotone-in-r", mono <= 1e-12, mono, 1e-12))
    report["summary"] = {"r_inner": r1, "r_outer": r2,
                         "location": rep.location, "exact": rep.exact}
    return RunResult(report, {"density": (["r", "ratio"],
                                          list(zip(rep.radii, rep.ratios)))})


_RUNNERS = {
    "metric-suite": _run_metric_suite,
    "solve": _run_solve,
    "frequency": _run_frequency,
    "collapse": _run_collapse,
    "zeros": _run_zeros,
    "decay": _run_decay,
    "density": _run_density,
    "two-circles": _run_two_circles,
}
KINDS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# report and plot-data emission

def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        return v if math.isfinite(v) else str(v)
    if isinstance(x, np.integer):
        return int(x)
    return x


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


def emit_plotdata(result, out_dir, label):
    """Write every CSV series of a run; an empty series keeps its header."""
    written = {}
    for name in sorted(result.series):
        header, rows = result.series[name]
        fname = f"{label}-{name}.csv"
        with open(os.path.join(out_dir, fname), "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([_csv_cell(v) for v in row])
        written[name] = fname
    return written


def write_report(report, out_dir, label):
    """Sorted-keys JSON behind one timestamped header line."""
    stamp = datetime.datetime.now(datetime.timezone.utc)
    body = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    path = os.path.join(out_dir, f"{label}-report.json")
    with open(path, "w") as fh:
        fh.write(f"# generated {stamp.strftime('%Y-%m-%dT%H:%M:%SZ')}\n")
        fh.write(body + "\n")
    return path


def read_report(path):
    """Load a report file back, skipping the timestamp header."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    return json.loads("\n".join(ln for ln in lines if not ln.startswith("#")))


def run(config, out_dir="qhalf-out", seed=None):
    """Validate, dispatch, and write the report plus plot data.

    A seed given here replaces the config's seed before validation.
    Returns the exit status: 0 when every check passed, 1 when a check
    or the pipeline failed. Config problems raise UsageError instead.
    """
    cfg = config
    if seed is not None and isinstance(config, dict):
        cfg = {**config, "seed": seed}
    validate_config(cfg)
    label = cfg.get("label", cfg["kind"])
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = _RUNNERS[cfg["kind"]](cfg)
    except Exception as exc:
        report = {"kind": cfg["kind"], "label": label, "passed": False,
                  "error": {"type": type(exc).__name__, "message": str(exc)}}
        write_report(report, out_dir, label)
        return 1
    report = result.report
    report["series"] = emit_plotdata(result, out_dir, label)
    report["passed"] = all(c["ok"] for c in report["checks"])
    write_report(report, out_dir, label)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# command line

def _build_parser():
    p = argparse.ArgumentParser(
        prog="qhalf",
        description="Run a named experiment pipeline from a JSON config "
                    "or a shipped preset and write report plus plot data.")
    p.add_argument("kind", nargs="?", choices=KINDS,
                   help="experiment kind; must match the config")
    p.add_argument("--config", metavar="FILE", help="JSON config file")
    p.add_argument("--preset", metavar="NAME", help="shipped preset name")
    p.add_argument("--out", metavar="DIR", default="qhalf-out",
                   help="output directory (default qhalf-out)")
    p.add_argument("--seed", type=int, metavar="N",
                   help="override the config seed")
    p.add_argument("--list-presets", action="store_true",
                   help="list shipped presets and exit")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.list_presets:
            for name, cfg in list_presets():
                print(f"{name:24s} {cfg['kind']:13s} "
                      f"{cfg.get('description', '')}")
            return 0
        if args.kind is None:
            raise UsageError("an experiment kind is required "
                             "(or use --list-presets)")
        if (args.config is None) == (args.preset is None):
            raise UsageError("exactly one of --config or --preset is required")
        cfg = load_config(args.config) if args.config else load_preset(args.preset)
        if cfg.get("kind") != args.kind:
            raise UsageError(f"config kind {cfg.get('kind')!r} does not match "
                             f"the command line kind {args.kind!r}", "kind")
        return run(cfg, out_dir=args.out, seed=args.seed)
    except UsageError as exc:
        where = f" at {exc.path}" if exc.path else ""
        print(f"qhalf: config error{where}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
