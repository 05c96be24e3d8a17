"""Experiment driver: JSON configs, canned presets, reports, plot data.

Each experiment kind wires existing pieces into a pipeline (build domain,
solve or sample, scan, check) and reduces the outcome to a list of named
checks. Reports are JSON with sorted keys behind a single timestamp
header line, so two runs of the same config and seed agree byte for byte
below the first line. CSV series for plotting are written next to the
report.

validate_config checks every config rule before any work starts: the
schema, which states value shapes only, the KINDS and CHECKS tables of the
kinds and check types and which fields each needs and reads, grid and sheet
budgets, the boundary data (a listed generator), and the density points.
A config holds only what the presets vary: every grid has radius R, a
solve stops by solver.UPDATE_STOP and MAX_SWEEPS, and each check's bound
is its CHECKS entry, which only i-value's tol replaces. The runners
assume a valid config and have no error branches of their own. The
schema is read by a walker of this module that implements only the
keywords the schema uses, takes a number to be finite, and reports the
error jsonschema's best_match would pick.

Exit codes: 0 all checks passed, 1 a check or the pipeline itself
failed, 2 the config or command line is malformed.
"""

import argparse
import csv
import datetime
import inspect
import json
import math
import os
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import data_maps
from .domain import (
    ConstructionError,
    InterfaceSpec,
    build_distance_field,
    build_halfdisk,
    check_interface,
    check_spacing,
    check_tube,
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
    ALPHA,
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
    check_band,
    collapse_decompose,
    harmonic_reference,
    interpolate_annulus,
    minimize,
    sample_map,
)
from .surface import (
    QUADTREE_DEPTH,
    build_surface,
    check_density_point,
    check_two_circles,
    density_at,
    surface_image,
    two_circles_density,
)

# Radius of every grid a run builds.
R = 1.0
# Largest bounding grid build_halfdisk may allocate: R/h <= 511, four
# times the finest shipped R/h of 128.
MAX_GRID_CELLS = 2**20
# Largest Q x (bounding grid cells) a run may allocate as sheet values,
# 64 MB of floats per array: Q = 8 on the largest accepted grid.
MAX_SHEET_VALUES = 2**23
# Largest sheet spread and odd defect, relative to the boundary oscillation,
# the collapse checks accept.
OSCILLATION_RATIO = 0.02
# Solver precision: a sheet spread or harmonic defect at most this large
# is zero, and a single-sheet solve matches the direct solve to it.
SOLVER_PRECISION = 1e-8
# Band widths of the interpolation blend; each must span two node layers.
BAND_WIDTHS = (0.1, 0.2)

# Fields every kind reads: the report states kind, label and seed.
COMMON_FIELDS = ("kind", "label", "description", "seed")
# What a kind runs, the top-level fields it needs, and the ones it may read
# beyond those and COMMON_FIELDS; KINDS, below the runners, is the only list
# of kinds, and validate_config refuses every other field.
Kind = namedtuple("Kind", "run needs reads", defaults=((), ()))
# What a check type reads beyond type and expect, its bound, what it needs
# of the run, and the fields it requires; only i-value reads a tol.
Check = namedtuple("Check", "fields tol need required",
                   defaults=((), None, None, ()))
# The only list of check types: kind -> check type -> Check.
# validate_config enforces it and the runners read their bounds from it.
CHECKS = {
    "solve": {"converged": Check(tol=UPDATE_STOP),
              "classical-reference": Check(tol=SOLVER_PRECISION, need="Q = 1")},
    "collapse": {"spread-decreasing": Check(tol=0.0),
                 "spread-max": Check(tol=SOLVER_PRECISION),
                 "spread-vs-oscillation": Check(tol=OSCILLATION_RATIO),
                 "defect-decreasing": Check(tol=0.0),
                 "odd-defect-vs-oscillation": Check(
                     tol=OSCILLATION_RATIO, need="a straight interface"),
                 "outer-identity-refinement": Check(
                     tol=0.05, need="two or more grid spacings")},
    "frequency": {"i-value": Check(("target", "tol"), 0.02,
                                   required=("target",)),
                  "monotonicity": Check(("kappa",), 0.02),
                  "doubling": Check(("kappa",), 0.0)},
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
# The schema's types. JSON Schema's integer admits 1.0, which the runners
# cannot count with: here an integer is a Python int that is not a bool.
# json.load reads the literals NaN and Infinity, which no bound refuses:
# here a number is finite.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                         or isinstance(x, float) and math.isfinite(x)),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
}
# Keywords that state nothing about a config.
_ANNOTATIONS = {"$schema", "title", "$defs"}
# The assertion keywords the schema uses; additionalProperties only as false.
_ASSERTIONS = {"type", "enum", "minimum", "exclusiveMinimum", "maximum",
               "pattern", "minItems", "maxItems", "required",
               "additionalProperties"}


def _load_schema():
    global _SCHEMA
    if _SCHEMA is None:
        text = resources.files("qhalf").joinpath(
            "presets/config.schema.json").read_text()
        _SCHEMA = json.loads(text)
    return _SCHEMA


def _assertion_error(key, want, x, node=None):
    """jsonschema's message when x fails the assertion keyword key of a
    schema node, else None; a keyword skips x of a type it does not
    apply to. Only the first missing required property is named, as
    best_match would pick it among the rest."""
    if key not in _ASSERTIONS or key == "additionalProperties" and want is not False:
        raise NotImplementedError(f"schema keyword {key!r}: {want!r}")
    number, array = _TYPES["number"](x), isinstance(x, list)
    if key == "type" and not _TYPES[want](x):
        return f"{x!r} is not of type {want!r}"
    if key == "enum" and x not in want:  # the enums hold strings
        return f"{x!r} is not one of {want!r}"
    if key == "minimum" and number and x < want:
        return f"{x!r} is less than the minimum of {want!r}"
    if key == "exclusiveMinimum" and number and x <= want:
        return f"{x!r} is less than or equal to the minimum of {want!r}"
    if key == "maximum" and number and x > want:
        return f"{x!r} is greater than the maximum of {want!r}"
    if key == "pattern" and isinstance(x, str) and not re.search(want, x):
        return f"{x!r} does not match {want!r}"
    if key == "minItems" and array and len(x) < want:
        return f"{x!r} {'should be non-empty' if want == 1 else 'is too short'}"
    if key == "maxItems" and array and len(x) > want:
        return f"{x!r} is too long"
    if key == "required" and isinstance(x, dict):
        missing = [name for name in want if name not in x]
        if missing:
            return f"{missing[0]!r} is a required property"
    if key == "additionalProperties" and isinstance(x, dict):
        extra = sorted(k for k in x if k not in node.get("properties", {}))
        if extra:
            verb = "was" if len(extra) == 1 else "were"
            return (f"Additional properties are not allowed "
                    f"({', '.join(map(repr, extra))} {verb} unexpected)")
    return None


def _require(key, want, x, path):
    """Refuse x at path unless it meets the assertion keyword key, in the
    schema's words: the rules of KINDS, CHECKS and the generator list."""
    message = _assertion_error(key, want, x)
    if message is not None:
        raise UsageError(message, path)


def _schema_error(schema, cfg):
    """The error of cfg against a JSON schema that jsonschema's
    best_match picks, as (path, message), or None if cfg is valid.

    Errors come in the order of jsonschema's Draft 2020-12 validator:
    keyword order within a schema node, properties in schema order,
    items in index order. best_match takes the shallowest path, then the
    largest, then the first error. The schema states no conditional
    rule, so every error at one path comes from one schema node. Only
    the keywords the config schema uses are read; any other raises
    NotImplementedError.
    """
    def errors(node, x, path):
        for key, want in node.items():
            if key == "$ref":
                if not want.startswith("#/"):
                    raise NotImplementedError(f"$ref {want!r}")
                target = schema
                for part in want[2:].split("/"):
                    target = target[part]
                yield from errors(target, x, path)
            elif key == "properties":
                for name, sub in want.items() if isinstance(x, dict) else ():
                    if name in x:
                        yield from errors(sub, x[name], path + (name,))
            elif key == "items":
                for i, item in enumerate(x) if isinstance(x, list) else ():
                    yield from errors(want, item, path + (i,))
            elif key not in _ANNOTATIONS:
                message = _assertion_error(key, want, x, node)
                if message is not None:
                    yield path, message

    return max(errors(schema, cfg, ()), default=None,
               key=lambda err: (-len(err[0]), err[0]))


def validate_config(cfg):
    """Check every config rule before any work; raises UsageError with a path."""
    err = _schema_error(_load_schema(), cfg)
    if err is not None:
        raise UsageError(err[1], ".".join(map(str, err[0])))
    kind, dcfg = cfg["kind"], cfg.get("domain", {})
    _require("enum", list(KINDS), kind, "kind")
    _require("required", KINDS[kind].needs, cfg, "")
    for name in cfg:
        if name not in COMMON_FIELDS + KINDS[kind].needs + KINDS[kind].reads:
            raise UsageError(f"kind {kind!r} does not read {name!r}", name)
    if kind == "two-circles":
        try:
            check_two_circles(cfg["r_inner"], cfg["r_outer"])
        except ValueError as exc:
            raise UsageError(str(exc), "r_outer")
    points = cfg.get("points", [])
    for i, pt in enumerate(points):
        if pt["name"] in (p["name"] for p in points[:i]):
            raise UsageError(f"density point name {pt['name']!r} repeats",
                             f"points.{i}.name")
        try:
            check_density_point(_density_point(pt), max(pt["radii"]))
        except ValueError as exc:
            raise UsageError(str(exc), f"points.{i}")
    spacing = {"solve": "h", "interpolation": "h", "frequency": "h",
               "collapse": "h_values"}.get(kind)
    if spacing is not None and spacing not in dcfg:
        raise UsageError(f"{kind} needs domain.{spacing}", f"domain.{spacing}")
    spacings = [("domain.h", dcfg["h"])] if "h" in dcfg else []
    spacings += [(f"domain.h_values.{i}", h)
                 for i, h in enumerate(dcfg.get("h_values", []))]
    spec = _data_from(cfg) if "data" in cfg else None
    iface = _interface_from(dcfg.get("interface"))
    for path, h in spacings:
        try:
            check_spacing(R, h)
            for lam in BAND_WIDTHS if kind == "interpolation" else ():
                check_band(lam, h)
        except ValueError as exc:
            raise UsageError(str(exc), path)
        side = 2.0 * grid_half_width(R, h) + 1.0
        if side * side > MAX_GRID_CELLS:
            raise UsageError(f"grid spacing {h} needs a {side:.0f}^2 "
                             f"grid, above {MAX_GRID_CELLS} cells", path)
        if spec is not None and spec.Q * side * side > MAX_SHEET_VALUES:
            raise UsageError(f"Q={spec.Q} sheets on the {side:.0f}^2 grid of "
                             f"{path} exceed {MAX_SHEET_VALUES} values", "Q")
        try:
            check_interface(iface, R, h)
        except ConstructionError as exc:
            raise UsageError(f"{exc} (at h={h:g})", "domain.interface")
    solves = kind != "frequency" or cfg.get("source", "minimize") == "minimize"
    if "solver" in cfg and not solves:
        raise UsageError(f"source {cfg['source']!r} does not read 'solver'",
                         "solver")
    if spec is not None and solves and spec.n != 1:
        raise UsageError(f"generator {cfg['data']['generator']!r} yields "
                         f"n={spec.n}, but a solve takes scalar sheets (n=1)",
                         "data.generator")
    met = {None: True, "Q = 1": spec is not None and spec.Q == 1,
           "a straight interface": iface.kind == "straight",
           "two or more grid spacings": len(dcfg.get("h_values", [])) >= 2}
    checks = cfg.get("checks", [])
    for i, ccfg in enumerate(checks):
        t, rule = ccfg["type"], CHECKS[kind].get(ccfg["type"])
        if rule is None:
            raise UsageError(f"check {t!r} does not apply to kind {kind!r}",
                             f"checks.{i}.type")
        _require("required", rule.required, ccfg, f"checks.{i}")
        for name in ccfg:
            if name not in ("type", "expect") + rule.fields:
                raise UsageError(f"check {t!r} does not read {name!r}",
                                 f"checks.{i}.{name}")
        if not met[rule.need]:
            raise UsageError(f"check {t!r} needs {rule.need}", f"checks.{i}.type")
    refine = any(c["type"] == "outer-identity-refinement" for c in checks)
    if "scan" in cfg and kind == "collapse" and not refine:
        raise UsageError("a collapse run reads 'scan' only for "
                         "outer-identity-refinement", "scan")
    # Each scanned spacing builds a distance field, whose tube coordinates
    # must hold on every node; a scan bound left out takes its default.
    scanned = {"frequency": spacings,
               "collapse": spacings[-2:] if refine else []}.get(kind, [])
    scan = cfg.get("scan", {})
    for path, h in scanned:
        try:
            check_tube(iface, R, h)
        except ConstructionError as exc:
            raise UsageError(f"{exc} (at h={h:g})", "domain.interface")
        r_min, r_max = scan_bounds(R, h, **scan)
        if r_min >= r_max:
            at = ("scan.r_max" if "r_max" in scan
                  else "scan.r_min" if scan.get("r_min", 0.0) >= r_max
                  else path)
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


def _preset_files():
    """Shipped preset name -> its file; the schema is not a preset."""
    return {entry.name[:-5]: entry
            for entry in resources.files("qhalf").joinpath("presets").iterdir()
            if entry.name.endswith(".json")
            and entry.name != "config.schema.json"}


def list_presets():
    """All shipped presets as (name, config) pairs, sorted by name."""
    return sorted((name, json.loads(entry.read_text()))
                  for name, entry in _preset_files().items())


def load_preset(name):
    files = _preset_files()
    if name not in files:
        known = ", ".join(sorted(files))
        raise UsageError(f"unknown preset {name!r}; shipped presets: {known}")
    return json.loads(files[name].read_text())


# ---------------------------------------------------------------------------
# shared pipeline pieces

def _interface_from(icfg):
    if icfg is None:
        return InterfaceSpec.straight()
    return InterfaceSpec.sine_wave(icfg["amplitude"], icfg["wavenumber"])


def _domain_from(dcfg, h=None):
    return build_halfdisk(R=R, h=h or dcfg["h"],
                          interface=_interface_from(dcfg.get("interface")))


def _data_from(cfg):
    dcfg = cfg["data"]
    name = dcfg["generator"]
    _require("enum", list(data_maps.GENERATORS), name, "data.generator")
    params = dict(dcfg.get("params", {}))
    takes_q = inspect.signature(data_maps.GENERATORS[name]).parameters.get("Q")
    if takes_q is not None and "Q" in cfg:
        params["Q"] = cfg["Q"]
    elif takes_q is not None and takes_q.default is takes_q.empty:
        raise UsageError(f"generator {name!r} needs the top-level Q", "Q")
    try:
        spec = data_maps.make_boundary_data(name, **params)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc), "data.params")
    if "Q" in cfg and spec.Q != cfg["Q"]:
        raise UsageError(f"generator {name!r} yields Q={spec.Q} but config "
                         f"says Q={cfg['Q']}", "Q")
    return spec


def _density_point(pt):
    """The image of a density point's z on the surface."""
    return surface_image(complex(pt["z"][0], pt["z"][1]))


def _check_row(name, ok, value, bound, expect="pass", **extra):
    observed = "pass" if ok else "fail"
    row = {"name": name, "observed": observed, "expect": expect,
           "ok": bool(ok) if expect == "pass" else not ok,
           "value": value, "bound": bound}
    row.update(extra)
    return row


def _checks(cfg, report):
    """Each configured check as (type, config, bound, row); row(name, ok,
    value, bound=bound, **extra) adds its report row under its expect."""
    for ccfg in cfg.get("checks", []):
        t = ccfg["type"]
        tol = ccfg.get("tol", CHECKS[cfg["kind"]][t].tol)

        def row(name, ok, value, bound=tol, expect=ccfg.get("expect", "pass"),
                **extra):
            report["checks"].append(_check_row(name, ok, value, bound, expect,
                                               **extra))

        yield t, ccfg, tol, row


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
    return data.oscillation(dom.plus.xy[dom.plus.boundary])


def _solve_summary(info):
    """What every report states about a solve."""
    return {"energy": info.energy, "sweeps": info.sweeps,
            "converged": info.converged, "stop_reason": info.stop_reason}


def _run_solve(cfg):
    dom = _domain_from(cfg["domain"])
    data = _data_from(cfg)
    u, info = minimize(dom, data, **cfg.get("solver", {}))
    report = _base_report(cfg)
    report["summary"] = {"h": dom.h, "Q": data.Q, **_solve_summary(info)}
    for t, _, tol, row in _checks(cfg, report):
        if t == "classical-reference":

            def bfn(xy):
                return np.asarray(data.plus(xy), dtype=float)[:, 0, :]

            ref = harmonic_reference(dom, "plus", bfn, bfn)
            err = float(np.abs(u.plus[:, 0, :] - ref).max())
            row("matches-direct-solve", err <= tol, err)
        elif t == "converged":
            row("solver-converged", info.converged, info.max_update)
    return RunResult(report)


def _random_polynomial_spec(rng, q, degree_max, phi_terms):
    def terms():
        ks = np.arange(degree_max + 1)
        c = rng.uniform(-1.0, 1.0, size=(ks.size, 2)) / (1.0 + ks[:, None])
        return [(int(k), float(cr), float(ci)) for k, (cr, ci) in zip(ks, c)]

    coeffs = [[terms() for _ in range(q)], [terms() for _ in range(q - 1)]]
    return data_maps.custom_coefficients(coeffs, phi_coeffs=phi_terms)


def _run_interpolation(cfg):
    """Random map pairs through the annulus blend, one shared constant.

    Every pair shares its interface trace (the blend requires that), the
    sheet values are independent harmonic polynomials. The reported
    constant is the worst ratio of band energy to the weighted collar
    bound over all pairs and band widths.
    """
    dom = _domain_from(cfg["domain"])
    rng = np.random.default_rng(cfg.get("seed", 0))
    pairs, c_max, degree_max = 50, 20.0, 3
    rows, worst = [], 0.0
    for k in range(pairs):
        q = int(rng.integers(1, 4))
        phi_terms = [(int(j), float(cr), float(ci)) for j, (cr, ci) in
                     enumerate(rng.uniform(-1.0, 1.0, size=(degree_max + 1, 2)))]
        f = sample_map(dom, _random_polynomial_spec(rng, q, degree_max, phi_terms))
        g = sample_map(dom, _random_polynomial_spec(rng, q, degree_max, phi_terms))
        for lam in BAND_WIDTHS:
            _, rep = interpolate_annulus(f, g, lam)
            worst = max(worst, rep.fitted_constant)
            rows.append((k, q, lam, rep.band_energy, rep.collar_energy_f,
                         rep.collar_energy_g, rep.collar_distance_sq,
                         rep.fitted_constant))
    report = _base_report(cfg)
    report["checks"] = [_check_row("interpolation-constant", worst <= c_max,
                                   worst, c_max)]
    report["summary"] = {"h": dom.h, "pairs": pairs, "lams": BAND_WIDTHS,
                         "fitted_constant": worst}
    header = ["pair", "Q", "lam", "band_energy", "collar_energy_f",
              "collar_energy_g", "collar_distance_sq", "fitted_constant"]
    return RunResult(report, {"interpolation": (header, rows)})


def _run_collapse(cfg):
    dcfg = cfg["domain"]
    data = _data_from(cfg)
    report = _base_report(cfg)
    hs = dcfg["h_values"]
    # Finest level first, so that no coarser level's heap lies under the
    # largest factorization: the run's memory peak. Levels are reported in
    # config order, and only the last two, which the outer-identity scan
    # reads, keep their solve.
    series, levels, solves = {}, [None] * len(hs), {}
    for i in sorted(range(len(hs)), key=hs.__getitem__):
        dom = _domain_from(dcfg, hs[i])
        u, info = minimize(dom, data, **cfg.get("solver", {}))
        rep = collapse_decompose(u, info)
        if i >= len(hs) - 2:
            solves[i] = (dom, u)
        levels[i] = {"h": dom.h, "sheet_spread": rep.sheet_spread,
                     "harmonic_defect": rep.harmonic_defect,
                     "odd_defect": rep.odd_defect,
                     "oscillation": _boundary_oscillation(dom, data),
                     **_solve_summary(info)}
        del dom, u
    spreads = np.array([lv["sheet_spread"] for lv in levels])
    defects = np.array([lv["harmonic_defect"] for lv in levels])
    osc = levels[-1]["oscillation"]
    report["summary"] = {"levels": levels, "Q": data.Q, "data": data.label}

    for t, ccfg, tol, row in _checks(cfg, report):
        if t.endswith("-decreasing"):
            # A ladder at solver precision has nothing left to decrease.
            vals = spreads if t == "spread-decreasing" else defects
            step = float(np.diff(vals).max()) if vals.size > 1 else 0.0
            row(t, step < tol or vals.size == 1
                or vals.max() <= SOLVER_PRECISION, step)
        elif t == "spread-max":
            row(t, spreads[-1] <= tol, float(spreads[-1]))
        elif t.endswith("-vs-oscillation"):
            key = "odd_defect" if t.startswith("odd") else "sheet_spread"
            val = float(levels[-1][key] / osc)
            row(t, val <= tol, val)
        elif t == "outer-identity-refinement":
            shrink_min = 1.5
            worsts = []
            for dom, u in (solves[i] for i in sorted(solves)):
                scan = frequency_scan(u, build_distance_field(dom),
                                      **cfg.get("scan", {}))
                _, w = check_outer_identity(scan, tol)
                worsts.append(w)
                name = f"frequency-{int(round(1.0 / dom.h))}"
                series[name] = _frequency_series(scan)
            shrink = worsts[0] / worsts[1] if worsts[1] > 0 else math.inf
            row(t, worsts[1] <= tol and shrink >= shrink_min, worsts[1],
                coarse=worsts[0], shrink=shrink, shrink_min=shrink_min)

    header = ["h", "sheet_spread", "harmonic_defect", "odd_defect",
              "oscillation", "energy"]
    rows = [(lv["h"], lv["sheet_spread"], lv["harmonic_defect"],
             lv["odd_defect"], lv["oscillation"], lv["energy"])
            for lv in levels]
    series["collapse"] = (header, rows)
    return RunResult(report, series)


def _run_frequency(cfg):
    dom = _domain_from(cfg["domain"])
    data = _data_from(cfg)
    source = cfg.get("source", "minimize")
    report = _base_report(cfg)
    if source == "minimize":
        u, info = minimize(dom, data, **cfg.get("solver", {}))
        report["summary"].update(_solve_summary(info))
    elif source == "sample":
        u = sample_map(dom, data)
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

    for t, ccfg, tol, row in _checks(cfg, report):
        if t == "i-value":
            target = ccfg["target"]
            worst = float(np.abs(scan.I - target).max())
            row(f"frequency-near-{target:g}", worst <= tol, worst,
                homogeneity=homogeneity_defect(u, scan.i0))
        elif t == "monotonicity":
            ok, worst, c_eff = check_monotonicity(scan, tol=tol,
                                                  kappa=kappa_of(ccfg))
            row("almost-monotone", ok, worst, c_eff=c_eff)
        elif t == "doubling":
            rep = check_doubling_bounds(scan, lam=1.2, kappa=kappa_of(ccfg))
            worst = max(rep.worst_h_margin, rep.worst_d_margin)
            row("doubling-bounds", rep.passed, worst, h_pass=rep.h_pass,
                d_pass=rep.d_pass, range_pass=rep.range_pass, pairs=rep.pairs,
                c_eff=rep.c_eff)
            series["doubling"] = (list(DOUBLING_COLUMNS), rep.rows)
    report["summary"].update({"h": scan.h, "i0": scan.i0,
                              "c_mono": scan.c_mono,
                              "reliable_radii": scan.r.size,
                              "source": source})
    return RunResult(report, series)


def _run_zeros(cfg):
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
            zeros, paired = find_zeros_numeric(r_lo, r_hi)
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
    report["summary"] = {"alpha": ALPHA, "annuli": annuli,
                         "zeros_found": len(rows)}
    header = ["ring", "re", "im", "re_predicted", "im_predicted"]
    return RunResult(report, {"zeros": (header, rows)})


def _run_decay(cfg):
    orders, rtol = [0, 1, 2, 3, 4], 0.2
    report = _base_report(cfg)
    series = {}
    for order in orders:
        rep = derivative_decay_check(order)
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
    report["summary"] = {"alpha": ALPHA, "orders": orders,
                         "expected_exponent": ALPHA / 3.0}
    return RunResult(report, series)


def _run_density(cfg):
    surf = build_surface()
    report = _base_report(cfg)
    series = {}
    for pt in cfg["points"]:
        name = pt["name"]
        rep = density_at(surf, _density_point(pt),
                         np.asarray(pt["radii"], float))
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
    report["summary"] = {"alpha": ALPHA, "depth": QUADTREE_DEPTH}
    return RunResult(report, series)


def _run_two_circles(cfg):
    r1, r2 = cfg["r_inner"], cfg["r_outer"]
    rep = two_circles_density(r1, r2)
    report = _base_report(cfg)
    small = int(np.argmin(rep.radii))
    limit_tol = 0.01
    gap = float(abs(rep.ratios[small] - rep.exact))
    report["checks"].append(_check_row(
        "ratio-limit", gap <= limit_tol * rep.exact, float(rep.ratios[small]),
        rep.exact, tol=limit_tol))
    if "expect" in cfg:
        report["checks"].append(_check_row(
            "exact-value", rep.exact == cfg["expect"], rep.exact,
            cfg["expect"]))
    # half plane plus full disk on the inner circle: the small-radius model
    model = 1.5 - rep.radii / (3.0 * np.pi * r1)
    worst = float(np.abs(rep.ratios - model).max())
    report["checks"].append(_check_row(
        "analytic-model", worst <= 1e-4, worst, 1e-4))
    order = np.argsort(rep.radii)
    mono = float(np.diff(rep.ratios[order]).max())
    report["checks"].append(_check_row(
        "ratio-monotone-in-r", mono <= 1e-12, mono, 1e-12))
    report["summary"] = {"r_inner": r1, "r_outer": r2,
                         "location": rep.location, "exact": rep.exact}
    return RunResult(report, {"density": (["r", "ratio"],
                                          list(zip(rep.radii, rep.ratios)))})


KINDS = {
    "metric-suite": Kind(_run_metric_suite),
    "solve": Kind(_run_solve, ("domain", "data"), ("Q", "solver", "checks")),
    "interpolation": Kind(_run_interpolation, ("domain",)),
    "frequency": Kind(_run_frequency, ("domain", "data"),
                      ("Q", "solver", "scan", "source", "checks")),
    "collapse": Kind(_run_collapse, ("domain", "data"),
                     ("Q", "solver", "scan", "checks")),
    "zeros": Kind(_run_zeros, (), ("rings",)),
    "decay": Kind(_run_decay),
    "density": Kind(_run_density, ("points",)),
    "two-circles": Kind(_run_two_circles, ("r_inner", "r_outer"), ("expect",)),
}


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
        result = KINDS[cfg["kind"]].run(cfg)
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
