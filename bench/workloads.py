"""Benchmark workloads: preset runs generated from a seed, and their gates.

A workload is a list of run items ``{"config": ..., "seed": ...}``. Each
item goes through ``qhalf.cli.run(config, out_dir, seed=seed)`` unchanged,
so the program sees only the generated configs. Presets are read straight
from the package's preset files; this module does not import qhalf.

Gates compare each report with references recorded from the seed commit
(``references.json``). A preset run passes when it exits 0, its report
passed, and its solver results reach the recorded minimum to solver
precision. Sweep counts are not gated: a faster solver may change them.
"""

import json
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESET_DIR = ROOT / "src" / "qhalf" / "presets"
REFERENCES = Path(__file__).resolve().parent / "references.json"

# Every shipped preset but collapse-refinement, fixed by name so that a
# preset added later does not silently change the workload. The two wavy
# presets are deterministic; the other twelve take the seed.
WAVY_PRESETS = ("monotonicity-wavy", "doubling-bounds")
ANALYTIC_PRESETS = (
    "collapse-q3-linear", "decay-orders", "density-suite", "frequency-linear",
    "frequency-sqrt-branch", "interpolation-bound", "metric-suite",
    "monotonicity-control", "solve-classical", "two-circles",
    "zeros-annulus-n0", "zeros-three-rings",
)

# Solver precision for the gates. Energies sit at a minimum, so they agree
# to second order in the solver's residual; i0, kappa and the sheet spread
# move to first order, hence the looser tolerance.
ENERGY_RTOL = 1e-9
FIRST_ORDER_RTOL = 1e-6
ABS_TOL = 1e-12


def load_preset(name):
    with open(PRESET_DIR / f"{name}.json") as fh:
        return json.load(fh)


def collapse_ladder(seed):
    """collapse-refinement with its sheet storage order permuted by the seed.

    The boundary data is the same multiset of sheets in any order, so the
    minimum (energy and sheet spread per level) does not depend on the seed.
    """
    rng = random.Random(seed)
    cfg = load_preset("collapse-refinement")
    params = cfg["data"]["params"]
    for key in ("plus_weights", "minus_weights"):
        rng.shuffle(params[key])
    return [{"config": cfg, "seed": None}]


def preset_mix(seed):
    """The two wavy-interface presets, then the other twelve with the seed forwarded."""
    return ([{"config": load_preset(name), "seed": None} for name in WAVY_PRESETS]
            + [{"config": load_preset(name), "seed": int(seed)}
               for name in ANALYTIC_PRESETS])


WORKLOADS = {
    "collapse-ladder": collapse_ladder,
    "preset-mix": preset_mix,
}


def make_runs(workload, seed):
    return WORKLOADS[workload](seed)


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def _close(value, ref, rtol):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isclose(value, ref, rel_tol=rtol, abs_tol=ABS_TOL))


def gate(report, rc, references):
    """Reasons a preset run missed; an empty list means it passed."""
    if report is None:
        return [f"no report (exit {rc})"]
    if rc != 0:
        return [f"exit {rc}"]
    if "error" in report or not report.get("passed"):
        return ["report did not pass"]
    ref = references.get(report.get("label"))
    if ref is None:
        return []
    misses = []
    summary = report.get("summary", {})
    if "levels" in ref:
        levels = summary.get("levels", [])
        if [lv.get("h") for lv in levels] != [lv["h"] for lv in ref["levels"]]:
            return ["refinement levels differ from the reference"]
        for got, want in zip(levels, ref["levels"]):
            n = round(1 / want["h"])
            if not _close(got.get("energy"), want["energy"], ENERGY_RTOL):
                misses.append(f"h=1/{n} energy {got.get('energy')!r} != {want['energy']!r}")
            if not _close(got.get("sheet_spread"), want["sheet_spread"],
                          FIRST_ORDER_RTOL):
                misses.append(f"h=1/{n} sheet_spread {got.get('sheet_spread')!r} "
                              f"!= {want['sheet_spread']!r}")
    for key, rtol in (("energy", ENERGY_RTOL), ("i0", FIRST_ORDER_RTOL),
                      ("kappa", FIRST_ORDER_RTOL)):
        if key in ref and not _close(summary.get(key), ref[key], rtol):
            misses.append(f"{key} {summary.get(key)!r} != {ref[key]!r}")
    return misses
