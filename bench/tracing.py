"""Spans around calls into qhalf's modules, recorded from outside the package.

``Tracer.install`` replaces each traced public function at the names its
callers bind (``from .qpoint import batch_match_values`` in solver.py binds
``qhalf.solver.batch_match_values``) with a wrapper that records a span:
name, start, end, parent span, the preset run it belongs to, and a few
counts taken from its arguments or result. ``calibrate_kappa`` imports
``minimize`` when it runs, so patching ``qhalf.solver.minimize`` catches the
hidden calibration solve too. Spans stay in memory until the pass ends.

``layer_metrics`` turns a pass's spans into the per-layer metrics; a
layer's self time is its span's duration minus that of its direct children.
"""

import functools
import importlib
import time

# Column order of one recorded span.
NAME, START, END, PARENT, RUN, COUNTS = range(6)


def _rows(args, result):
    return {"rows": int(len(args[0]))}


def _solve(args, result):
    info = result[1]
    return {"h": float(args[0].h), "sweeps": int(info.sweeps),
            "converged": bool(info.converged)}


def _nodes(args, result):
    return {"nodes": int(result.n_nodes)}


# (span name, modules whose binding is replaced, count function)
TRACED = (
    ("qpoint.batch_match_values", ("qhalf.solver", "qhalf.frequency"), _rows),
    ("qpoint.batch_match_cost2", ("qhalf.solver", "qhalf.frequency"), _rows),
    ("qpoint.g_distance", ("qhalf.cli",), None),
    ("qpoint.g_distance_bruteforce", ("qhalf.cli",), None),
    ("solver.minimize", ("qhalf.cli", "qhalf.solver"), _solve),
    ("solver.edge_energy", ("qhalf.solver",), None),
    ("solver.collapse_decompose", ("qhalf.cli",), None),
    ("solver.interpolate_annulus", ("qhalf.cli",), None),
    ("solver.harmonic_reference", ("qhalf.cli",), None),
    ("solver.sample_map", ("qhalf.cli",), None),
    ("frequency.frequency_scan", ("qhalf.cli", "qhalf.frequency"), None),
    ("frequency.calibrate_kappa", ("qhalf.cli",), None),
    ("frequency.check_monotonicity", ("qhalf.cli",), None),
    ("frequency.check_doubling_bounds", ("qhalf.cli",), None),
    ("frequency.check_outer_identity", ("qhalf.cli",), None),
    ("domain.build_halfdisk", ("qhalf.cli",), _nodes),
    ("domain.build_distance_field", ("qhalf.cli", "qhalf.frequency"), None),
    ("data_maps.make_boundary_data", ("qhalf.data_maps",), None),
    ("holomorphic.find_zeros_numeric", ("qhalf.cli", "qhalf.surface"), None),
    ("holomorphic.derivative_decay_check", ("qhalf.cli",), None),
    ("surface.density_at", ("qhalf.cli",), None),
    ("surface.build_surface", ("qhalf.cli",), None),
    ("surface.two_circles_density", ("qhalf.cli",), None),
    ("cli.validate_config", ("qhalf.cli",), None),
    ("cli.write_report", ("qhalf.cli",), None),
    ("cli.emit_plotdata", ("qhalf.cli",), None),
    ("cli.run", ("qhalf.cli",), None),
)

CHECKS = ("frequency.check_monotonicity", "frequency.check_doubling_bounds",
          "frequency.check_outer_identity")
LADDER = (32, 64, 128)


class Tracer:
    """Records one span per call of every traced function."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = None  # label of the preset run in progress

    def install(self):
        for name, modules, count in TRACED:
            attr = name.rsplit(".", 1)[1]
            bound = [importlib.import_module(m) for m in modules]
            wrapper = self._wrap(name, getattr(bound[0], attr), count)
            for module in bound:
                setattr(module, attr, wrapper)

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(args, result)
            return result

        return traced


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def nesting_errors(spans, own):
    """Children outside their parent's interval, and negative self times."""
    errors = []
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            p = spans[s[PARENT]]
            if s[START] < p[START] or s[END] > p[END]:
                errors.append(f"span {i} {s[NAME]} lies outside its parent {p[NAME]}")
        if own[i] < 0:
            errors.append(f"span {i} {s[NAME]} has negative self time {own[i]!r}")
    return errors


def layer_metrics(spans, collapse_runs):
    """Per-layer metric values of one traced pass.

    collapse_runs: labels of the collapse-kind preset runs, whose minimize
    spans give the h-ladder milliseconds per sweep.
    """
    own = self_times(spans)
    time_s, self_s, counts = {}, {}, {}
    for s, mine in zip(spans, own):
        name = s[NAME]
        time_s[name] = time_s.get(name, 0.0) + (s[END] - s[START])
        self_s[name] = self_s.get(name, 0.0) + mine
        for key, value in (s[COUNTS] or {}).items():
            counts[name, key] = counts.get((name, key), 0) + value
    # A call that raised has no counts; it still counts as a solve attempted.
    solves = [s for s in spans if s[NAME] == "solver.minimize"]

    out = {f"{name}.time_s": time_s.get(name, 0.0) for name, _, _ in TRACED
           if name not in CHECKS and name != "cli.run"}
    out["frequency.checks.time_s"] = sum(time_s.get(c, 0.0) for c in CHECKS)
    out["solver.minimize.self_s"] = self_s.get("solver.minimize", 0.0)
    out["cli.run.self_s"] = self_s.get("cli.run", 0.0)
    for name in ("qpoint.batch_match_values", "qpoint.batch_match_cost2"):
        out[f"{name}.rows"] = counts.get((name, "rows"), 0)
    out["domain.nodes"] = counts.get(("domain.build_halfdisk", "nodes"), 0)
    out["solver.sweeps"] = counts.get(("solver.minimize", "sweeps"), 0)
    converged = counts.get(("solver.minimize", "converged"), 0)
    out["solver.converged_share"] = converged / len(solves) if solves else 0.0
    for n in LADDER:
        level = [s for s in solves if s[COUNTS] and s[RUN] in collapse_runs
                 and round(1 / s[COUNTS]["h"]) == n]
        sweeps = sum(s[COUNTS]["sweeps"] for s in level)
        seconds = sum(s[END] - s[START] for s in level)
        out[f"solver.ms_per_sweep.h{n}"] = 1000.0 * seconds / sweeps if sweeps else 0.0
    return out, nesting_errors(spans, own)
