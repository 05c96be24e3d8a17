"""qhalf benchmark: shipped presets through ``qhalf.cli.run``, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads, metrics and units are declared
in ``BENCHMARK.json``; the design behind them is in ``bench/DESIGN.md``.

Every pass runs in a fresh interpreter, one at a time, so set-up cost and
peak memory are those of a single CLI process. With ``--trace 0`` the run
first times several set-up-only interpreters, then repeats untraced passes
while the next one still fits in ``--seconds`` (at least one), and reports
medians. With ``--trace 1`` it runs pairs of one untraced and one traced
pass and reports the per-layer metrics of the traced passes.

Each preset run is checked: it must exit 0 and, for the solver workloads,
reach the minimum recorded in ``bench/references.json``. Human-readable
lines go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
whenever a result was printed; a run that cannot measure at all exits 1
and prints no result.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".bench_run"
SETUP_PROBES = 3
DEADLINE_S = 175.0  # every run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Session:
    """One benchmark invocation: its scratch directory, clock and outcomes."""

    def __init__(self, workload, runs, references, work_dir):
        self.workload = workload
        self.references = references
        self.work_dir = work_dir
        self.runs_path = work_dir / "runs.json"
        with open(self.runs_path, "w") as fh:
            json.dump(runs, fh)
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0
        self.attempted = 0
        self.misses = []  # (pass, label, reasons), one per failed preset run
        self.trace_errors = []

    def worker(self, mode):
        """One fresh-interpreter pass; gates its preset runs, returns its result."""
        self.count += 1
        out_dir = self.work_dir / f"pass-{self.count}"
        out_dir.mkdir()
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the pass could start")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(self.runs_path),
                 str(out_dir), mode],
                capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass did not finish before the deadline")
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr}")
        with open(out_dir / "pass.json") as fh:
            result = json.load(fh)
        for p in result["presets"]:
            self.attempted += 1
            reasons = ([p["error"]] if p["error"] else
                       workloads.gate(p["report"], p["rc"], self.references))
            if reasons:
                self.misses.append((self.count, p["label"], reasons))
        if mode == "trace":
            with open(out_dir / "spans.json") as fh:
                result["spans"] = json.load(fh)
        return result


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def measure(session, seconds):
    """Untraced: set-up probes, then passes while the next one fits.

    ``wall_s`` is the wall time of one pass built from each preset run's
    median over the passes. It uses every pass, as a mean would, and a
    preset run slowed by a burst of load in one pass does not move it.
    With one pass it is that pass's wall time.
    """
    start = time.monotonic()
    setups = [session.worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    walls, rss, per_run = [], [], {}
    while True:
        t = time.monotonic()
        result = session.worker("pass")
        setups.append(result["setup_s"])
        walls.append(result["wall_s"])
        rss.append(result["peak_rss_mb"])
        for i, p in enumerate(result["presets"]):
            per_run.setdefault(i, []).append(p["wall_s"])
        print(f"# pass {len(walls)}: wall {walls[-1]:.4f} s" + ladder_line(result["presets"]))
        used = time.monotonic() - start
        if used + (time.monotonic() - t) > seconds:
            break
    wall = sum(statistics.median(v) for v in per_run.values())
    tail = tail_percentile(walls)
    print(f"# wall_s over {len(walls)} passes: {wall:.4f} s from per-preset medians, "
          f"median pass {statistics.median(walls):.4f} s, "
          + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
             "no percentile has ten samples beyond it"))
    print(f"# setup_s over {len(setups)} interpreters: "
          f"median {statistics.median(setups):.4f} s")
    share = 1.0 - len(session.misses) / session.attempted
    return {"wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "pass_share": share}


def ladder_sweeps(presets):
    """solver.sweeps.h32/h64/h128 from the collapse reports' levels."""
    out = {f"solver.sweeps.h{n}": 0 for n in tracing.LADDER}
    for p in presets:
        if p["kind"] == "collapse" and p["report"]:
            for level in p["report"].get("summary", {}).get("levels", []):
                key = f"solver.sweeps.h{round(1 / level['h'])}"
                if key in out:
                    out[key] += level["sweeps"]
    return out


def ladder_line(presets):
    """Sweeps per h-ladder level of a pass, for the per-pass line."""
    sweeps = ladder_sweeps(presets)
    if not any(sweeps.values()):
        return ""
    return ", sweeps h32/h64/h128 " + "/".join(str(v) for v in sweeps.values())


def measure_traced(session, seconds):
    """Pairs of one untraced and one traced pass while the next pair fits."""
    samples = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        plain = session.worker("pass")
        traced = session.worker("trace")
        collapse_runs = {p["label"] for p in traced["presets"] if p["kind"] == "collapse"}
        layers, errors = tracing.layer_metrics(traced["spans"], collapse_runs)
        session.trace_errors.extend(errors)
        layers.update(ladder_sweeps(traced["presets"]))
        layers["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
        samples.append(layers)
        with open(WORK / f"{session.workload}-spans.json", "w") as fh:
            json.dump(traced["spans"], fh)
        used = time.monotonic() - start
        if used + (time.monotonic() - t) > seconds:
            break
    print(f"# per-layer metrics: median over {len(samples)} traced passes")
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        end_to_end, per_layer = declared_metrics()
        runs = workloads.make_runs(args.workload, args.seed)
        references = workloads.load_references()
        WORK.mkdir(exist_ok=True)
        work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
        try:
            session = Session(args.workload, runs, references, work_dir)
            session.worker("setup")  # untimed: compiles bytecode, warms the file cache
            if args.trace:
                values, units = measure_traced(session, args.seconds), per_layer
            else:
                values, units = measure(session, args.seconds), end_to_end
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: cannot measure: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"bench: metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    failed = len(session.misses)
    for p, label, reasons in session.misses:
        print(f"# MISS pass {p} {label}: " + "; ".join(r.strip() for r in reasons))
    for error in session.trace_errors[:10]:
        print(f"# TRACE {error}")
    print(f"# fail_share {failed / session.attempted:.4f} "
          f"({failed} of {session.attempted} preset runs)")
    for name in units:
        print(f"{name} {values[name]!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not session.trace_errors,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
