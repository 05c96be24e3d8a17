"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py RUNS_JSON OUT_DIR MODE

MODE is ``setup`` (import and validate only), ``pass`` (then run every
preset through ``qhalf.cli.run``) or ``trace`` (the same with spans
recorded). Set-up time covers importing ``qhalf.cli`` and loading and
validating the workload's configs, as a CLI call pays them. The result,
with each preset's report, and in trace mode the spans, are written to
OUT_DIR as JSON.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(runs_path, out_dir, mode):
    t0 = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    import qhalf.cli as cli

    tracer = None
    if mode == "trace":
        sys.path.insert(0, str(HERE))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    with open(runs_path) as fh:
        runs = json.load(fh)
    for item in runs:
        cli.validate_config(item["config"])
    setup_s = time.perf_counter() - t0

    presets = []
    wall_s = 0.0
    if mode != "setup":
        t_pass = time.perf_counter()
        for item in runs:
            label = item["config"].get("label", item["config"]["kind"])
            if tracer is not None:
                tracer.run = label
            t_run = time.perf_counter()
            try:
                rc, error = cli.run(item["config"], out_dir=out_dir,
                                    seed=item["seed"]), None
            except Exception:  # the pass goes on; the run counts as failed
                rc, error = None, traceback.format_exc()
            presets.append({"label": label, "kind": item["config"]["kind"],
                            "rc": rc, "error": error,
                            "wall_s": time.perf_counter() - t_run})
        wall_s = time.perf_counter() - t_pass

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for p in presets:
        try:
            p["report"] = cli.read_report(Path(out_dir) / f"{p['label']}-report.json")
        except FileNotFoundError:
            p["report"] = None
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "presets": presets}
    with open(Path(out_dir) / "pass.json", "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        with open(Path(out_dir) / "spans.json", "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
