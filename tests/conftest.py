"""Shared preset runs: each shipped preset runs at most once per session."""

import time

import pytest

from qhalf.cli import load_preset, read_report, run


@pytest.fixture(scope="session")
def preset_run(tmp_path_factory):
    """preset_run(name) -> (exit code, report, seconds, output directory).

    The first call for a preset runs it into a directory of its own; later
    calls in the same session return that run.
    """
    root = tmp_path_factory.mktemp("presets")
    runs = {}

    def get(name):
        if name not in runs:
            out = root / name
            t0 = time.monotonic()
            rc = run(load_preset(name), out_dir=str(out))
            elapsed = time.monotonic() - t0
            runs[name] = (rc, read_report(out / f"{name}-report.json"),
                          elapsed, out)
        return runs[name]

    return get
