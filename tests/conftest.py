"""Shared preset runs, each shipped preset at most once per session, and
the solver's stop rule set per test."""

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


@pytest.fixture
def stop_rule(monkeypatch):
    """stop_rule(update_stop=None, max_sweeps=None) sets minimize's stop
    rule, solver.UPDATE_STOP and MAX_SWEEPS, for this test; a value left
    out keeps the solver's."""

    def set_rule(update_stop=None, max_sweeps=None):
        if update_stop is not None:
            monkeypatch.setattr("qhalf.solver.UPDATE_STOP", update_stop)
        if max_sweeps is not None:
            monkeypatch.setattr("qhalf.solver.MAX_SWEEPS", max_sweeps)

    return set_rule
