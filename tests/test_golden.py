"""Every shipped preset against its recorded report body and CSV files.

The golden copies under ``tests/golden/<preset>/`` are written by
``tests/golden/record.py``: each report without its timestamp line, and
every CSV the run writes. The set of files, keys, strings, ints and bools
must match exactly; floats must match within the relative tolerance RTOL.

Re-recording rule: a golden copy may be re-recorded only in a change whose
CHANGES.md entry lists every moved field with its old and new value. No
tolerance is ever widened to let a change through.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from qhalf.cli import list_presets

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _csv_rows(text):
    return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def assert_same(new, old, where):
    if isinstance(old, float) and isinstance(new, float):
        same = (math.isnan(old) and math.isnan(new)) or math.isclose(
            new, old, rel_tol=RTOL, abs_tol=0.0)
        assert same, f"{where}: {new!r} != golden {old!r}"
        return
    assert type(new) is type(old), f"{where}: {new!r} != golden {old!r}"
    if isinstance(old, dict):
        assert sorted(new) == sorted(old), f"{where}: keys differ"
        for key in old:
            assert_same(new[key], old[key], f"{where}.{key}")
    elif isinstance(old, list):
        assert len(new) == len(old), f"{where}: length {len(new)} != {len(old)}"
        for i, (a, b) in enumerate(zip(new, old)):
            assert_same(a, b, f"{where}.{i}")
    else:
        assert new == old, f"{where}: {new!r} != golden {old!r}"


@pytest.mark.parametrize("name", [name for name, _ in list_presets()])
def test_preset_matches_golden(preset_run, name):
    out = preset_run(name)[3]
    gold = GOLDEN / name
    files = sorted(p.name for p in out.iterdir())
    assert files == sorted(p.name for p in gold.iterdir())
    for fname in files:
        new, old = (out / fname).read_text(), (gold / fname).read_text()
        if fname.endswith("-report.json"):
            assert_same(json.loads(new.split("\n", 1)[1]), json.loads(old), fname)
        else:
            assert_same(_csv_rows(new), _csv_rows(old), fname)
