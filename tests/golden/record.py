"""Rewrite the golden report bodies and CSVs from the shipped presets.

    python tests/golden/record.py           # re-record every preset
    python tests/golden/record.py --diff    # list moved fields, write nothing

Runs every preset of ``qhalf.cli.list_presets()`` once, with its own seed,
and stores under ``tests/golden/<preset>/`` every file the run writes: the
report with its timestamp line dropped, and each CSV as written.
``tests/test_golden.py`` compares later runs with these files; its
docstring states when they may be re-recorded.

With ``--diff`` nothing is written. Every field of a golden file that the
fresh run does not reproduce exactly is printed with its old value, its
new value and the relative change: the list a re-recording must state.
The exit status is 1 when any field moved (or a file is only on one
side) and 0 when none did, so a script can check for "0 moved fields".
"""

import argparse
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from qhalf.cli import list_presets, run  # noqa: E402

MISSING = object()


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse(name, text):
    if name.endswith("-report.json"):
        return json.loads(text)
    return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def moved_fields(new, old, where):
    """Yield (where, old, new) for every leaf that new does not repeat."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new), key=str):
            yield from moved_fields(new.get(key, MISSING), old.get(key, MISSING),
                                    f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(new, old)):
            yield from moved_fields(a, b, f"{where}.{i}")
    elif not (type(new) is type(old) and (new == old or _both_nan(new, old))):
        yield where, old, new


def _both_nan(a, b):
    return isinstance(a, float) and math.isnan(a) and math.isnan(b)


def _relative(old, new):
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (old, new))
    if not numbers:
        return "n/a"
    if old == 0:
        return "inf"
    return f"{(new - old) / abs(old):.2e}"


def _show(value):
    return "<missing>" if value is MISSING else repr(value)


def diff_preset(name, out):
    """Lines naming every golden field of one preset that the run in out moves."""
    gold = GOLDEN / name
    lines = []
    for fname in sorted({p.name for p in out.iterdir()}
                        | {p.name for p in gold.iterdir()}):
        new_path, old_path = out / fname, gold / fname
        if not old_path.exists() or not new_path.exists():
            side = "golden copy" if old_path.exists() else "fresh run"
            lines.append(f"{fname}: only in the {side}")
            continue
        new_text = new_path.read_text()
        if fname.endswith("-report.json"):
            new_text = new_text.split("\n", 1)[1]
        new = _parse(fname, new_text)
        old = _parse(fname, old_path.read_text())
        for where, a, b in moved_fields(new, old, fname):
            lines.append(f"{where}: {_show(a)} -> {_show(b)} "
                         f"(relative {_relative(a, b)})")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--diff", action="store_true",
                        help="print the fields a fresh run moves; write nothing")
    args = parser.parse_args(argv)
    total = 0
    for name, cfg in list_presets():
        with tempfile.TemporaryDirectory() as tmp:
            rc = run(cfg, out_dir=tmp)
            if args.diff:
                lines = diff_preset(name, Path(tmp))
                total += len(lines)
                print(f"{name}: exit {rc}, {len(lines)} moved fields")
                for line in lines:
                    print(f"  {line}")
                continue
            dest = GOLDEN / name
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir()
            for path in sorted(Path(tmp).iterdir()):
                text = path.read_text()
                if path.name.endswith("-report.json"):
                    text = text.split("\n", 1)[1]
                (dest / path.name).write_text(text)
        print(f"{name}: exit {rc}")
    if args.diff:
        print(f"{total} moved fields")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
