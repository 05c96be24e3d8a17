"""Rewrite the golden report bodies and CSVs from the shipped presets.

    python tests/golden/record.py

Runs every preset of ``qhalf.cli.list_presets()`` once, with its own seed,
and stores under ``tests/golden/<preset>/`` every file the run writes: the
report with its timestamp line dropped, and each CSV as written.
``tests/test_golden.py`` compares later runs with these files; its
docstring states when they may be re-recorded.
"""

import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from qhalf.cli import list_presets, run  # noqa: E402


def main():
    for name, cfg in list_presets():
        dest = GOLDEN / name
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir()
        with tempfile.TemporaryDirectory() as tmp:
            rc = run(cfg, out_dir=tmp)
            for path in sorted(Path(tmp).iterdir()):
                text = path.read_text()
                if path.name.endswith("-report.json"):
                    text = text.split("\n", 1)[1]
                (dest / path.name).write_text(text)
        print(f"{name}: exit {rc}")


if __name__ == "__main__":
    main()
