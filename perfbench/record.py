"""Record the reference values the output check compares against.

Run from the repository root at the commit whose values are the reference:

    python3 perfbench/record.py

It runs, through the CLI, the fig2/fig3 presets and the ``many_cells`` battery
at seed 0, and rewrites ``perfbench/reference.json``: every preset row, and
every finite exact, asymptotic and bound value of ``many_cells`` (which does
not depend on the seed, see ``workloads.many_cell_docs``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import REFERENCE_PATH  # noqa: E402
from run import WORK, import_package, run_battery  # noqa: E402
from workloads import build  # noqa: E402

RECORD_SEED = 0


def _rows(outcomes) -> list[list[str]]:
    rows = []
    for out in outcomes:
        if out.text is not None:
            rows += list(csv.reader(io.StringIO(out.text)))[1:]
    return rows


def main() -> int:
    import_package()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        presets = build("mc_presets", RECORD_SEED, tmp, 1)
        outcomes, _, _ = run_battery(presets, 1, tmp)
        for out in outcomes:
            if out.aborted:
                raise SystemExit(f"preset reference run failed: {out.aborted}")
        preset_rows = {f"{case},{n},{method}": [float(value), float(stderr) if stderr else None]
                       for case, n, method, _, value, stderr in _rows(outcomes)}
        many = build("many_cells", RECORD_SEED, tmp, 1)
        outcomes, _, _ = run_battery(many, 1, tmp)
        many_rows = {f"{case},{n},{method}": float(value)
                     for case, n, method, _, value, _ in _rows(outcomes)
                     if method != "mc" and math.isfinite(float(value))}
    REFERENCE_PATH.write_text(json.dumps(
        {"mc_presets": {"seed": RECORD_SEED, "rows": preset_rows},
         "many_cells": {"seed": RECORD_SEED, "rows": many_rows}}, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}: {len(preset_rows)} preset rows, "
          f"{len(many_rows)} many_cells values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
