"""The README's code and tables stay in step with the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import shuffleleak
from shuffleleak.config import BASE_METHODS, CELLS

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_library_tour_runs():
    # a fresh interpreter, so the block sees only what it imports itself
    code = re.search(r"```python\n(.*?)```", section("Library tour"), re.S).group(1)
    src = str(Path(shuffleleak.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_method_table_matches_the_cell_table():
    lines = (line.strip() for line in section("CLI").splitlines())
    header, *rows = [line for line in lines if line.startswith("| ") and "---" not in line]
    assert [c.strip(" `") for c in header.strip("|").split("|")[1:]] == list(BASE_METHODS)
    table = {}
    for row in rows:
        key, *cells = (c.strip() for c in row.strip("|").split("|"))
        mode, quantity = key.replace("`", "").split()
        table[mode, quantity] = {
            base: tuple(c.strip() for c in cell.split(","))
            for base, cell in zip(BASE_METHODS, cells)
            if cell != "—"
        }
    assert table == CELLS
