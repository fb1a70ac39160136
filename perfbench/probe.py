"""Set-up probe, run in a fresh interpreter with ``src`` on ``PYTHONPATH``.

Imports ``shuffleleak.cli``, then loads and validates the workload's configs
the way the CLI does (JSON files through ``parse_config``, presets through
``preset_configs`` and ``validate_config``), and prints ``time.monotonic()``
at that point. The parent subtracts the monotonic time it took just before
starting the interpreter. Usage: ``python probe.py SPEC.json``.
"""

import json
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    import shuffleleak.cli  # noqa: F401  (the import is what is being timed)
    from shuffleleak.config import parse_config, validate_config
    from shuffleleak.runner import preset_configs

    spec = json.loads(Path(spec_path).read_text())
    for path in spec["configs"]:
        cfg, diags = parse_config(json.loads(Path(path).read_text()))
        if cfg is None or any("resource-limit" not in d.message for d in diags):
            print(f"probe: {path} does not validate: {diags}", file=sys.stderr)
            return 1
    for name in spec["presets"]:
        for cfg in preset_configs(name, None, spec["seed"]):
            if validate_config(cfg):
                print(f"probe: preset {name} does not validate", file=sys.stderr)
                return 1
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
