"""Set-up probe: one fresh process that does exactly a workload's set-up.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

It imports what the workload needs, builds its scenarios and gains, makes one
warm-up call, prints one JSON line and exits.  ``run.py`` times it from the
moment it starts the process to the moment that line arrives.
"""

import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    try:
        workloads.ensure_src()
    except workloads.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.make(name, seed, workdir)
    wl.setup()
    print(json.dumps({"cli_import_s": wl.cli_import_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
