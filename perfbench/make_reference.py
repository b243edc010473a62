"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are known to be right.  Seeded
commands get one reference per seed in SEEDS; other seeds are checked on
their seed-free columns only.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from checks import REFERENCE_DIR, reference_path
from workloads import WORKLOADS

SEEDS = range(32)
BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for commands in WORKLOADS.values():
            for command in commands:
                for seed in (SEEDS if command.seeded else [None]):
                    argv = [sys.executable, str(BENCH_DIR / "child.py"), f"{tmp}/r.json",
                            "0", str(SRC), "--", *command.args(seed)]
                    out = subprocess.run(argv, capture_output=True, text=True, check=True)
                    reference_path(command.label, seed).write_text(out.stdout)
                    print(f"wrote {reference_path(command.label, seed).name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
