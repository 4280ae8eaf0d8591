"""Entry point of the cgrs benchmark.

    python3 perfbench/run.py --workload zipf-152k --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the engine from ``src/``.
The last line of standard output is the JSON result; see perfbench/README.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "cgrs" / "__init__.py").is_file() or not (ROOT / "demo").is_dir():
        sys.exit(f"perfbench: {ROOT} holds no cgrs sources (src/cgrs) and demo data")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import cgrs

    if Path(cgrs.__file__).resolve().parent != SRC / "cgrs":
        sys.exit(f"perfbench: imported cgrs from {cgrs.__file__}, not from {SRC}")
    from perfbench.bench import main

    sys.exit(main())
