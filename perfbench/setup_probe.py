"""Print the seconds a fresh interpreter takes to import qht and its CLI.

Run from the root of a checkout: ``python3 perfbench/setup_probe.py``.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, "src")
import qht.cli  # noqa: E402

elapsed = time.perf_counter() - start
if Path(qht.__file__).resolve().parent != (Path("src") / "qht").resolve():
    sys.exit(f"imported qht from {qht.__file__}, not from src/qht")
print(repr(elapsed))
