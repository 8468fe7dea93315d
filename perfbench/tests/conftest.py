"""Make the program and the benchmark importable from a plain checkout."""

import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent.parent
for path in (CHECKOUT, CHECKOUT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
