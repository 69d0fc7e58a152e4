"""Benchmark-suite configuration: makes the in-tree ``src`` layout importable.

``python -m pytest benchmarks/e2e`` imports ``repro`` through this path.
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
