"""Make the benchmark's modules importable as top-level modules, the
way ``perfbench/run.py`` and ``perfbench/child.py`` import them."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
