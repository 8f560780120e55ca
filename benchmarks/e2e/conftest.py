"""Make the benchmark's own modules (``ledger``, ``compare``) importable
by its tests, as they are to ``run.py`` run as a script."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
