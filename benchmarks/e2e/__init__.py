"""The repo benchmark: continual-stream training and open-loop serving.

Run ``python3 benchmarks/e2e/run.py``; see ``README.md`` beside this file.
Importing the package puts the repo's ``src`` on ``sys.path`` so the
benchmark drives the ``repro`` package of the checkout it sits in.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
