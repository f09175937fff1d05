"""Self-tests of the benchmark harness (``python -m pytest perf/tests -q``).

Outside ``testpaths``, so the tier-1 suite is untouched.  ``perf/`` is a
script directory, not a package: put it (and ``src/``) on the path.
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
for entry in (str(ROOT / "src"), str(PERF)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
