"""``python -m benchmarks.perf`` is ``python3 benchmarks/perf/run.py``."""

import sys

from benchmarks.perf.run import main

sys.exit(main())
