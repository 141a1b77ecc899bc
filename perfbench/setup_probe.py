"""One set-up sample, taken in a fresh interpreter.

Imports the simulator, then builds and installs every machine one pass of
the named workload runs, and prints ``{"import_s": .., "build_s": ..}``.
``run.py`` starts this several times and reports the median sum as
``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import os
import sys
import time

start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

from cells import WORKLOADS  # noqa: E402

imported = time.perf_counter()
WORKLOADS[sys.argv[1]](int(sys.argv[2])).build_all()
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "build_s": built - imported}))
