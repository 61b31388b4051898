"""Set-up of one workload in a fresh interpreter: import, then build.

Usage: python3 setup_probe.py MODULE ALGEBRA...  (with fusionkit on PYTHONPATH)
Prints the seconds from this script's first statement until MODULE is
imported and every ALGEBRA is built.  Interpreter start-up is left out: it
is the same for every version of the package.
"""

import time

START = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402

importlib.import_module(sys.argv[1])
from fusionkit import build  # noqa: E402

for name in sys.argv[2:]:
    build(name)
print(repr(time.perf_counter() - START))
