"""One traced `fusionkit` CLI invocation, for the traced cli-oneshot run.

Usage: python3 cli_probe.py ARGS...  (with fusionkit on PYTHONPATH)
Runs the CLI with the same arguments and output, then writes one last
stderr line `#bench {...}` with the monotonic clock at start, after import
and after the command, and the per-layer stats of the invocation.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import fusionkit.cli  # noqa: E402

IMPORTED = time.perf_counter()

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
COMMAND = time.perf_counter()
code = fusionkit.cli.main(sys.argv[1:])
DONE = time.perf_counter()

import json  # noqa: E402

sys.stdout.flush()
layers = {name: {"calls": s.calls, "items": s.items, "total_s": s.total_s, "self_s": s.self_s}
          for name, s in tracer.stats.items()}
record = {"start": START, "imported": IMPORTED, "command": COMMAND, "done": DONE, "layers": layers}
print("#bench " + json.dumps(record), file=sys.stderr)
sys.exit(code)
