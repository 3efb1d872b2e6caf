"""One set-up of the benchmark in a fresh interpreter: import the CLI and
get the interaction table (load from NETFORGE_CACHE, or build and write it
when the cache is empty). Prints one JSON line with the monotonic clock
reading at which the first op could start, and the split of that time.

Usage: python3 perfbench/setup_probe.py <src dir>
"""

import json
import sys
import time

t0 = time.monotonic()
sys.path.insert(0, sys.argv[1])

import netforge.cli  # noqa: E402,F401  (the import a CLI op needs)
import netforge.interaction as interaction  # noqa: E402

t1 = time.monotonic()
build_s = []
_build = interaction.build_table


def _timed_build(*args, **kwargs):
    start = time.monotonic()
    try:
        return _build(*args, **kwargs)
    finally:
        build_s.append(time.monotonic() - start)


interaction.build_table = _timed_build
interaction.load_or_build()
t2 = time.monotonic()
print(json.dumps({"ready": t2, "import_s": t1 - t0, "table_s": t2 - t1,
                  "build_s": sum(build_s), "built": bool(build_s)}))
