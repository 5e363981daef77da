"""Time one set-up in a fresh interpreter, as a user pays it: the first
``import octocache`` plus the public set-up calls for one instance of the
workload (``workloads.set_up``). Prints one JSON line with the time and the
instance's event and malformed-line counts.

    python3 perfbench/time_setup.py <workload> <seed> [<trace csv>]
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv):
    workload_name, seed = argv[0], int(argv[1])
    trace_path = argv[2] if len(argv) > 2 else None
    start = time.perf_counter()
    import octocache  # noqa: F401  (the import is part of what is timed)

    import workloads
    config = workloads.cell_configs(workloads.WORKLOADS[workload_name], seed,
                                    trace_path=trace_path)[0]
    instance = workloads.set_up(config)
    seconds = time.perf_counter() - start
    print(json.dumps({"setup_s": seconds,
                      "events": len(instance.trace.events),
                      "malformed_lines": instance.trace.malformed_lines}))


if __name__ == "__main__":
    main(sys.argv[1:])
