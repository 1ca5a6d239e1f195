"""Launcher for the traced ``cli`` pass: runs ``tnnflag.cli.run`` on its
arguments exactly as ``python -m tnnflag`` would, and writes the time at
interpreter start, the import time and the time inside ``cli.run`` as JSON
to the file named by PERFBENCH_LAUNCH_TIMES.

    PYTHONPATH=src PERFBENCH_LAUNCH_TIMES=t.json python3 perfbench/launch.py decide v.json
"""

from time import perf_counter

start = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main():
    t0 = perf_counter()
    import tnnflag.cli
    t1 = perf_counter()
    code = tnnflag.cli.run(sys.argv[1:])
    t2 = perf_counter()
    sys.stdout.flush()
    with open(os.environ["PERFBENCH_LAUNCH_TIMES"], "w") as fh:
        json.dump({"start": start, "import_s": t1 - t0, "run_s": t2 - t1}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
