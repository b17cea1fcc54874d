"""Fresh-process set-ups of a workload, for setup_s.

    python3 perfbench/setup_probe.py polar16      # one set-up, then exit
    python3 perfbench/setup_probe.py --serve      # launcher, see serve()

One set-up imports polarfec, builds the workload's codes and makes one
warm-up call; its wall time from spawn to exit is one setup_s sample.
"""

import subprocess
import sys
from time import perf_counter


def probe(name):
    # Imported here, not at the top, so that the launcher stays small.
    import common
    from workloads import WORKLOADS

    workload = WORKLOADS[name](common.load_polarfec(), common.load_definitions())
    workload.setup()
    workload.warmup()


def serve():
    """Read workload names from stdin; for each, time one probe and print it.

    run.py starts this launcher at the beginning of a run and reads
    peak_rss_mb before it closes it, so neither the launcher nor its probes
    count there: children count in RUSAGE_CHILDREN only once reaped.
    """
    for line in sys.stdin:
        start = perf_counter()
        subprocess.run([sys.executable, __file__, line.strip()], check=True)
        print(perf_counter() - start, flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "--serve":
        serve()
    else:
        probe(sys.argv[1])
