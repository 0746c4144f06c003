"""Run one ``snsflow`` command in this fresh process and report its peak memory.

    PYTHONPATH=src python3 perfbench/fresh_run.py mc --mesh-n 12 ...

The last line of standard output is ``VmHWM <kB>``: the high-water mark of this
process's resident memory since it was started. It is read from
``/proc/self/status`` because ``ru_maxrss`` also counts the memory of the
parent the process was forked from. The exit code is the command's.
"""

import sys

from snsflow import cli


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    rc = cli.main(sys.argv[1:])
    print(f"VmHWM {peak_rss_kb()}")
    raise SystemExit(rc)
