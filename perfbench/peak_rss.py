"""Run a command and print its peak resident memory in KiB.

    python3 -S perfbench/peak_rss.py <program> [args...]

A child's peak-memory figure starts from the memory its parent had when
it forked, so a large benchmark process cannot measure a small command
directly; this launcher is small (start it with -S), forks the command
and reports the peak from ``wait4``. It exits with the command's status.
"""

import os
import sys


def main() -> int:
    pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ)
    _, status, usage = os.wait4(pid, 0)
    print(usage.ru_maxrss)
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
