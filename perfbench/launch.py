"""Start one program process, wait for it, and print its measurements.

    python perfbench/launch.py STDOUT_FILE STDERR_FILE ARGV...

Prints one JSON object: exit code, wall seconds from start to reap, CPU
seconds and peak resident set.  run.py starts every program process
through this small interpreter because Linux credits a child with the
peak memory of the address space it was started from: started straight
from run.py, whose memory grows while it checks large outputs, each
child would report run.py's peak as its own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    out_path, err_path, *argv = sys.argv[1:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "rc": proc.returncode,
        "seconds": seconds,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }))


if __name__ == "__main__":
    main()
