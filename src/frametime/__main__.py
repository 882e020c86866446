"""The command process's entry: `python -m frametime` and the `frametime`
script both call `run`, and importing this module runs no command.

A command's own work is 4-40 ms of a process that costs 120-170 ms, most
of it imports, and the cyclic garbage collector took about 20 ms of that.
The imports leave about 21,800 tracked objects and trigger 57 collections
on the way, and the interpreter's exit walks and tears the same objects
down again.  So `run` imports the commands with the collector off, moves
what the imports built to the permanent generation, which no collection
walks, before the command runs, and freezes what is alive when it ends,
however it ends.  The command's own garbage is still collected.  On a
2-vCPU host (Python 3.11, numpy 2.4), pinned to one CPU, medians of 20
alternating processes went from 146.0 to 122.1 ms for `govern`, 163.7 to
141.6 ms for `replay` and 139.3 to 122.4 ms for `characterize`; each
process peaks 0.3-0.4 MB higher, for the import cycles it never collects.

Every matrix the commands form is small, so `run` also asks for one BLAS
thread unless the environment names a count: unpinned, OpenBLAS's idle
workers raised a `govern` process's CPU time from 143 to 245 ms, and
saved no wall time.

This module imports no numpy, so `run` acts before numpy loads.
`cli.main`, which tests and other programs call in their own process,
touches neither the collector nor the environment.
"""

import gc
import os
import sys


def run() -> int:
    """Run the command sys.argv names and return its exit code."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    gc.disable()
    from . import cli
    gc.freeze()
    gc.enable()
    try:
        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
