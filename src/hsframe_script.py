"""The ``hsframe`` console script: ``hsframe.cli.main`` on one BLAS thread
unless the environment names a thread count.

A seeded command writes the same bytes on every run only at a fixed BLAS
thread count, because a threaded BLAS splits each product's sums across
threads and so rounds them differently.  ``main`` therefore sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 where they
are unset, so a value the user set wins.  BLAS reads them once, when numpy
loads, and the ``hsframe`` package imports numpy, so this module lives
outside the package and must run before anything imports numpy; in a
process that has already loaded numpy it changes nothing.  Library callers
keep their own environment.
"""

import os
import sys

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for name in THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from hsframe.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
