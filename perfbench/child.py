"""Run one rainbow-lab command in this fresh interpreter and report on it.

    python3 perfbench/child.py RESULT.json TRACE ARG...

Imports rainbow_lab.cli (not timed), wraps the layers with span recording
when TRACE is 1, times rainbow_lab.cli.main(ARG...) in-process and writes a
JSON record to RESULT.json: exit code, wall time, peak RSS, the source file
it imported, the environment facts and, when traced, the per-layer metrics.
The spans themselves go to RESULT.spans.json.  Artifacts land in the
working directory.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def environment() -> dict:
    """Facts that decide how fast this interpreter runs the command."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    if libs:
        get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import rainbow_lab.cli as cli

    rec = None
    if trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    record = {
        "exit": code,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "source": os.path.abspath(cli.__file__),
        "env": environment(),
    }
    if rec is not None:
        record["layers"] = spans.summarize(rec, wall)
        record["spans"] = len(rec.spans)
        with open(result_path + ".spans.json", "w", encoding="ascii") as fh:
            json.dump(rec.export(), fh)
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
