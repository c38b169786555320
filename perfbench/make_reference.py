"""Record the gate's reference artifacts: every input variant of every workload.

    python3 perfbench/make_reference.py [WORKLOAD...]

Runs each variant's command once (untraced, --jobs 1) on the checkout's
sources and writes the data rows of its artifacts to
perfbench/reference/<workload>.json.gz.  The checked-in references were
recorded at the commit that defined the benchmark; rerun this only when a
change to the benchmark adds or alters variants, never to make a changed
program pass.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys

import gate
import run
import workloads


def main(names) -> int:
    env = run.child_env()
    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(workloads.VARIANTS):
        table = {}
        for i, inputs in enumerate(workloads.VARIANTS[name]):
            workdir = os.path.join(run.WORK, "reference", name, str(i))
            shutil.rmtree(workdir, ignore_errors=True)
            record, stderr = run.run_command(inputs, False, workdir, env)
            if record is None or record["exit"] != 0:
                print(f"{name}: {inputs.key} failed:\n{stderr}", file=sys.stderr)
                return 1
            table[inputs.key] = {
                a: gate.read_artifact(os.path.join(workdir, a)) for a in inputs.artifacts
            }
            print(f"{name}: {inputs.key} ({record['wall_s']:.1f} s)", flush=True)
        with open(gate.reference_path(name), "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(table, sort_keys=True).encode("ascii"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
