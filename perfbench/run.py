"""rainbow-lab benchmark: one CLI workload per run, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
src/ directory, nothing needs installing.  The seed picks the workload's
inputs (workloads.py).  Each command runs in a fresh interpreter through
rainbow_lab.cli.main(argv) with --jobs 1 and RAINBOW_LAB_JOBS cleared, in a
closed loop: the next repetition starts when the previous one has ended,
and no repetition starts that would end past S seconds (the first always
runs).  Every repetition's artifacts go through the correctness gate
(gate.py).

--trace 0 prints the end-to-end metrics:
  wall_s       median time from cli.main entry to return, import excluded
  setup_s      median import time of rainbow_lab.cli in a fresh interpreter,
               over SETUP_SAMPLES imports after one discarded warm-up
  peak_rss_mb  median peak resident memory of the command's process
--trace 1 runs the command once untraced and once with every layer wrapped
(spans.py), checks that both give byte-identical artifacts and that the
self times add up to the traced wall time, and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted and failed
(grid points computed and grid points that failed the gate), and metrics.
The run's full record, with the environment facts, is also written to
.perfbench_work/<workload>/record.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
SETUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 150
IMPORT_TIMEOUT_S = 30
# Self times of a traced run must add up to its wall time within this (s);
# they differ only by floating-point rounding of the span arithmetic.
SELF_SUM_TOL_S = 1e-6

UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "cli.self_s": "s", "trace.overhead_frac": "fraction",
    "lattice.dense_mb": "MiB", "entanglement.eig_per_block": "ratio",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RAINBOW_LAB_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def import_seconds(env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import rainbow_lab.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=WORK, check=True,
                         capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S)
    return float(out.stdout)


def run_command(inputs, trace: bool, workdir: str, env: dict):
    """Run the workload's command once in workdir; (child record or None, stderr)."""
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result, str(int(trace)),
           *inputs.argv()]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {COMMAND_TIMEOUT_S} s"
    if proc.returncode != 0 or not os.path.exists(result):
        return None, proc.stderr
    with open(result, encoding="ascii") as fh:
        record = json.load(fh)
    if not record["source"].startswith(SRC + os.sep):
        raise SystemExit(f"imported {record['source']}, not the checkout's {SRC}")
    return record, proc.stderr


class Tally:
    """Grid points attempted and failed, with the gate's findings."""

    def __init__(self, inputs, reference):
        self.inputs, self.reference = inputs, reference
        self.attempted, self.failed, self.problems = 0, 0, []

    def add(self, record, stderr: str, workdir: str) -> None:
        points = self.inputs.points
        if record is None or record["exit"] != 0:
            bad = set(points)
            self.problems.append(f"command failed: {stderr.strip()[-500:]}")
        else:
            bad, problems = gate.check(self.inputs, workdir, self.reference)
            self.problems.extend(problems)
        self.attempted += len(points)
        self.failed += len(bad)


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rainbow_lab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def measure(inputs, tally, seconds: float, env: dict, rundir: str) -> dict:
    """End-to-end metrics of an untraced run."""
    import_seconds(env)  # warm-up: bytecode caches, page cache
    setup = [import_seconds(env) for _ in range(SETUP_SAMPLES)]
    walls, rss, env_facts = [], [], None
    start = time.perf_counter()
    while True:
        workdir = os.path.join(rundir, f"rep{len(walls)}")
        t = time.perf_counter()
        record, stderr = run_command(inputs, False, workdir, env)
        took = time.perf_counter() - t
        tally.add(record, stderr, workdir)
        if record is None:
            walls.append(took)
            rss.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
        else:
            walls.append(record["wall_s"])
            rss.append(record["peak_rss_mb"])
            env_facts = record["env"]
        if time.perf_counter() - start + took > seconds:
            break
    samples = dict(zip(END_TO_END, (walls, setup, rss)))
    return {
        "metrics": {k: statistics.median(v) for k, v in samples.items()},
        "samples": samples,
        "env": env_facts,
        "ok": True,
    }


def trace(inputs, tally, env: dict, rundir: str) -> dict:
    """Per-layer metrics from one traced run, next to one untraced run."""
    plain_dir, traced_dir = os.path.join(rundir, "plain"), os.path.join(rundir, "traced")
    plain, err = run_command(inputs, False, plain_dir, env)
    tally.add(plain, err, plain_dir)
    traced, err = run_command(inputs, True, traced_dir, env)
    tally.add(traced, err, traced_dir)
    if plain is None or traced is None:
        return {"metrics": {}, "env": None, "ok": False}
    ok = True
    for name in inputs.artifacts:
        with open(os.path.join(plain_dir, name), "rb") as a, \
                open(os.path.join(traced_dir, name), "rb") as b:
            if a.read() != b.read():
                tally.problems.append(f"tracing changed {name}")
                ok = False
    layers = traced["layers"]
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    if abs(self_sum - traced["wall_s"]) > SELF_SUM_TOL_S:
        tally.problems.append(
            f"self times sum to {self_sum} s, traced wall is {traced['wall_s']} s")
        ok = False
    metrics = dict(layers)
    metrics["trace.overhead_frac"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    return {"metrics": metrics, "env": traced["env"], "ok": ok,
            "wall_s": {"plain": plain["wall_s"], "traced": traced["wall_s"]},
            "spans": traced["spans"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.VARIANTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rainbow_lab", "cli.py")):
        print(f"no rainbow_lab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    inputs = workloads.inputs_for(args.workload, args.seed)
    reference = gate.load_reference(args.workload)
    rundir = os.path.join(WORK, args.workload)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    env = child_env()
    tally = Tally(inputs, reference)
    print(f"workload {args.workload} seed {args.seed}: rainbow-lab {' '.join(inputs.argv())}")

    if args.trace:
        result = trace(inputs, tally, env, rundir)
    else:
        result = measure(inputs, tally, args.seconds, env, rundir)
    correct = result["ok"] and tally.failed == 0 and bool(result["metrics"])

    facts = {
        "seed": args.seed, "commit": commit(), "source_sha256": source_digest(),
        "ambient": {k: os.environ.get(k) for k in ("RAINBOW_LAB_JOBS", "OPENBLAS_NUM_THREADS")},
        **(result["env"] or {}),
    }
    record = {"workload": args.workload, "command": inputs.argv(), "env": facts,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems, **result}
    with open(os.path.join(rundir, "record.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(facts))
    for problem in tally.problems[:20]:
        print("gate: " + problem)
    print(f"points: {tally.attempted} attempted, {tally.failed} failed "
          f"(fail_frac {tally.failed / max(tally.attempted, 1):g})")
    for name, value in result["metrics"].items():
        print(f"{name} {value!r} {unit(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
