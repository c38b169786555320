"""Self-check of the benchmark harness (no benchmark runs needed).

    python3 perfbench/selfcheck.py [BENCH_OUTPUT.log ...]

Checks that span self times add up on nested spans and on spans run by
pool threads, that the gate accepts every reference row as it is and
within its tolerance, and rejects a row perturbed beyond it (down to the
grid points that row depends on), and that the metric names and units the
harness prints are those of BENCHMARK.json.  Saved benchmark outputs given
as arguments have their final JSON line checked against BENCHMARK.json too.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import gate
import run
import spans
import workloads


def check(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        sys.exit(1)


def nested_spans() -> None:
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("spectra", "inner", lambda: None)
    failing = rec.wrap("fitting", "failing", lambda: 1 / 0)

    def middle_body():
        inner()
        inner()

    middle = rec.wrap("entanglement", "middle", middle_body)

    def outer_body():
        middle()
        try:
            failing()
        except ZeroDivisionError:
            pass

    rec.wrap("lattice", "outer", outer_body)()
    # ticks: outer 0..9, middle 1..6, inner 2..3 and 4..5, failing 7..8
    own = spans.self_times(rec.spans)
    check("nested self times: outer 9-5-1, middle 5-1-1, inner 1, failing 1",
          {s.name: own[id(s)] for s in rec.spans}
          == {"outer": 3.0, "middle": 3.0, "inner": 1.0, "failing": 1.0})
    m = spans.summarize(rec, wall_s=20.0)
    check("layer self times and call/error counts",
          (m["lattice.self_s"], m["entanglement.self_s"], m["spectra.self_s"],
           m["fitting.self_s"], m["spectra.calls"], m["fitting.errors"])
          == (3.0, 3.0, 2.0, 1.0, 2, 1))
    check("cli.self_s is wall minus root spans; self times sum to wall",
          m["cli.self_s"] == 11.0
          and sum(v for k, v in m.items() if k.endswith(".self_s")) == 20.0)


def pool_spans() -> None:
    rec = spans.Recorder()
    leaf = rec.wrap("spectra", "leaf", lambda: time.sleep(0.02))

    def task_body(_):
        leaf()
        time.sleep(0.02)

    task = rec.wrap("entanglement", "task", task_body)

    def sweep_body():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(task, range(4)))

    rec.wrap("fitting", "sweep", sweep_body)()
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    own = spans.self_times(rec.spans)
    main = threading.get_ident()
    check("pool-thread spans are roots of their own thread",
          all(s.parent is None and s.thread != main for s in by_name["task"]))
    check("pool-thread children nest on their own thread",
          all(s.parent.name == "task" and s.thread == s.parent.thread
              for s in by_name["leaf"]))
    sweep = by_name["sweep"][0]
    check("submitting span keeps its full duration as self time",
          own[id(sweep)] == sweep.duration)
    check("pool task self time excludes its child",
          all(abs(own[id(s)] - (s.duration - c.duration)) < 1e-12
              for s in by_name["task"] for c in by_name["leaf"] if c.parent is s))


def write_artifact(path: str, columns, rows) -> None:
    if path.endswith(".json"):
        data = [dict(zip(columns, (json.loads(v) for v in row))) for row in rows]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"data": data}, fh)
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# columns: " + ",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# the value column the gate test perturbs in each workload's main artifact
PERTURBED = {"chain-renyi": "c_n", "chain-collapse": "nu", "lattice-2d": "S",
             "chain-validity": "overlap"}


def gate_rejects_perturbed_rows() -> None:
    workdir = os.path.join(run.WORK, "selfcheck")
    for name, variants in workloads.VARIANTS.items():
        inputs = variants[0]
        reference = gate.load_reference(name)
        ref = reference[inputs.key]
        first, (columns, rows) = inputs.artifacts[0], ref[inputs.artifacts[0]]
        value_col = columns.index(PERTURBED[name])

        def trial(scale):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            for artifact, (cols, rws) in ref.items():
                rws = [list(r) for r in rws]
                if artifact == first and scale is not None:
                    x = float(rws[0][value_col])
                    rws[0][value_col] = repr(x + scale * max(abs(x), 1.0))
                write_artifact(os.path.join(workdir, artifact), cols, rws)
            return gate.check(inputs, workdir, reference)

        bad, problems = trial(None)
        check(f"{name}: gate passes the reference rows", not bad and not problems)
        bad, _ = trial(1e-13)
        check(f"{name}: gate passes a row moved within tolerance", not bad)
        bad, problems = trial(1e-4)
        check(f"{name}: gate rejects {columns[value_col]} moved by 1e-4 "
              f"({len(bad)} of {len(inputs.points)} points failed)",
              0 < len(bad) < len(inputs.points) and len(problems) == 1)
    shutil.rmtree(workdir, ignore_errors=True)


def metric_names(logs) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    check("workloads match BENCHMARK.json",
          sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.VARIANTS))
    untraced = {n: run.unit(n) for n in run.END_TO_END}
    check("end-to-end names and units match BENCHMARK.json", untraced == declared[0])
    traced = list(spans.summarize(spans.Recorder(), 1.0)) + ["trace.overhead_frac"]
    check("per-layer names and units match BENCHMARK.json",
          {n: run.unit(n) for n in traced} == declared[1])
    for log in logs:
        with open(log, encoding="utf-8") as fh:
            last = json.loads(fh.read().splitlines()[-1])
        printed = {k: v["unit"] for k, v in last["metrics"].items()}
        check(f"{log}: printed metrics are BENCHMARK.json's",
              printed in (declared[0], declared[1])
              and all(math.isfinite(v["value"]) for v in last["metrics"].values()))


if __name__ == "__main__":
    nested_spans()
    pool_spans()
    gate_rejects_perturbed_rows()
    metric_names(sys.argv[1:])
