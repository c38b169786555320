"""Correctness gate: every artifact data row against a recorded reference.

The reference (reference/<workload>.json.gz, written by make_reference.py)
holds the data rows each input variant produced at the commit that defined
the benchmark.  Key columns (L, z, n, p, alpha) must match exactly.  Every
other column must match within a tolerance derived from how well
conditioned that column is with respect to a perturbation of size DEV in
the quantities the solver produces: entropies (nats), correlation
eigenvalues nu, and the angles of the occupied orbital span.

DEV = 1e-9 lets through the deviations measured for the planned fast paths
(<= 7e-12 for 1D entropies, <= 3e-11 for 2D) with a 30x margin, while a
wrong ground-state projector moves these quantities by O(0.1).  Artifacts
print 12 significant digits, so PRINT_REL of relative slack is added to
every comparison.

A grid point fails if the command exits non-zero, or if any row that
depends on the point is missing, extra, non-finite where the reference is
finite, or outside its tolerance.
"""

from __future__ import annotations

import gzip
import json
import math
import os

import numpy as np

DEV = 1e-9
PRINT_REL = 1e-11
C_N_MAX_DEV = 0.04  # |c_n - 1| on chain-renyi, acceptance criterion 5

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def read_artifact(path: str) -> tuple:
    """(column names, rows of value strings) of a CSV or JSON artifact."""
    if path.endswith(".json"):
        with open(path, encoding="ascii") as fh:
            data = json.load(fh)["data"]
        columns = list(data[0])
        return columns, [[json.dumps(d[c]) for c in columns] for d in data]
    columns, rows = None, []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# columns: "):
                columns = line[len("# columns: "):].split(",")
            elif not line.startswith("#"):
                rows.append(line.split(","))
    return columns, rows


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def load_reference(workload: str) -> dict:
    """{variant key: {artifact name: [columns, rows]}}."""
    with gzip.open(reference_path(workload), "rt", encoding="ascii") as fh:
        return json.load(fh)


def compare(got, ref, keys, tols, point_of) -> tuple:
    """Match rows by their key columns and compare every other column.

    tols maps a column to f(reference row as floats) -> absolute tolerance;
    point_of maps a key tuple to the grid points that row depends on.
    Returns (failed points, problem descriptions).
    """
    bad, problems = set(), []
    if got[0] != ref[0]:
        problems.append(f"columns {got[0]} != reference {ref[0]}")
        bad.update(p for row in ref[1] for p in point_of(_key(ref[0], row, keys)))
        return bad, problems
    columns = ref[0]
    got_rows = {_key(columns, r, keys): r for r in got[1]}
    ref_rows = {_key(columns, r, keys): r for r in ref[1]}
    missing = [k for k in ref_rows if k not in got_rows]
    unexpected = [k for k in got_rows if k not in ref_rows]
    for key in missing + unexpected:
        problems.append(f"row {key} {'missing' if key in ref_rows else 'unexpected'}")
        bad.update(point_of(key))
    if len(got_rows) != len(got[1]):
        problems.append("duplicate row keys")
        bad.update(p for key in ref_rows for p in point_of(key))
    for key in (k for k in ref_rows if k in got_rows):
        g = [float(x) for x in got_rows[key]]
        r = [float(x) for x in ref_rows[key]]
        r_named = dict(zip(columns, r))
        for i, col in enumerate(columns):
            if col in keys:
                continue
            if math.isnan(r[i]):
                ok = math.isnan(g[i])
            else:
                tol = tols[col](r_named) + PRINT_REL * max(abs(g[i]), abs(r[i]))
                ok = math.isfinite(g[i]) and abs(g[i] - r[i]) <= tol
            if not ok:
                problems.append(f"row {key} column {col}: {g[i]!r} vs reference {r[i]!r}")
                bad.update(point_of(key))
    return bad, problems


def _key(columns, row, keys) -> tuple:
    return tuple(row[columns.index(k)] for k in keys)


def _fit_tolerance(design: np.ndarray, dy: np.ndarray) -> float:
    """Bound on any fitted coefficient's change when the data move by dy:
    ||X^+ dy||_2 <= ||dy||_2 / sigma_min(X)."""
    return float(np.linalg.norm(dy) / np.linalg.svd(design, compute_uv=False)[-1])


def _chi2_tol(t: float):
    # |sqrt(chi2') - sqrt(chi2)| <= ||dy||_2 = t, so |chi2' - chi2| <= t (2 sqrt(chi2) + t)
    return lambda r: t * (2 * math.sqrt(r["chi2"]) + t)


def _renyi(inputs, ref, outdir):
    n_sizes = len({p[0] for p in inputs.points})
    # sigma_max of the Renyi design is at least ||ones|| = sqrt(rows), so
    # ||X^+|| <= condition / sqrt(rows) and a coefficient moves by at most
    # condition * DEV when each entropy moves by DEV.
    def coef(r):
        return r["condition"] * DEV

    def by_z(key):
        return [p for p in inputs.points if p[1] == key[1]]

    tols = {"c_n": coef, "d_n": coef, "f_n": coef,
            "chi2": _chi2_tol(math.sqrt(n_sizes) * DEV),
            "condition": lambda r: 1e-9 * r["condition"]}
    got = read_artifact(os.path.join(outdir, "renyi.csv"))
    bad, problems = compare(got, ref["renyi.csv"], ("n", "z"), tols, by_z)
    columns, rows = got
    for row in rows:
        n, z, c_n = (row[columns.index(c)] for c in ("n", "z", "c_n"))
        if not abs(float(c_n) - 1) <= C_N_MAX_DEV:
            problems.append(f"c_{n}(z={z}) = {c_n} is not within {C_N_MAX_DEV} of 1")
            bad.update(by_z((n, z)))
    return bad, problems


def _collapse(inputs, ref, outdir):
    def eps(r):
        # d eps / d nu = -1 / (nu (1 - nu)): levels far from eps = 0 are ill-conditioned
        return DEV / (r["nu"] * (1 - r["nu"]))

    tols = {"nu": lambda r: DEV, "eps": eps,
            "eps_scaled": lambda r: eps(r) * r["z"] / (2 * math.pi**2)}
    got = read_artifact(os.path.join(outdir, "collapse.csv"))
    return compare(got, ref["collapse.csv"], ("L", "z", "p"), tols,
                   lambda key: [key[:2]])


def _lattice(inputs, ref, outdir):
    sizes = np.array(sorted({int(p[1]) for p in inputs.points}), dtype=float)
    design = np.column_stack([sizes, np.log(sizes), np.ones_like(sizes)])
    dy = DEV / sizes  # the fit runs on s = S / L
    coef = _fit_tolerance(design, dy)
    rows = {"S": lambda r: DEV, "s_per_L": lambda r: DEV / r["L"]}
    fits = {"A": lambda r: coef, "B": lambda r: coef, "C": lambda r: coef,
            "chi2": _chi2_tol(float(np.linalg.norm(dy))),
            "A_bits_per_side": lambda r: coef / (4 * math.log(2.0))}
    bad, problems = compare(read_artifact(os.path.join(outdir, "e2d.csv")),
                            ref["e2d.csv"], ("alpha", "L"), rows, lambda key: [key])
    b2, p2 = compare(read_artifact(os.path.join(outdir, "e2d_fits.json")),
                     ref["e2d_fits.json"], ("alpha",), fits,
                     lambda key: [p for p in inputs.points if p[0] == key[0]])
    return bad | b2, problems + p2


def _validity(inputs, ref, outdir):
    # overlap = prod cos(theta_i) over L principal angles, each cos >= overlap,
    # so |d overlap| <= sum_i overlap tan(theta_i) d theta <= L * DEV.
    tols = {"overlap": lambda r: r["L"] * DEV}
    bad, problems = compare(read_artifact(os.path.join(outdir, "validity.csv")),
                            ref["validity.csv"], ("L", "z"), tols, lambda key: [key])
    grid = {}
    for L, z, ov in ref["validity.csv"][1]:
        grid.setdefault(float(L), []).append((float(z), float(ov)))

    def crossing(level):
        # z* interpolates linearly between the bracketing grid points a >= level > b;
        # each of a, b moves by at most L * DEV, moving z* by at most
        # 2 L DEV dz / (a - b).
        def tol(r):
            pts = grid[r["L"]]
            for (z0, a), (z1, b) in zip(pts, pts[1:]):
                if a >= level > b:
                    return 2 * r["L"] * DEV * (z1 - z0) / (a - b)
            return 0.0
        return tol

    tols = {"z_at_0.90": crossing(0.90), "z_at_0.95": crossing(0.95)}
    b2, p2 = compare(read_artifact(os.path.join(outdir, "validity_contours.csv")),
                     ref["validity_contours.csv"], ("L",), tols,
                     lambda key: [p for p in inputs.points if p[0] == key[0]])
    return bad | b2, problems + p2


CHECKS = {
    "chain-renyi": _renyi,
    "chain-collapse": _collapse,
    "lattice-2d": _lattice,
    "chain-validity": _validity,
}


def check(inputs, outdir: str, reference: dict) -> tuple:
    """(failed grid points, problems) of one command's artifacts in outdir.

    `reference` is load_reference(inputs.workload).
    """
    ref = reference.get(inputs.key)
    if ref is None:
        return set(inputs.points), [f"no reference for {inputs.key!r}"]
    try:
        return CHECKS[inputs.workload](inputs, ref, outdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return set(inputs.points), [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
