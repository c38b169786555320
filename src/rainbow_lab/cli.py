"""Command-line front end; one subcommand per reproducible artifact.

Sweep flags take inclusive ranges ``start:stop:step`` (``0:4:0.5``).
CSV artifacts use ',' as separator, '.' as decimal mark and '#'-prefixed
header lines carrying the tool version and the configuration, so
re-running a command reproduces its artifact byte for byte.  Grid sweeps
honor ``--jobs`` (default 1) with order-independent assembly; the worker
count is left out of the config echo, so it changes no byte.  The
commands that compute one point have no ``--jobs``.  Sweeps live here:
the library computes one point (one chain, one overlap), and each sweep
command loops it with ``_sweep``.  The geometry flags --alpha, --h and
--z name a chain through one resolver, ``_profile``, so a flag value
gives the same couplings in every command that takes it.

Exit codes: 0 success, 2 usage or domain error, 3 numerical failure (a
failing LAPACK call included, numpy's LinAlgError too, and a failing
``validate`` check) or an allocation that fails (MemoryError).  ``main``
alone sets them: a command returns nothing and fails by raising.  A
failing command writes one JSON error record to stderr, with the warnings
raised before the failure in its "warnings" list, and no artifact: each
command computes all of its outputs before ``_write_all`` writes any, and
a file already at an output path keeps its bytes.  Every command but
``validate`` writes its ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .continuum import analytic_wavefunction, overlap_crossing, validity_overlap
from .entanglement import (
    _checked_orders,
    boundary_blocks,
    brute_force_block_entropy,
    correlation_matrix,
    entanglement_spectrum,
    halfchain_nu,
    lattice_half_nu,
    polar_block,
    renyi_entropies,
    vn_entropy,
)
from .fitting import MIN_2D_SIZES, MIN_RENYI_SIZES, fit_2d, fit_renyi_halfchain
from .lattice import (
    Lattice2D,
    _rainbow_profile,
    build_rainbow_profile,
    profile_from_z,
    site_labels,
)
from .qubism import render, slater_amplitudes, write_ppm
from .sdrg import bond_state_orbitals, rainbow_bonds, render_arcs, sdrg_entropy, sdrg_run
from .spectra import (
    NumericsError,
    _lattice_route,
    chain_svd,
    fermi_velocity,
    fermi_velocity_fit,
    level_orbital,
    occupied_from_svd,
    orbitals_from_svd,
    save_orbitals,
    site_occupations,
    velocity_scaling,
)

_FLOAT_FMT = ".12g"
# Most values a range flag expands to; FIGURES.md's largest axis has 21.
MAX_RANGE_VALUES = 10**6


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, _FLOAT_FMT)
    return str(x)


def parse_range(text: str, integer: bool = False) -> list:
    """Inclusive start:stop:step range, or a single value.

    ValueError for a non-finite part, a step that is not positive, a
    stop below the start (which would give an empty sweep), or more than
    MAX_RANGE_VALUES values (refused before any is built)."""
    parts = text.split(":")
    conv = int if integer else float
    if len(parts) == 1:
        return [conv(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"range parts must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"range step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"range stop {stop} is below its start {start}")
    span = (stop - start) / step + 1e-9  # inf when the quotient overflows
    if not span < MAX_RANGE_VALUES:
        raise ValueError(f"range {text!r} has more than {MAX_RANGE_VALUES} values")
    n = int(math.floor(span)) + 1
    vals = [start + i * step for i in range(n)]
    if integer:
        out = [int(round(v)) for v in vals]
        if any(abs(v - o) > 1e-9 for v, o in zip(vals, out)):
            raise ValueError(f"non-integer value in integer range {text!r}")
        return out
    return vals


class UsageError(ValueError):
    """A command line the parser refuses: unknown or missing flags, or a
    flag value its type rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2, so
    ``main`` reports a bad command line as the JSON error record like any
    other domain error."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _flag(convert):
    """``convert`` as an argparse type that keeps its ValueError's message
    (argparse would say only "invalid <lambda> value")."""

    def parse(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_range = _flag(parse_range)
_int_range = _flag(lambda t: parse_range(t, integer=True))
_orders = _flag(lambda t: _checked_orders(t.split(",")))


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"must be a positive integer, got {n}")
    return n


def _geometry_values(args) -> tuple:
    """(flag name, its value or values) for whichever geometry flag was given."""
    given = [name for name in ("alpha", "h", "z") if getattr(args, name) is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --alpha, --h, --z")
    return given[0], getattr(args, given[0])


def _profile(flag: str, value: float, L: int):
    """The chain of half-length L that `value` of the geometry flag `flag`
    names: --alpha and --h build the couplings from their own value (sent
    through z and back, it would come back ulps off), --z through
    ``profile_from_z``."""
    if flag == "alpha":
        return build_rainbow_profile(L, value)
    if flag == "z":
        return profile_from_z(L, value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"h must be finite and non-negative, got {value!r}")
    return _rainbow_profile(L, math.exp(-value / 2.0), value)


def _sweep(kernel, points, jobs: int) -> list:
    """kernel(point) for every point, in order; jobs > 1 uses a thread pool."""
    if jobs == 1:
        return list(map(kernel, points))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(kernel, points))


def _provenance(args) -> dict:
    """The command's configuration: every flag it was given a value for,
    except --jobs, which sets how the sweep runs and no value in it."""
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "jobs") and v is not None
    }
    return {"tool": "rainbow-lab", "version": __version__, "config": config}


def _csv_header(args, columns) -> list:
    prov = _provenance(args)
    return [
        f"# rainbow-lab {__version__}",
        f"# command: {prov['config'].get('command')}",
        f"# config: {json.dumps(prov['config'], default=str)}",
        f"# columns: {','.join(columns)}",
    ]


def _write_csv(header_lines, rows, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_json(doc, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _write_all(*outputs) -> None:
    """Write a command's artifacts, all or none.  Each output is
    (path, writer, *data), and ``writer(*data, temporary)`` writes it to a
    temporary sibling of its path: a new file from ``tempfile.mkstemp``,
    named <basename>.<random>.tmp, so no file already there is written over
    or removed.  It gets the mode a plain open() would give it.  The
    temporaries are renamed onto their paths once every one is written,
    and removed if any write fails, so a failing command leaves no file
    behind and keeps what its paths held.  Two outputs at one file are
    refused before either is written."""
    real = [os.path.realpath(path) for path, *_ in outputs]
    if len(set(real)) < len(real):
        raise ValueError(f"outputs share a path: {[path for path, *_ in outputs]}")
    umask = os.umask(0)
    os.umask(umask)
    temporaries = []
    try:
        for path, write, *data in outputs:
            if os.path.isdir(path):  # its rename would fail after others
                raise IsADirectoryError(f"output path {path!r} is a directory")
            head, tail = os.path.split(path)
            fd, temporary = tempfile.mkstemp(suffix=".tmp", prefix=tail + ".",
                                             dir=head or os.curdir)
            os.close(fd)
            temporaries.append(temporary)
            os.chmod(temporary, 0o666 & ~umask)
            write(*data, temporary)
        for temporary, (path, *_) in zip(temporaries, outputs):
            os.replace(temporary, path)
    finally:
        for temporary in temporaries:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)


# ----------------------------------------------------------------- commands

def cmd_spectrum(args) -> None:
    svd = chain_svd(_profile(*_geometry_values(args), args.L))
    # m counted from the Fermi point: m = 0 is the first level above it
    rows = list(enumerate(svd.energies.tolist(), start=-args.L))
    outputs = [(args.out, _write_csv, _csv_header(args, ("m", "energy")), rows)]
    if args.orbitals:
        outputs.append((args.orbitals, save_orbitals, orbitals_from_svd(svd)))
    _write_all(*outputs)


def cmd_wavefunction(args) -> None:
    profile = _profile(*_geometry_values(args), args.L)
    m = args.m
    if not -args.L <= m <= args.L - 1:
        raise ValueError(f"--m must lie in [{-args.L}, {args.L - 1}], got {m}")
    exact = level_orbital(chain_svd(profile), args.L + m)
    ana = analytic_wavefunction(m, profile.h, args.L)
    if exact @ ana < 0:  # global eigenvector sign is arbitrary; align for plots
        exact = -exact
    labels = site_labels(args.L)
    rows = [(labels[i], float(exact[i]), float(ana[i])) for i in range(2 * args.L)]
    header = _csv_header(args, ("site", "exact", "analytic"))
    header.insert(-1, f"# overlap: {abs(np.dot(exact, ana)):.12g}")
    _write_all((args.out, _write_csv, header, rows))


def cmd_velocity_scan(args) -> None:
    L = args.L

    def one(z):
        svd = chain_svd(profile_from_z(L, z))
        return (z, fermi_velocity(svd), fermi_velocity_fit(svd),
                float(velocity_scaling(z)))

    rows = _sweep(one, args.z, args.jobs)
    header = _csv_header(args, ("z", "a_numeric", "a_fit4", "a_analytic"))
    _write_all((args.out, _write_csv, header, rows))


def cmd_validity_map(args) -> None:
    points = [(L, z) for L in args.L for z in args.z]
    values = _sweep(lambda point: validity_overlap(*point), points, args.jobs)
    rows = [(L, z, overlap) for (L, z), overlap in zip(points, values)]
    contours = [
        (L, overlap_crossing(args.z, row, 0.90), overlap_crossing(args.z, row, 0.95))
        for L, row in zip(args.L, np.reshape(values, (len(args.L), len(args.z))))
    ]
    _write_all(
        (args.out, _write_csv, _csv_header(args, ("L", "z", "overlap")), rows),
        (_derived_path(args.out, "_contours"), _write_csv,
         _csv_header(args, ("L", "z_at_0.90", "z_at_0.95")), contours),
    )


def _derived_path(path: str, suffix: str, ext: str | None = None) -> str:
    stem, own = os.path.splitext(path)
    return stem + suffix + (ext or own or ".csv")


def cmd_entropy_scan(args) -> None:
    name, values = _geometry_values(args)
    if args.blocks == "boundary":
        if len(args.L) != 1 or len(values) != 1:
            raise ValueError("boundary scans need a single geometry")

    def one(profile):
        L = profile.L
        if args.blocks == "half":
            nus = [halfchain_nu(profile)]
        else:
            svd = chain_svd(profile)
            nus = [polar_block(svd, block) for block in boundary_blocks(2 * L)]
        return [
            (L, profile.alpha, profile.h, profile.z, nu.size, n, S)
            for nu in nus
            for n, S in zip(args.orders, renyi_entropies(nu, args.orders))
        ]

    profiles = [_profile(name, v, L) for L in args.L for v in values]
    chunks = _sweep(one, profiles, args.jobs)
    rows = [row for chunk in chunks for row in chunk]
    header = _csv_header(args, ("L", "alpha", "h", "z", "block", "n", "S"))
    if len(profiles) == 1:
        header.insert(-1, f"# profile: {profiles[0].to_json()}")
    _write_all((args.out, _write_csv, header, rows))


def cmd_renyi_fit(args) -> None:
    sizes = args.L
    if len(sizes) < MIN_RENYI_SIZES:
        raise ValueError(
            f"need at least {MIN_RENYI_SIZES} sizes for the three-parameter fit"
        )
    if len({L % 2 for L in sizes}) < 2:
        raise ValueError("sizes must mix even and odd L for the oscillation term")

    def entropies_for(point):
        return renyi_entropies(halfchain_nu(profile_from_z(*point)), args.orders)

    points = [(L, z) for L in sizes for z in args.z]
    entropies = dict(zip(points, _sweep(entropies_for, points, args.jobs)))

    rows = []
    for z in args.z:
        for i, n in enumerate(args.orders):
            values = [entropies[(L, z)][i] for L in sizes]
            fit = fit_renyi_halfchain(sizes, values, n=n)
            rows.append((n, z, fit["c_n"], fit["d_n"], fit["f_n"],
                         fit.chi2, fit.condition))
    header = _csv_header(args, ("n", "z", "c_n", "d_n", "f_n", "chi2", "condition"))
    _write_all((args.out, _write_csv, header, rows))


def cmd_es_collapse(args) -> None:
    def one(point):
        L, z = point
        # The orbital route, not polar_block: an odd-L half block has one
        # level at nu = 1/2, which the polar route gives as eps = 0 exactly;
        # both filters below would drop it and shift the p labels of a side.
        occ = occupied_from_svd(chain_svd(profile_from_z(L, z), sites=L))
        eps = entanglement_spectrum(correlation_matrix(occ, range(L)).eigenvalues())  # ascending
        neg, pos = eps[eps < 0][-args.levels:], eps[eps > 0][: args.levels]
        # p = -1/2, -3/2, ... counts down from the level closest to 0
        ps = np.concatenate([np.arange(-neg.size, 0), np.arange(pos.size)]) + 0.5
        return [
            (L, z, p, 1.0 / (1.0 + math.exp(e)), e, e * z / (2 * math.pi**2))
            for p, e in zip(ps.tolist(), np.concatenate([neg, pos]).tolist())
        ]

    points = [(L, z) for L in args.L for z in args.z]
    chunks = _sweep(one, points, args.jobs)
    rows = [row for chunk in chunks for row in chunk]
    header = _csv_header(args, ("L", "z", "p", "nu", "eps", "eps_scaled"))
    _write_all((args.out, _write_csv, header, rows))


def cmd_sdrg(args) -> None:
    if args.couplings is not None:
        if args.L is not None or args.alpha is not None:
            # its provenance would name a chain that was not decimated
            raise ValueError("give --couplings or --L with --alpha, not both")
        couplings = [float(t) for t in args.couplings.split(",")]
    elif args.L is None or args.alpha is None:
        raise ValueError("need --couplings, or --L with --alpha")
    else:
        couplings = build_rainbow_profile(args.L, args.alpha).couplings
    bonds = sdrg_run(couplings)
    doc = {"provenance": _provenance(args), **json.loads(bonds.to_json())}
    _write_all((args.out, _write_json, doc))
    if args.arcs:
        print(render_arcs(bonds))


def cmd_entropy_2d(args) -> None:
    if len(args.L) < MIN_2D_SIZES:
        raise ValueError(f"need at least {MIN_2D_SIZES} sizes, got {len(args.L)}")

    def one(lat):
        S = vn_entropy(lattice_half_nu(lat))
        return (lat.alpha, lat.L, S, S / lat.L)

    lattices = [Lattice2D(L, alpha) for alpha in args.alpha for L in args.L]
    for lat in lattices:  # refuses a graded lattice before any solve
        _lattice_route(lat)
    rows = _sweep(one, lattices, args.jobs)
    fits = []
    for alpha in args.alpha:
        mine = [row for row in rows if row[0] == alpha]
        fit = fit_2d([row[1] for row in mine], [row[3] for row in mine])
        fits.append({
            "alpha": alpha, **fit.coefficients, "chi2": fit.chi2,
            # same data normalized per full side in log2 units
            "A_bits_per_side": fit["A"] / (4 * math.log(2.0)),
        })
    _write_all(
        (args.out, _write_csv, _csv_header(args, ("alpha", "L", "S", "s_per_L")), rows),
        (_derived_path(args.out, "_fits", ext=".json"), _write_json,
         {"provenance": _provenance(args), "data": fits}),
    )


def cmd_qubism(args) -> None:
    n = args.sites
    if n % 2:
        raise ValueError(f"qubism needs an even site count, got {n}")
    occ = occupied_from_svd(chain_svd(build_rainbow_profile(n // 2, args.alpha)))
    amps = slater_amplitudes(occ)
    outputs = [
        (args.out, write_ppm, render(amps)),
        # PPM headers are pinned byte for byte, so provenance rides sidecar
        (args.out + ".provenance.json", _write_json, _provenance(args)),
    ]
    if args.amplitudes:
        outputs.append((args.amplitudes, _write_csv,
                        _csv_header(args, ("bitstring", "amplitude")), amps.rows()))
    _write_all(*outputs)


def cmd_validate(args) -> None:
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            failures += 1

    # oracle equivalence: polar-route vs brute-force entropies
    orders = [1, 2, 3, 4]
    for twoL in (4, 6, 8):
        for alpha in (0.01, 0.3, 1.0):
            profile = build_rainbow_profile(twoL // 2, alpha)
            svd = chain_svd(profile)
            amps = slater_amplitudes(occupied_from_svd(svd))
            worst = 0.0
            for block in boundary_blocks(twoL):
                a = renyi_entropies(polar_block(svd, block), orders)
                b = brute_force_block_entropy(amps, block, orders)
                worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
            check(f"oracle equivalence 2L={twoL} alpha={alpha} (dev {worst:.2e})",
                  worst <= 1e-10)

    # occupations at half filling
    for (L, alpha) in ((10, 0.6), (25, 0.9)):
        svd = chain_svd(build_rainbow_profile(L, alpha))
        occs = site_occupations(occupied_from_svd(svd))
        dev = float(np.max(np.abs(occs - 0.5)))
        check(f"site occupations 1/2 L={L} alpha={alpha} (dev {dev:.2e})", dev <= 1e-10)

    # SDRG against the analytic rainbow matching
    for L in (3, 5, 8):
        got = sdrg_run(build_rainbow_profile(L, 0.05).couplings)
        want = rainbow_bonds(L)
        check(f"sdrg matches rainbow matching L={L}", got.bonds == want.bonds)

    # bond-state entropies count crossing bonds
    bonds = rainbow_bonds(6)
    amps = slater_amplitudes(bond_state_orbitals(bonds))
    S = brute_force_block_entropy(amps, range(6), [1])[0]
    dev = abs(S - 6 * math.log(2))
    check(f"bond-state half-chain entropy 6 ln 2 (dev {dev:.2e})", dev <= 1e-10)
    check("sdrg entropy equals bond crossings",
          abs(sdrg_entropy(bonds, range(6)) - 6 * math.log(2)) == 0.0)

    # pure-state complement symmetry
    svd = chain_svd(build_rainbow_profile(6, 0.4))
    worst = 0.0
    for l in range(1, 12):
        a = vn_entropy(polar_block(svd, range(l)))
        b = vn_entropy(polar_block(svd, range(l, 12)))
        worst = max(worst, abs(a - b))
    check(f"complement symmetry 2L=12 (dev {worst:.2e})", worst <= 1e-8)

    print(f"{failures} failure(s)")
    if failures:
        raise NumericsError(f"validate: {failures} check(s) failed")


# -------------------------------------------------------------------- parser

def _add_geometry(p, kind):
    """--alpha, --h and --z, each parsed by `kind` (float, or _range for a
    sweep); a command takes exactly one of them."""
    p.add_argument("--alpha", type=kind, help="decay parameter in (0, 1]")
    p.add_argument("--h", type=kind, help="decay rate h = -2 ln(alpha)")
    p.add_argument("--z", type=kind, help="deformation z = h L")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="rainbow-lab",
        description="rainbow free-fermion chains: spectra, entanglement, fits",
    )
    ap.add_argument("--version", action="version", version=f"rainbow-lab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def new(name, helptext, func, sweep=True):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(func=func)
        p.add_argument("--out", required=True)
        if sweep:
            p.add_argument("--jobs", type=_flag(_positive_int), default=1,
                           help="worker threads for the sweep")
        return p

    p = new("spectrum", "single-particle levels of one chain", cmd_spectrum,
            sweep=False)
    p.add_argument("--L", type=int, required=True)
    _add_geometry(p, float)
    p.add_argument("--orbitals", help="optional binary orbital dump path")

    p = new("wavefunction", "exact vs analytic wavefunction of one level",
            cmd_wavefunction, sweep=False)
    p.add_argument("--L", type=int, required=True)
    _add_geometry(p, float)
    p.add_argument("--m", type=int, default=0, help="level index from the Fermi point")

    p = new("velocity-scan", "Fermi velocity a(z) vs the closed form", cmd_velocity_scan)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--z", type=_range, required=True)

    p = new("validity-map", "many-body overlap of the continuum state", cmd_validity_map)
    p.add_argument("--L", type=_int_range, required=True)
    p.add_argument("--z", type=_range, required=True)

    p = new("entropy-scan", "Renyi entropies over blocks or grids", cmd_entropy_scan)
    p.add_argument("--L", type=_int_range, required=True)
    _add_geometry(p, _range)
    p.add_argument("--blocks", choices=["half", "boundary"], default="half")
    p.add_argument("--orders", type=_orders, default=[1.0])

    p = new("renyi-fit", "fit the half-chain Renyi ansatz per (n, z)", cmd_renyi_fit)
    p.add_argument("--L", type=_int_range, required=True)
    p.add_argument("--z", type=_range, required=True)
    p.add_argument("--orders", type=_orders, default=[1.0, 2.0, 3.0, 4.0])

    p = new("es-collapse", "entanglement spectrum rescaled by z/(2 pi^2)", cmd_es_collapse)
    p.add_argument("--L", type=_int_range, required=True)
    p.add_argument("--z", type=_range, required=True)
    p.add_argument("--levels", type=_flag(_positive_int), default=5)

    p = new("sdrg", "decimate a chain into its bond matching", cmd_sdrg, sweep=False)
    p.add_argument("--L", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--couplings", help="comma-separated signed couplings")
    p.add_argument("--arcs", action="store_true", help="print an ASCII arc diagram")

    p = new("entropy-2d", "left-half entropy of the 2D lattice vs size", cmd_entropy_2d)
    p.add_argument("--L", type=_int_range, required=True)
    p.add_argument("--alpha", type=_range, required=True)

    p = new("qubism", "qubism PPM image of the many-body state", cmd_qubism,
            sweep=False)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--amplitudes", help="optional CSV dump (bitstring, amplitude)")

    sub.add_parser(
        "validate", help="run the oracle-equivalence and invariant suites"
    ).set_defaults(func=cmd_validate)

    return ap


def main(argv=None) -> int:
    """Run one command.  Warnings raised on the way are held back: a command
    that succeeds shows them as Python would have, and a command that fails
    puts them in its error record, so stderr then holds one JSON line."""
    error = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                args = build_parser().parse_args(argv)
                args.func(args)
                return 0
            # first: numpy's LinAlgError is a ValueError
            except (NumericsError, np.linalg.LinAlgError, RuntimeError,
                    MemoryError) as exc:
                error, code = exc, 3
            except (ValueError, OSError) as exc:
                error, code = exc, 2
    finally:
        if error is None:
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno,
                                     w.file, w.line)
    record = {"error": type(error).__name__, "message": str(error)}
    if caught:
        record["warnings"] = [{"warning": w.category.__name__, "message": str(w.message)}
                              for w in caught]
    json.dump(record, sys.stderr)
    sys.stderr.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
