import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rainbow_lab import build_rainbow_profile, cli
from rainbow_lab.cli import main, parse_range


UNDERFLOW_WARNING = {
    "warning": "RuntimeWarning",
    "message": "smallest coupling 0.000e+00 is below 1e-280; "
               "outer links are numerically decoupled",
}


def read_csv(path):
    header, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line:
            rows.append(line.split(","))
    return header, rows


def bytes_without(path, out):
    """The file at `path` with the --out path `out` taken out of its config
    echo, so runs that wrote to two paths compare byte for byte."""
    return path.read_bytes().replace(str(out).encode(), b"")


class TestParseRange:
    def test_inclusive_endpoints(self):
        assert parse_range("0:4:0.5") == pytest.approx(np.arange(0, 4.5, 0.5))

    def test_single_value(self):
        assert parse_range("3") == [3.0]

    def test_integer_range(self):
        assert parse_range("60:160:20", integer=True) == [60, 80, 100, 120, 140, 160]

    def test_bad_step(self):
        with pytest.raises(ValueError):
            parse_range("0:1:0")

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            parse_range("1:2:0.5", integer=True)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="below its start"):
            parse_range("4:0:1")

    def test_non_finite_bound_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            parse_range("1:inf:1")

    @pytest.mark.parametrize("text", ["0:4:1e-300", "0:4:1e-320", "0:1e6:1"])
    def test_over_large_range_refused_before_building(self, text):
        # 4 / 1e-320 overflows to inf; 0:1e6:1 is one value too many
        with pytest.raises(ValueError, match="more than 1000000 values"):
            parse_range(text)

    def test_largest_range_accepted(self):
        assert len(parse_range("0:99999.9:0.1")) == cli.MAX_RANGE_VALUES

    @pytest.mark.parametrize("argv", [
        ["velocity-scan", "--L", "50", "--z", "4:0:1"],
        ["es-collapse", "--L", "60:20:20", "--z", "5"],
        ["validity-map", "--L", "50:10:50", "--z", "0:1:0.5"],
        ["entropy-scan", "--L", "10", "--z", "1:inf:1"],
        ["velocity-scan", "--L", "10", "--z", "0:4:1e-320"],
    ], ids=["inverted-z", "inverted-L", "inverted-map", "infinite", "over-large"])
    def test_bad_range_exits_2_without_artifact(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"
        assert list(tmp_path.iterdir()) == []


class TestBadCommandLine:
    """A command line the parser refuses exits 2 with the JSON error record
    on stderr, and nothing else there, like every other domain error."""

    @pytest.mark.parametrize("argv,expect", [
        (["velocity-scan", "--L", "5", "--z", "0:1:0"], "--z: range step must be positive"),
        (["velocity-scan", "--L", "abc", "--z", "0:1:1"], "--L"),
        (["renyi-fit", "--L", "20:25:0.5", "--z", "0"], "--L: non-integer value"),
        (["entropy-scan", "--L", "10", "--z", "1", "--orders", "1,x"], "--orders"),
        (["entropy-2d", "--L", "8", "--alpha", "0.5", "--jobs", "two"], "--jobs"),
        (["es-collapse", "--L", "60"], "--z"),
        (["spectrum", "--L", "10", "--z", "1", "--nope", "3"], "--nope"),
        (["bogus"], "bogus"),
        (["spectrum", "--L", "10", "--z", "1", "--format", "csv"], "--format"),
        (["qubism", "--sites", "4", "--alpha", "0.5", "--jobs", "2"], "--jobs"),
    ], ids=["zero-step", "non-integer-L", "fractional-int-range", "bad-order",
            "bad-jobs", "missing-flag", "unknown-flag", "unknown-command",
            "single-choice-format", "jobs-without-sweep"])
    def test_json_record_exit_2(self, tmp_path, capsys, argv, expect):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "UsageError"
        assert expect in err["message"]
        assert list(tmp_path.iterdir()) == []


class TestOutRequired:
    """Every command but validate writes an artifact, and refuses a command
    line without its --out before any work."""

    ARTIFACT_COMMANDS = [
        ["spectrum", "--L", "4", "--z", "1"],
        ["wavefunction", "--L", "4", "--z", "1"],
        ["velocity-scan", "--L", "10", "--z", "0:1:0.5"],
        ["validity-map", "--L", "10", "--z", "0:1:0.5"],
        ["entropy-scan", "--L", "10", "--z", "1"],
        ["renyi-fit", "--L", "10:15:1", "--z", "1"],
        ["es-collapse", "--L", "10", "--z", "2"],
        ["sdrg", "--L", "3", "--alpha", "0.1", "--arcs"],
        ["entropy-2d", "--L", "2:6:1", "--alpha", "0.5"],
        ["qubism", "--sites", "4", "--alpha", "0.5"],
    ]

    def test_every_command_but_validate_is_listed(self):
        import argparse

        commands = next(a.choices for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        assert sorted(argv[0] for argv in self.ARTIFACT_COMMANDS) == sorted(
            set(commands) - {"validate"})

    @pytest.mark.parametrize("argv", ARTIFACT_COMMANDS, ids=lambda argv: argv[0])
    def test_missing_out_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "UsageError"
        assert "--out" in err["message"]
        assert list(tmp_path.iterdir()) == []


class TestWarningsOnStderr:
    """Warnings raised while a command runs: a failing command carries them
    in its one-line error record, a succeeding one shows them as raised."""

    @pytest.mark.parametrize("argv,code", [
        (["sdrg", "--L", "200", "--alpha", "0.01"], 2),
        (["es-collapse", "--L", "10", "--z", "2000"], 3),
    ], ids=["sdrg", "es-collapse"])
    def test_failing_command_writes_one_json_line(self, tmp_path, capfd, argv, code):
        # a child interpreter, where Python itself prints warnings to stderr
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        rc = subprocess.run([sys.executable, "-m", "rainbow_lab.cli", *argv,
                             "--out", str(tmp_path / "out")], env=env,
                            timeout=120).returncode
        assert rc == code
        err = capfd.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["warnings"] == [UNDERFLOW_WARNING]

    def test_succeeding_command_still_warns(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="smallest coupling"):
            rc = main(["spectrum", "--L", "10", "--z", "2000",
                       "--out", str(tmp_path / "s.csv")])
        assert rc == 0


class TestFailingCommandWritesNoArtifact:
    """A command writes all of its artifacts or none: one whose last output
    cannot be opened exits 2, prints nothing and leaves no file behind,
    temporary or not, and a file already at its --out keeps its bytes."""

    CASES = {
        "entropy-2d": ["entropy-2d", "--L", "2:6:1", "--alpha", "0.5",
                       "--out", "{d}/e2.csv"],
        "spectrum": ["spectrum", "--L", "2", "--z", "0", "--out", "{d}/sp.csv",
                     "--orbitals", "{d}/missing/dir/o.bin"],
        "validity-map": ["validity-map", "--L", "10", "--z", "0:1:0.5",
                         "--out", "{d}/v.csv"],
        "qubism": ["qubism", "--sites", "4", "--alpha", "0.5", "--out", "{d}/q.ppm",
                   "--amplitudes", "{d}/missing/a.csv"],
        # the commands with --out alone, each into a missing directory
        "wavefunction": ["wavefunction", "--L", "4", "--z", "1",
                         "--out", "{d}/missing/w.csv"],
        "velocity-scan": ["velocity-scan", "--L", "10", "--z", "0:1:0.5",
                          "--out", "{d}/missing/v.csv"],
        "entropy-scan": ["entropy-scan", "--L", "10", "--z", "0:1:0.5",
                         "--out", "{d}/missing/e.csv"],
        "renyi-fit": ["renyi-fit", "--L", "10:15:1", "--z", "0:1:0.5",
                      "--out", "{d}/missing/r.csv"],
        "es-collapse": ["es-collapse", "--L", "10", "--z", "2",
                        "--out", "{d}/missing/c.csv"],
        # its arcs are printed only once the JSON is written
        "sdrg": ["sdrg", "--L", "3", "--alpha", "0.1", "--arcs",
                 "--out", "{d}/missing/b.json"],
    }
    # a second output beside --out, in the same directory: the creation of
    # its temporary fails once the first temporary is written
    BESIDE = ("entropy-2d", "validity-map")
    # the cases whose --out lies in an existing directory
    KEPT = ("entropy-2d", "qubism", "spectrum", "validity-map")

    def _run(self, name, tmp_path, capsys, monkeypatch):
        if name in self.BESIDE:
            mkstemp, made = tempfile.mkstemp, []

            def second_fails(**kwargs):
                if made:
                    raise FileNotFoundError(f"no temporary in {kwargs['dir']}")
                made.append(mkstemp(**kwargs))
                return made[-1]

            monkeypatch.setattr(cli.tempfile, "mkstemp", second_fails)
        argv = [a.format(d=tmp_path) for a in self.CASES[name]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "FileNotFoundError"
        return Path(argv[argv.index("--out") + 1])

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_no_file_left(self, tmp_path, capsys, monkeypatch, name):
        self._run(name, tmp_path, capsys, monkeypatch)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", KEPT)
    def test_existing_out_kept(self, tmp_path, capsys, monkeypatch, name):
        out = Path(self.CASES[name][self.CASES[name].index("--out") + 1]
                   .format(d=tmp_path))
        out.write_bytes(b"kept\n")
        assert self._run(name, tmp_path, capsys, monkeypatch) == out
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("argv,code", [
        (["--orbitals", "{d}/missing/dir/o.bin"], 2),
        ([], 0),
    ])
    def test_a_file_at_a_temporary_name_is_kept(self, tmp_path, capsys, argv, code):
        # the temporaries are new files, never one of the user's
        mine = tmp_path / "x.csv.0.tmp"
        mine.write_bytes(b"mine\n")
        assert main(["spectrum", "--L", "2", "--z", "0", "--out", str(tmp_path / "x.csv"),
                     *(a.format(d=tmp_path) for a in argv)]) == code
        assert mine.read_bytes() == b"mine\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["x.csv", "x.csv.0.tmp"] if code == 0 else ["x.csv.0.tmp"])

    def test_artifact_mode_follows_the_umask(self, tmp_path):
        umask = os.umask(0o027)
        try:
            assert main(["spectrum", "--L", "2", "--z", "0",
                         "--out", str(tmp_path / "x.csv")]) == 0
        finally:
            os.umask(umask)
        assert (tmp_path / "x.csv").stat().st_mode & 0o777 == 0o640

    def test_directory_as_last_output(self, tmp_path, capsys):
        # open() of a directory's temporary sibling succeeds; its rename
        # would fail after the CSV's had already happened
        (tmp_path / "e2_fits.json").mkdir()
        argv = [a.format(d=tmp_path) for a in self.CASES["entropy-2d"]]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"
        assert list(tmp_path.iterdir()) == [tmp_path / "e2_fits.json"]


class TestSharedOutputPathRefused:
    """Two outputs of one command at one file: the second would replace the
    first, so the command exits 2 and writes neither."""

    @pytest.mark.parametrize("argv", [
        ["qubism", "--sites", "4", "--alpha", "0.5", "--out", "q.ppm",
         "--amplitudes", "q.ppm"],
        ["qubism", "--sites", "4", "--alpha", "0.5", "--out", "q.ppm",
         "--amplitudes", "q.ppm.provenance.json"],
        ["spectrum", "--L", "3", "--z", "0", "--out", "s.csv", "--orbitals", "s.csv"],
        ["spectrum", "--L", "3", "--z", "0", "--out", "./s.csv", "--orbitals", "s.csv"],
    ], ids=["qubism-out", "qubism-sidecar", "spectrum", "spectrum-dot-slash"])
    def test_exit_2_no_file(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "share a path" in err["message"]
        assert list(tmp_path.iterdir()) == []


class TestVelocityScan:
    def test_artifact(self, tmp_path):
        out = tmp_path / "v.csv"
        rc = main(["velocity-scan", "--L", "40", "--z", "0:1:0.5", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert any("columns: z,a_numeric,a_fit4,a_analytic" in h for h in header)
        assert len(rows) == 3
        z, a_num, a_fit, a_ana = (float(x) for x in rows[2])
        assert z == 1.0
        assert abs(a_num / a_ana - 1) < 0.05

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["velocity-scan", "--L", "30", "--z", "0:2:1", "--out", str(a)])
        main(["velocity-scan", "--L", "30", "--z", "0:2:1", "--out", str(b)])
        assert bytes_without(a, a) == bytes_without(b, b)

    def test_jobs_do_not_change_output(self, tmp_path):
        # the whole artifact, header included: the config echo leaves out
        # the worker count
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["velocity-scan", "--L", "30", "--z", "0:2:0.5", "--out", str(a)])
        main(["velocity-scan", "--L", "30", "--z", "0:2:0.5", "--out", str(b),
              "--jobs", "2"])
        assert bytes_without(a, a) == bytes_without(b, b)


class TestJobsAtThreadedSizes:
    """--jobs 1 and 2 give the same artifacts, byte for byte but for their
    own --out path, at sizes where BLAS itself runs threaded: chains of 800
    sites and more, lattices up to L = 16 (the alpha = 1 one with its zero
    modes) and the validity map up to L = 200."""

    @pytest.mark.parametrize("argv", [
        ["renyi-fit", "--L", "400:405:1", "--z", "0:4:4", "--orders", "1,2"],
        ["entropy-2d", "--L", "8:16:2", "--alpha", "0.5:1:0.5"],
        ["validity-map", "--L", "100:200:100", "--z", "0:1:0.5"],
    ], ids=["renyi-fit", "entropy-2d", "validity-map"])
    def test_rows_identical(self, tmp_path, argv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*argv, "--out", str(a), "--jobs", "1"]) == 0
        assert main([*argv, "--out", str(b), "--jobs", "2"]) == 0
        assert read_csv(a)[1]
        assert bytes_without(a, a) == bytes_without(b, b)
        if argv[0] == "entropy-2d":
            assert bytes_without(tmp_path / "a_fits.json", a) == \
                bytes_without(tmp_path / "b_fits.json", b)


class TestGeometryFlags:
    def test_exactly_one_required(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["spectrum", "--L", "10", "--alpha", "0.5", "--z", "1",
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"

    def test_domain_error_exit_2(self, tmp_path, capsys):
        rc = main(["spectrum", "--L", "10", "--alpha", "1.5",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "alpha" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs_exit_2(self, tmp_path, capsys, jobs):
        # --jobs's own type refuses it, like --jobs two
        rc = main(["velocity-scan", "--L", "10", "--z", "0", "--jobs", jobs,
                   "--out", str(tmp_path / "v.csv")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"

    @pytest.mark.filterwarnings("default::RuntimeWarning")  # recorded in the JSON
    def test_underflowed_chain_exit_3(self, tmp_path, capsys):
        # outer couplings underflow to exactly 0: exact zero modes, and the
        # underflow warning goes into the error record
        rc = main(["es-collapse", "--L", "10", "--z", "2000",
                   "--out", str(tmp_path / "es.csv")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ZeroModeError"
        assert err["warnings"] == [UNDERFLOW_WARNING]

    @pytest.mark.filterwarnings("default::RuntimeWarning")  # recorded in the JSON
    @pytest.mark.parametrize("argv", [
        ["wavefunction", "--L", "50", "--z", "710", "--m", "0"],
        ["validity-map", "--L", "50", "--z", "710:715:5"],
    ], ids=["wavefunction", "validity-map"])
    def test_overflowed_deformed_length_exit_3(self, tmp_path, capsys, argv):
        # e^(hL) overflows: every continuum phase would read 0, overlap 1
        assert main([*argv, "--out", str(tmp_path / "o.csv")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NumericsError"
        assert "overflows" in err["message"]
        assert {"warning": "RuntimeWarning",
                "message": "overflow encountered in expm1"} in err["warnings"]
        assert list(tmp_path.iterdir()) == []

    def test_numeric_error_exit_3(self, tmp_path, capsys):
        # uniform couplings tie at the first decimation
        rc = main(["sdrg", "--couplings", "1,1,1", "--out", str(tmp_path / "b.json")])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "TieError"

    def test_allocation_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # numpy raises a MemoryError subclass for an array it cannot allocate
        def refuse(profile):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setattr(cli, "chain_svd", refuse)
        out = tmp_path / "s.csv"
        rc = main(["spectrum", "--L", "200000", "--z", "1", "--out", str(out)])
        assert rc == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "MemoryError", "message": "Unable to allocate 298. GiB"}
        assert not out.exists()


RENYI_FIT = ["renyi-fit", "--L", "10:15:1", "--z", "1"]
BOUNDARY_SCAN = ["entropy-scan", "--L", "6", "--alpha", "1", "--blocks", "boundary"]
GRADED_SCAN = ["entropy-scan", "--L", "10", "--z", "30"]  # coupling ratio e^30
VALIDITY_MAP = ["validity-map", "--L", "10", "--z", "0:1:1"]
LATTICE = ["entropy-2d", "--L", "2:6:1", "--alpha", "0.5"]
ES_COLLAPSE = ["es-collapse", "--L", "10", "--z", "1"]


class TestLapackFailureExits3:
    """Every LAPACK call of the library takes its info through one rule
    (``_lapack._check``): a failing call, forced here by patching the
    routine to report a nonzero info, ends its command with exit 3, one
    JSON record naming the routine, and no artifact.  f2py routines are
    patched on ``_lapack._flapack``, the ctypes ones on ``spectra``.  dgetrf
    has a documented positive info, so it fails on info < 0."""

    @pytest.mark.parametrize("routine,info,argv", [
        ("dgesdd", 1, BOUNDARY_SCAN),
        ("dgesdd", 1, LATTICE),
        ("dgesdd_lwork", -1, BOUNDARY_SCAN),
        ("dsyevd", 1, ES_COLLAPSE),
        ("dsyevd", 1, RENYI_FIT),
        ("dsyevd_lwork", -1, ES_COLLAPSE),
        ("dtrtrs", -2, RENYI_FIT),
        ("dgeqrt", -2, VALIDITY_MAP),
        ("dgemqrt", -4, VALIDITY_MAP),
        ("dgetrf", -1, VALIDITY_MAP),
        ("_dbdsqr", 1, GRADED_SCAN),
        ("_dbdsqr", 1, RENYI_FIT),
        ("_dbdsdc", 1, BOUNDARY_SCAN),
        ("_dlaed4", 1, RENYI_FIT),
    ], ids=["dgesdd-polar", "dgesdd-lattice", "dgesdd_lwork", "dsyevd-orbital",
            "dsyevd-fold", "dsyevd_lwork", "dtrtrs", "dgeqrt", "dgemqrt",
            "dgetrf", "dbdsqr-chain", "dbdsqr-edge", "dbdsdc", "dlaed4"])
    def test_lapack_failure_exits_3(self, tmp_path, capsys, monkeypatch, routine,
                                    info, argv):
        from rainbow_lab import _lapack, spectra

        if routine.startswith("_"):
            solve = getattr(spectra, routine)

            def failing(*args):
                solve(*args)
                args[-1].value = info

            monkeypatch.setattr(spectra, routine, failing)
        else:
            call = getattr(_lapack._flapack, routine)

            def failing(*args, **kwargs):
                return (*call(*args, **kwargs)[:-1], info)

            monkeypatch.setattr(_lapack._flapack, routine, failing)
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 3
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "NumericsError"
        assert f"{routine.lstrip('_')} failed with info={info}" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_nan_singular_value_fails_the_certificate(self, tmp_path, capsys,
                                                      monkeypatch):
        # dbdsdc reporting success with a NaN singular value: the residual is
        # NaN, which the certificate refuses, rather than a zero mode
        from rainbow_lab import spectra

        solve = spectra._dbdsdc

        def nan_first(*args):
            solve(*args)
            args[3][0] = math.nan

        monkeypatch.setattr(spectra, "_dbdsdc", nan_first)
        assert main([*BOUNDARY_SCAN, "--out", str(tmp_path / "out.csv")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NumericsError"
        assert err["message"].startswith("eigen-residual nan exceeds")
        assert list(tmp_path.iterdir()) == []

    def test_numpy_linalg_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # LinAlgError is a ValueError, but a numerical failure all the same
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(np.linalg, "qr", failing)
        assert main([*RENYI_FIT, "--out", str(tmp_path / "out.csv")]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "LinAlgError", "message": "forced failure"}
        assert list(tmp_path.iterdir()) == []

    def test_rank_deficient_fit_stays_exit_2(self, tmp_path, capsys, monkeypatch):
        # a design with dependent columns is the input's fault, not LAPACK's
        qr = np.linalg.qr

        def deficient(design):
            q, r = qr(design)
            r[-1, -1] = 0.0
            return q, r

        monkeypatch.setattr(np.linalg, "qr", deficient)
        assert main([*RENYI_FIT, "--out", str(tmp_path / "out.csv")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "RankDeficientError"
        assert list(tmp_path.iterdir()) == []


class TestSpectrum:
    def test_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        orb = tmp_path / "orb.bin"
        rc = main(["spectrum", "--L", "8", "--z", "1", "--out", str(out),
                   "--orbitals", str(orb)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 16
        ms = [int(r[0]) for r in rows]
        assert ms == list(range(-8, 8))
        assert orb.stat().st_size == 16 + 8 * 16 * 16


class TestWavefunction:
    def test_overlap_header(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["wavefunction", "--L", "50", "--z", "1", "--m", "0",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        overlap = [h for h in header if h.startswith("# overlap:")][0]
        assert float(overlap.split(":")[1]) > 0.99
        assert len(rows) == 100

    def test_subnormal_h_prints_the_h0_columns(self, tmp_path):
        # the couplings at h = 5e-324 are bitwise those at h = 0; a subnormal
        # h x once gave analytic samples 0.4472 against 0.4686 and an
        # overlap of 0.999413 against 0.999311
        printed = []
        for h in ("5e-324", "0"):
            out = tmp_path / f"w{h}.csv"
            assert main(["wavefunction", "--L", "4", "--h", h, "--m", "0",
                         "--out", str(out)]) == 0
            header, rows = read_csv(out)
            overlap = [line for line in header if line.startswith("# overlap:")]
            printed.append((overlap, [r[2] for r in rows]))
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("m", ["-10", "9"])
    def test_level_range_ends(self, tmp_path, m):
        out = tmp_path / "w.csv"
        rc = main(["wavefunction", "--L", "10", "--z", "1", "--m", m,
                   "--out", str(out)])
        assert rc == 0
        assert len(read_csv(out)[1]) == 20

    @pytest.mark.parametrize("m", ["-11", "10"])
    def test_level_out_of_range_exit_2(self, tmp_path, capsys, m):
        out = tmp_path / "w.csv"
        rc = main(["wavefunction", "--L", "10", "--z", "1", "--m", m,
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "--m" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("m", ["-1600", "1599"])
    def test_builds_only_the_printed_level(self, tmp_path, monkeypatch, m):
        # the full (2L)^2 orbital matrix would be 98 MiB at L = 1600
        from rainbow_lab import cli, spectra

        def refuse(*args, **kwargs):
            raise AssertionError("all orbitals assembled")

        assemble = spectra._orbitals
        assembled = []

        def one_level(svd, levels):
            assembled.append(levels.tolist())
            if levels.size != 1:
                refuse()
            return assemble(svd, levels)

        monkeypatch.setattr(spectra, "_orbitals", one_level)
        monkeypatch.setattr(cli, "orbitals_from_svd", refuse)
        out = tmp_path / "w.csv"
        rc = main(["wavefunction", "--L", "1600", "--z", "2", "--m", m,
                   "--out", str(out)])
        assert rc == 0
        assert assembled == [[1600 + int(m)]]
        assert len(read_csv(out)[1]) == 3200


class TestValidityMap:
    def test_grid_and_contours(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["validity-map", "--L", "20:30:10", "--z", "0:0.5:0.25",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 6
        contours = tmp_path / "grid_contours.csv"
        _, crows = read_csv(contours)
        assert len(crows) == 2


class TestEntropyScan:
    def test_half_grid(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["entropy-scan", "--L", "10:20:10", "--z", "0:1:1",
                   "--orders", "1,2", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 2 * 2 * 2

    def test_boundary_single_geometry(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["entropy-scan", "--L", "6", "--alpha", "0.8",
                   "--blocks", "boundary", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 11

    def test_uniform_chain_prints_no_negative_zero(self, tmp_path):
        # alpha = 1 gives h = z = +0.0, in the rows and in the profile header
        out = tmp_path / "e.csv"
        assert main(["entropy-scan", "--L", "2", "--z", "0", "--blocks", "half",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert rows[0][:4] == ["2", "1", "0", "0"]
        assert '"h": 0.0, "z": 0.0' in "".join(header)
        # every printed value, but not the --out path the config line
        # echoes, which holds "-0" under a basetemp named pytest-0
        assert b"-0" not in bytes_without(out, out)

    def test_alpha_is_the_chain_other_commands_build(self, tmp_path):
        # --alpha gives build_rainbow_profile(L, alpha) itself, as in spectrum
        # and wavefunction, not the chain of alpha's round trip through z
        out = tmp_path / "e.csv"
        rc = main(["entropy-scan", "--L", "10", "--alpha", "0.4", "--out", str(out)])
        assert rc == 0
        header, _ = read_csv(out)
        assert f"# profile: {build_rainbow_profile(10, 0.4).to_json()}" in header

    def test_h_is_the_chain_h_names(self):
        # --h builds its chain from h itself; sent through z = h L and back,
        # h came back some ulps off for most of these 413 pairs
        for h in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.7):
            for L in range(1, 60):
                profile = cli._profile("h", h, L)
                assert profile.h == h and profile.z == h * L
                want = [math.exp(-h * (2 * k - 1) / 2.0) for k in range(1, L)]
                assert profile.couplings[L:].tolist() == want

    def test_h_header_records_the_flag_value(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["entropy-scan", "--L", "3", "--h", "0.05", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        line = next(x for x in header if x.startswith("# profile: "))
        profile = json.loads(line[len("# profile: "):])
        assert profile["h"] == 0.05 and profile["z"] == 0.05 * 3

    @pytest.mark.parametrize("h", ["-0.1", "inf", "nan"])
    def test_bad_h_exit_2(self, tmp_path, capsys, h):
        assert main(["entropy-scan", "--L", "3", "--h", h,
                     "--out", str(tmp_path / "e.csv")]) == 2
        assert "h must be" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("argv", [
        ["es-collapse", "--L", "4", "--z", "nan"],
        ["es-collapse", "--L", "4", "--z", "inf"],
        ["velocity-scan", "--L", "10", "--z", "inf"],
        ["velocity-scan", "--L", "10", "--z", "nan"],
    ], ids=["es-collapse-nan", "es-collapse-inf", "velocity-scan-inf",
            "velocity-scan-nan"])
    def test_non_finite_z_exit_2(self, tmp_path, capsys, argv):
        # it named alpha, a flag never given ("got nan", "got 0.0")
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith("z must be finite and non-negative")
        assert list(tmp_path.iterdir()) == []

    def test_large_order_is_finite(self, tmp_path, monkeypatch):
        # log(nu^n + (1 - nu)^n) underflowed here: S printed inf after a
        # RuntimeWarning, with exit 0.  The printed S is the computed one to
        # 12 digits; the computed one is checked against mpmath
        import dense_oracle as oracle

        computed = []
        original = cli.renyi_entropies

        def recording(nu, orders):
            values = original(nu, orders)
            computed.append((nu, values))
            return values

        monkeypatch.setattr(cli, "renyi_entropies", recording)
        out = tmp_path / "e.csv"
        assert main(["entropy-scan", "--L", "50", "--z", "1", "--orders", "1,5000",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        [(nu, values)] = computed
        assert [row[5:] for row in rows] == [["1", format(values[0], ".12g")],
                                            ["5000", format(values[1], ".12g")]]
        for n, S in zip((1, 5000), values):
            assert math.isfinite(S)
            assert abs(S - oracle.renyi_mp(nu, n)) <= 1e-12

    def test_boundary_needs_single_geometry(self, tmp_path):
        rc = main(["entropy-scan", "--L", "6:8:2", "--alpha", "0.8",
                   "--blocks", "boundary", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestRenyiFit:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "fit.csv"
        rc = main(["renyi-fit", "--L", "20:25:1", "--z", "0:1:1",
                   "--orders", "1,2", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 4
        c_vals = [float(r[2]) for r in rows]
        assert all(0.9 < c < 1.1 for c in c_vals)

    def test_single_parity_usage_error(self, tmp_path):
        rc = main(["renyi-fit", "--L", "20:30:2", "--z", "0:0:1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_too_few_sizes_rejected_before_solving(self, tmp_path, capsys,
                                                   monkeypatch):
        from rainbow_lab import cli
        from rainbow_lab.fitting import MIN_RENYI_SIZES

        def refuse(*args, **kwargs):
            raise AssertionError("solved before the size check")

        monkeypatch.setattr(cli, "chain_svd", refuse)
        monkeypatch.setattr(cli, "halfchain_nu", refuse)
        out = tmp_path / "x.csv"
        stop = 20 + MIN_RENYI_SIZES - 2
        rc = main(["renyi-fit", "--L", f"20:{stop}:1", "--z", "0", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message":
                       "need at least 6 sizes for the three-parameter fit"}
        assert not out.exists()

    def test_jobs_do_not_change_output(self, tmp_path):
        # z = 30 passes the 1e10 coupling ratio, so both SVD routines run
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        grid = ["--L", "60:65:1", "--z", "0:30:15"]
        assert main(["renyi-fit", *grid, "--out", str(a), "--jobs", "1"]) == 0
        assert main(["renyi-fit", *grid, "--out", str(b), "--jobs", "2"]) == 0
        assert len(read_csv(a)[1]) == 3 * 4
        assert bytes_without(a, a) == bytes_without(b, b)


class TestEsCollapse:
    def test_rows(self, tmp_path):
        out = tmp_path / "es.csv"
        rc = main(["es-collapse", "--L", "40", "--z", "10:20:10",
                   "--levels", "3", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 2 * 6  # both signs
        ps = {float(r[2]) for r in rows}
        assert ps == {0.5, 1.5, 2.5, -0.5, -1.5, -2.5}

    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_levels_below_one_exit_2(self, tmp_path, capsys, levels):
        out = tmp_path / "es.csv"
        rc = main(["es-collapse", "--L", "20", "--z", "5", "--levels", levels,
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError"
        assert "--levels" in err["message"]
        assert not out.exists()

    def test_dense_route_gives_the_same_artifact(self, tmp_path, monkeypatch):
        # odd and even L on both bidiagonal drivers, against the route through
        # the oracle's dense hopping matrix
        import dense_oracle as oracle
        from rainbow_lab import cli

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        grid = ["--L", "41:101:15", "--z", "5:35:10"]
        assert main(["es-collapse", *grid, "--out", str(a)]) == 0
        monkeypatch.setattr(cli, "chain_svd", lambda profile, sites=None: profile)
        monkeypatch.setattr(
            cli, "occupied_from_svd",
            lambda profile: oracle.occupied(
                oracle.diagonalize(*oracle.chain_hamiltonian(profile))
            ),
        )
        assert main(["es-collapse", *grid, "--out", str(b)]) == 0
        rows = read_csv(a)[1]
        assert len(rows) >= 5 * 4 * 9  # an odd-L nu = 1/2 row may drop out
        assert rows == read_csv(b)[1]

    def test_numpy_route_gives_the_same_artifact(self, tmp_path, monkeypatch):
        # the orbital route's product and eigensolver run on SciPy's BLAS;
        # on numpy's the rows, odd-L nu = 1/2 labels included, must not move
        import dense_oracle as oracle
        from rainbow_lab import CorrelationMatrix

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        grid = ["--L", "101:141:20", "--z", "5:40:5"]
        assert main(["es-collapse", *grid, "--out", str(a)]) == 0
        monkeypatch.setattr(cli, "correlation_matrix", oracle.numpy_correlation)
        monkeypatch.setattr(CorrelationMatrix, "eigenvalues", oracle.numpy_eigenvalues)
        assert main(["es-collapse", *grid, "--out", str(b)]) == 0
        rows = read_csv(a)[1]
        assert len(rows) >= 3 * 8 * 9  # an odd-L nu = 1/2 row may drop out
        assert rows == read_csv(b)[1]

    def test_jobs_do_not_change_output(self, tmp_path):
        # z = 20 stays below the 1e10 coupling ratio (divide and conquer),
        # z = 25 and 30 pass it (zero-shift QR): two threads run both
        # bidiagonal SVD routines at once
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        grid = ["--L", "200:240:20", "--z", "20:30:5"]
        assert main(["es-collapse", *grid, "--out", str(a), "--jobs", "1"]) == 0
        assert main(["es-collapse", *grid, "--out", str(b), "--jobs", "2"]) == 0
        assert len(read_csv(a)[1]) == 9 * 10
        assert bytes_without(a, a) == bytes_without(b, b)


class TestOrdersRefusedBeforeSolving:
    @pytest.mark.parametrize("argv", [
        ["renyi-fit", "--L", "20:25:1", "--z", "0:1:1", "--orders", "1,0.5"],
        ["entropy-scan", "--L", "20", "--z", "0:1:1", "--orders", "0"],
        ["entropy-scan", "--L", "20", "--z", "1", "--blocks", "boundary",
         "--orders", "2,-1"],
        ["entropy-scan", "--L", "10", "--z", "1", "--orders", "nan"],
        ["renyi-fit", "--L", "20:25:1", "--z", "0:1:1", "--orders", "1,nan"],
        ["entropy-scan", "--L", "10", "--z", "1", "--orders", "inf"],
        ["renyi-fit", "--L", "40:45:1", "--z", "1", "--orders", "1,inf"],
    ], ids=["renyi-fit", "entropy-scan", "entropy-scan-boundary",
            "entropy-scan-nan", "renyi-fit-nan", "entropy-scan-inf", "renyi-fit-inf"])
    def test_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        from rainbow_lab import cli

        def refuse(*args, **kwargs):
            raise AssertionError("chain solved before the order check")

        monkeypatch.setattr(cli, "chain_svd", refuse)
        monkeypatch.setattr(cli, "halfchain_nu", refuse)
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError"
        assert "Renyi order must be >= 1" in err["message"]
        assert not out.exists()


class TestChainCommandsBuildNoHoppingMatrix:
    """Every 1D command reads its orbitals off chain_svd: none solves a
    dense matrix, the way the 2D lattice does."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--L", "12", "--z", "2", "--out", "{d}/s.csv",
         "--orbitals", "{d}/o.bin"],
        ["wavefunction", "--L", "12", "--z", "2", "--m", "-1", "--out", "{d}/w.csv"],
        ["velocity-scan", "--L", "20", "--z", "0:2:1", "--out", "{d}/v.csv"],
        ["validity-map", "--L", "10:20:10", "--z", "0:0.5:0.25", "--out", "{d}/m.csv"],
        ["es-collapse", "--L", "21", "--z", "5:10:5", "--out", "{d}/e.csv"],
        ["qubism", "--sites", "8", "--alpha", "0.4", "--out", "{d}/q.ppm"],
        ["validate"],
    ], ids=lambda argv: argv[0])
    def test_succeeds_without_the_builder(self, tmp_path, monkeypatch, argv):
        from rainbow_lab import spectra

        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix solved")

        monkeypatch.setattr(spectra, "_dense_svd", refuse)
        assert main([a.format(d=tmp_path) for a in argv]) == 0


class TestSpectralCommandsFormNoOrbitals:
    """The commands that print only levels read them off the singular
    values; only the orbital dump assembles the orbital matrix."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--L", "12", "--z", "2", "--out", "{d}/s.csv"],
        ["velocity-scan", "--L", "20", "--z", "0:2:1", "--out", "{d}/v.csv"],
    ], ids=lambda argv: argv[0])
    def test_succeeds_without_the_orbital_assembly(self, tmp_path, monkeypatch, argv):
        from rainbow_lab import spectra

        def refuse(*args, **kwargs):
            raise AssertionError("orbitals assembled")

        monkeypatch.setattr(spectra, "_orbitals", refuse)
        assert main([a.format(d=tmp_path) for a in argv]) == 0


class TestSdrgCommand:
    def test_rainbow_json(self, tmp_path, capsys):
        out = tmp_path / "bonds.json"
        rc = main(["sdrg", "--L", "3", "--alpha", "0.1", "--arcs", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["bonds"] == [[2, 3, 1], [1, 4, -1], [0, 5, 1]]
        assert len(data["trace"]) == 3
        assert "+" in capsys.readouterr().out

    def test_explicit_couplings(self, tmp_path):
        out = tmp_path / "bonds.json"
        rc = main(["sdrg", "--couplings", "1,0.5,-0.25", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert [b[:2] for b in data["bonds"]] == [[0, 1], [2, 3]]

    @pytest.mark.filterwarnings("default::RuntimeWarning")  # recorded in the JSON
    def test_underflowed_rainbow_exits_2_on_its_zero_couplings(self, tmp_path, capsys):
        # alpha = 0.01 at L = 200 underflows the outer couplings to 0
        out = tmp_path / "bonds.json"
        rc = main(["sdrg", "--L", "200", "--alpha", "0.01", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "zero couplings disconnect the chain",
                       "warnings": [UNDERFLOW_WARNING]}
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--L", "7"], ["--alpha", "0.1"],
                                       ["--L", "7", "--alpha", "0.1"]],
                             ids=["L", "alpha", "both"])
    def test_couplings_with_rainbow_flags_exit_2(self, tmp_path, capsys, extra):
        # the couplings would be decimated and the provenance name the rainbow
        out = tmp_path / "bonds.json"
        rc = main(["sdrg", "--couplings", "1,2,1", *extra, "--out", str(out)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "give --couplings or --L with --alpha, not both"}
        assert not out.exists()

    @pytest.mark.parametrize("couplings", ["1,inf,1", "1,2,1e400", "nan", "1,nan,1"])
    def test_non_finite_couplings_exit_2(self, tmp_path, capsys, couplings):
        out = tmp_path / "bonds.json"
        rc = main(["sdrg", "--couplings", couplings, "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "must be finite" in err["message"]
        assert not out.exists()


class TestEntropy2D:
    def test_scan_and_fit(self, tmp_path):
        out = tmp_path / "e2d.csv"
        rc = main(["entropy-2d", "--L", "2:6:1", "--alpha", "0.5", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 5
        fits = json.loads((tmp_path / "e2d_fits.json").read_text())
        rec = fits["data"][0]
        assert rec.keys() >= {"alpha", "A", "B", "C", "A_bits_per_side"}
        assert rec["A_bits_per_side"] == pytest.approx(
            rec["A"] / (4 * np.log(2)), rel=1e-12
        )


    @staticmethod
    def _refuse_solves(monkeypatch, message):
        """Fail the test if entropy-2d's solve entry, or either route behind
        it (sectors or the dense block), is called."""
        from rainbow_lab import entanglement

        def refuse(*args, **kwargs):
            raise AssertionError(message)

        monkeypatch.setattr(cli, "lattice_half_nu", refuse)
        monkeypatch.setattr(entanglement, "sector_svd", refuse)
        monkeypatch.setattr(entanglement, "lattice_svd", refuse)

    def test_too_few_sizes_rejected_before_solving(self, tmp_path, capsys,
                                                   monkeypatch):
        self._refuse_solves(monkeypatch, "solved before the size check")
        out = tmp_path / "e2d.csv"
        rc = main(["entropy-2d", "--L", "8:20:4", "--alpha", "0.5:1:0.25",
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "need at least 5 sizes, got 4"}
        assert not out.exists()
        assert not (tmp_path / "e2d_fits.json").exists()

    def test_alpha_above_1_rejected_before_solving(self, tmp_path, capsys, monkeypatch):
        self._refuse_solves(monkeypatch, "solved before every lattice was checked")
        out = tmp_path / "e2d.csv"
        rc = main(["entropy-2d", "--L", "8:24:4", "--alpha", "0.9:1.1:0.1",
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "alpha must lie in (0, 1]" in err["message"]
        assert not out.exists()
        assert not (tmp_path / "e2d_fits.json").exists()

    def test_graded_lattice_exits_3_without_artifact(self, tmp_path, capsys,
                                                     monkeypatch):
        # alpha = 0.3 grades the L >= 20 lattices past ten decades; the
        # L = 8, 12 and 16 lattices before them are not solved either, on
        # sectors (L = 8) or on the dense block (L = 12, 16)
        self._refuse_solves(monkeypatch, "solved before every lattice was checked")
        out = tmp_path / "e2d.csv"
        rc = main(["entropy-2d", "--L", "8:24:4", "--alpha", "0.3", "--out", str(out)])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NumericsError"
        assert "ten decades" in err["message"]
        assert not out.exists()
        assert not (tmp_path / "e2d_fits.json").exists()


    @pytest.mark.parametrize("side", [1.0 + 1e-9, 1.0 - 1e-9], ids=["above", "below"])
    def test_refusal_edge(self, tmp_path, capsys, monkeypatch, side):
        # alpha^-(L - 1/2) = 1e10 * side: one read of the links decides both
        # the refusal and the route, in lattice_half_nu and in entropy-2d's
        # check before any solve
        from rainbow_lab import Lattice2D, lattice_half_nu, spectra

        L = 12
        alpha = (1e10 * side) ** (-1.0 / (L - 0.5))
        lat = Lattice2D(L, alpha)
        solves, svd = [], spectra._svd

        def counted(*args, **kwargs):
            solves.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(spectra, "_svd", counted)
        out = tmp_path / "e2d.csv"
        argv = ["entropy-2d", "--L", "8:12:1", "--alpha", repr(alpha), "--out", str(out)]
        if side > 1.0:
            with pytest.raises(spectra.NumericsError, match="ten decades"):
                lattice_half_nu(lat)
            assert main(argv) == 3
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "NumericsError"
            assert "ten decades" in err["message"]
            assert solves == []
            assert list(tmp_path.iterdir()) == []
        else:
            assert lattice_half_nu(lat).size == lat.n_sites // 2
            assert solves == [(lat.n_sites // 2,) * 2]  # the dense block
            assert main(argv) == 0
            assert out.exists()


class TestEntropy2DPolarRoute:
    def test_no_dense_matrix_orbitals_or_correlation(self, tmp_path, monkeypatch):
        import dense_oracle as oracle
        from rainbow_lab import Lattice2D, entanglement, spectra, vn_entropy

        def refuse(*args, **kwargs):
            raise AssertionError("dense route taken")

        monkeypatch.setattr(spectra, "_orbitals", refuse)
        monkeypatch.setattr(entanglement, "CorrelationMatrix", refuse)
        out = tmp_path / "e2d.csv"
        rc = main(["entropy-2d", "--L", "2:6:1", "--alpha", "0.5:1:0.5",
                   "--out", str(out)])
        assert rc == 0
        monkeypatch.undo()
        _, rows = read_csv(out)
        assert len(rows) == 10
        for alpha, L, S, _ in rows:
            lat = Lattice2D(int(L), float(alpha))
            c_full = oracle.lattice_correlation(lat)
            want = vn_entropy(oracle.restrict(c_full, lat.left_half()).eigenvalues())
            # the CSV keeps 12 significant digits
            assert abs(float(S) - want) <= 1e-11 * max(1.0, abs(want))


class TestQubism:
    def test_ppm_and_sidecar(self, tmp_path):
        out = tmp_path / "q.ppm"
        rc = main(["qubism", "--sites", "6", "--alpha", "0.1", "--out", str(out)])
        assert rc == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n8 8\n255\n")
        assert len(data) == 11 + 3 * 64
        sidecar = json.loads((tmp_path / "q.ppm.provenance.json").read_text())
        assert sidecar["tool"] == "rainbow-lab"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        main(["qubism", "--sites", "8", "--alpha", "0.3", "--out", str(a)])
        main(["qubism", "--sites", "8", "--alpha", "0.3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_odd_sites_rejected(self, tmp_path):
        rc = main(["qubism", "--sites", "7", "--alpha", "0.3",
                   "--out", str(tmp_path / "x.ppm")])
        assert rc == 2


class TestValidate:
    def test_passes(self, capsys):
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert "oracle equivalence" in out

    def test_a_failing_check_exits_3_with_the_record(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sdrg_entropy", lambda *args: 0.0)
        assert main(["validate"]) == 3
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "NumericsError", "message": "validate: 1 check(s) failed"}
        lines = captured.out.splitlines()
        assert "FAIL  sdrg entropy equals bond crossings" in lines
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert lines[-1] == "1 failure(s)"


class TestFiguresCommands:
    """Every command of FIGURES.md's table parses, together with the flags
    its Artifacts column names (``--amplitudes``), and so
    does every ``rainbow-lab`` line of README.md, so a renamed or removed
    flag fails here; nothing is run."""

    @staticmethod
    def _text(name):
        from pathlib import Path

        return (Path(__file__).resolve().parent.parent / name).read_text()

    @classmethod
    def _rows(cls):
        import re

        for line in cls._text("FIGURES.md").splitlines():
            cells = line.split("|")[1:-1]
            if len(cells) != 3 or "`rainbow-lab " not in cells[1]:
                continue
            command = re.search(r"`rainbow-lab ([^`]*)`", cells[1]).group(1)
            extra = re.findall(r"`(--[^`]*)`", cells[2])
            yield command, extra

    def test_every_command_parses(self):
        import shlex

        from rainbow_lab import cli

        rows = list(self._rows())
        assert len(rows) >= 10
        for command, extra in rows:
            for argv in [shlex.split(command)] + [shlex.split(command + " " + e) for e in extra]:
                args = cli.build_parser().parse_args(argv)
                assert args.command == argv[0]
                assert callable(args.func)

    def test_every_readme_command_parses(self):
        import shlex

        from rainbow_lab import cli

        lines = [line.strip() for line in self._text("README.md").splitlines()
                 if line.strip().startswith("rainbow-lab ")]
        assert len(lines) >= 4
        for line in lines:
            argv = shlex.split(line)[1:]
            args = cli.build_parser().parse_args(argv)
            assert args.command == argv[0]
            assert callable(args.func)
