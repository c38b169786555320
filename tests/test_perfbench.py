"""The traced benchmark run reaches into the library by name:
perfbench/spans.py wraps the public functions that cli, entanglement,
continuum and fitting look up, plus CorrelationMatrix.eigenvalues, and
counts the blocks of correlation_matrix.  Installing it on this source
tree must work, so that deleting or renaming a name it needs fails here
and not only in the traced benchmark gates."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_spans_install_on_the_source(tmp_path):
    src = ROOT / "src"
    code = f"""
import spans
import rainbow_lab.cli as cli

assert cli.__file__.startswith({str(src)!r}), cli.__file__
rec = spans.Recorder()
spans.install(rec)
argv = ["es-collapse", "--L", "10", "--z", "5", "--jobs", "1",
        "--out", {str(tmp_path / "es.csv")!r}]
assert cli.main(argv) == 0
layers = spans.summarize(rec, 1.0)
assert layers["entanglement.eig_calls"] == 1, layers
assert layers["entanglement.block_dim_sum"] == 10, layers
"""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(src)])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
