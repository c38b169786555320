"""README.md's Python blocks run as written, in a fresh interpreter on this
source tree, so that renaming or deleting a public name they show fails
here and not in a reader's hands."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_python_blocks_run(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL)
    assert len(blocks) == 2  # the second uses the first one's names
    src = ROOT / "src"
    code = f"import rainbow_lab\nassert rainbow_lab.__file__.startswith({str(src)!r})\n"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code + "\n".join(blocks)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
