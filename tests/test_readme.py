"""The README's library example runs as printed, warnings as errors."""

import subprocess
import sys
from pathlib import Path

from test_golden import src_env

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    """The first ```python block after the "## Library" heading."""
    lines = README.read_text().splitlines()
    start = lines.index("## Library")
    begin = lines.index("```python", start) + 1
    return "\n".join(lines[begin:lines.index("```", begin)])


def test_readme_library_snippet_runs():
    snippet = library_snippet()
    assert "solve_accessory" in snippet
    proc = subprocess.run([sys.executable, "-W", "error", "-c", snippet],
                          env=src_env(), capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
