"""The README's library example runs as written and prints what its own
comment says it prints."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_example_prints_its_comment():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text("utf-8"),
                        re.S | re.M)
    assert len(blocks) == 1
    comment = re.findall(r"^# (.*)$", blocks[0], re.M)
    assert comment == ["S3 6 10 / D10 10 6 / A4 12 5"]
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == comment[0].split(" / ")
