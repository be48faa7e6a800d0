"""The README's library examples run against the package as it stands."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    examples = re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    assert len(examples) == 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    stdout = []
    for example in examples:
        result = subprocess.run(
            [sys.executable, "-c", example], capture_output=True, text=True, env=env, cwd=ROOT
        )
        assert result.returncode == 0, result.stderr
        stdout.append(result.stdout)
    assert stdout[0] == "30 0.75\n"
