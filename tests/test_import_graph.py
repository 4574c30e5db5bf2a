"""The CLI's import graph holds only the standard library, numpy and hyperrect.

A cold `hyperrect` call pays for every module its import loads, so a
heavy import (scipy, mpmath, hypothesis) that creeps onto the CLI path
shows up here before it shows up as a slower start.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: the test process has long since imported
# pytest, hypothesis and the rest.
PROBE = """
import json, sys
startup = set(sys.modules)
import hyperrect.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - startup}
print(json.dumps(sorted(loaded)))
"""


def test_cli_imports_only_stdlib_numpy_and_hyperrect():
    path = filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(result.stdout)
    assert "hyperrect" in loaded
    foreign = [
        name for name in loaded
        if name not in sys.stdlib_module_names and name not in ("numpy", "hyperrect")
    ]
    assert foreign == []
