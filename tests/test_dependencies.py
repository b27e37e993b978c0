"""The runtime keeps zero dependencies: importing ghl3 and its CLI pulls in
nothing outside the standard library."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROBE = """\
import sys
before = set(sys.modules)
import ghl3, ghl3.cli
new = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(new - set(sys.stdlib_module_names) - {"ghl3"}))
"""


def test_runtime_imports_only_the_standard_library():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
