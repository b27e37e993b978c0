"""The runtime keeps zero dependencies: importing ghl3 and its CLI pulls in
nothing outside the standard library."""

from conftest import run_python

PROBE = """\
import sys
before = set(sys.modules)
import ghl3, ghl3.cli
new = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(new - set(sys.stdlib_module_names) - {"ghl3"}))
"""


def test_runtime_imports_only_the_standard_library():
    out = run_python("-c", PROBE)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
