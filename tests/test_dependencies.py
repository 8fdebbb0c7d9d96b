"""The package runs on the standard library alone."""

import json
import os
import subprocess
import sys

import pytest

import repro

# Run in a fresh interpreter: record what start-up (``site``) already
# loaded, import every repro module, and report the new top-level packages.
# ``multiprocessing`` aliases ``__main__`` as ``__mp_main__``; that alias
# loads nothing and is skipped.
_IMPORT_ALL = """
import sys
before = set(sys.modules)
import importlib, json, pkgutil
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)
main = sys.modules["__main__"]
new = {name.split(".")[0] for name, module in sys.modules.items()
       if name not in before and module is not main}
print(json.dumps(sorted(new)))
"""


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names is new in Python 3.10")
def test_importing_every_module_loads_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert "repro" in loaded
    assert loaded - {"repro"} - sys.stdlib_module_names == set()
