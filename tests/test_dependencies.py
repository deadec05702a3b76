"""oockit runs on the standard library alone: importing it loads nothing else.

A child interpreter in isolated mode (`python -I`) records the top-level
names in `sys.modules` before and after it imports `oockit` and every
submodule.  The interpreter may load packages of its own at startup, so only
the names the imports add are checked.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = {name.partition(".")[0] for name in sys.modules}
for name in sys.argv[2:]:
    __import__(name)
after = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(after - before)))
"""


def test_importing_every_module_loads_only_the_standard_library():
    files = sorted((SRC / "oockit").glob("*.py"))
    modules = ["oockit", *(f"oockit.{p.stem}" for p in files if p.stem != "__init__")]
    assert "oockit.cli" in modules
    argv = [sys.executable, "-I", "-c", CHILD, str(SRC), *modules]
    loaded = json.loads(subprocess.run(argv, capture_output=True, check=True, text=True).stdout)
    assert "oockit" in loaded
    assert [name for name in loaded if name != "oockit"
            and name not in sys.stdlib_module_names] == []
