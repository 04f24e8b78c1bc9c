"""What `import cayleykit` loads, and which objects its public names are.

numpy and the intervals, median and classify submodules load on first use,
so every check runs in a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cayleykit

SRC = str(Path(cayleykit.__file__).resolve().parents[1])

# prints whether numpy is loaded and which lazily loaded submodules have run;
# object.__getattribute__ reads a module's dict without running the module
REPORT = """
    import sys
    ran = sorted(
        name for name, defined in
        (("classify", "census"), ("intervals", "build_interval"), ("median", "medians"))
        if defined in object.__getattribute__(sys.modules[f"cayleykit.{name}"], "__dict__")
    )
    print("numpy" in sys.modules, ",".join(ran) or "-")
"""


def _python(code: str, *args: str) -> list[str]:
    """Run code in a fresh interpreter that imports cayleykit from SRC; its stdout lines."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("CAYLEYKIT_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _cli_report(*argv: str) -> str:
    """The REPORT line after cli.main(argv), which must exit 0."""
    cli = "import sys\nfrom cayleykit.cli import main\nassert main(sys.argv[1:]) == 0\n"
    *_, line = _python(cli + textwrap.dedent(REPORT), *argv)
    return line


def test_import_loads_no_numpy_and_runs_no_lazy_submodule():
    assert _python("import cayleykit\n" + textwrap.dedent(REPORT)) == ["False -"]


@pytest.mark.parametrize("argv", [
    ("geodesics", "--model", "z2", "(0,0)", "(3,-4)"),
    ("dist", "--model", "cyclic:9", "2", "8"),
    ("dist", "--model", "sym-adjacent:6", "e", "(1,4)(2,6)"),
    ("dist", "--model", "sym-circular:10", "e", "(1,2)"),
], ids=lambda argv: argv[2])
def test_queries_without_arrays_load_no_numpy(argv):
    assert _cli_report(*argv) == "False -"


def test_a_cached_table_answers_without_numpy(tmp_path):
    cache = ("--cache-dir", str(tmp_path))
    assert _cli_report("cache", "build", "--model", "sym-circular:6", *cache).startswith("True")
    dist = ("dist", "--model", "sym-circular:6", "e", "(1,6)(2,5)(3,4)")
    assert _cli_report(*dist, *cache) == "False -"
    # the same query on the table strategy with no cache builds the table,
    # so the check above can fail
    assert _cli_report(*dist, "--strategy", "table") == "True -"


@pytest.mark.parametrize("model, target", [
    ("sym-circular:9", "(1,5,9,4,8,3,7,2,6)"),
    ("sym-custom:9:(1,2);(1,2,3,4,5,6,7,8,9)", "(1,2)(3,9,4,8,5,7,6)"),
], ids=["circular", "directed"])
def test_a_one_shot_dist_searches_without_numpy(model, target):
    # no cache and no --strategy: one bidirectional search, not the n! table
    assert _cli_report("dist", "--model", model, "e", target) == "False -"


PUBLIC_NAMES = """
    import importlib, inspect, sys
    if sys.argv[1] == "module first":
        module = importlib.import_module("cayleykit.classify")
        import cayleykit
    else:
        import cayleykit
        assert inspect.isfunction(cayleykit.classify)
        module = importlib.import_module("cayleykit.classify")
    assert set(cayleykit.__all__) <= set(dir(cayleykit))
    assert inspect.isfunction(cayleykit.classify), cayleykit.classify
    assert cayleykit.classify is module.classify
    assert inspect.isfunction(module.census) and module.census.__name__ == "census"
    for name in cayleykit.__all__:
        obj = getattr(cayleykit, name)
        home = "cayleykit.cayley" if name == "RELATIONS" else obj.__module__
        assert getattr(importlib.import_module(home), name) is obj, name
    star = {}
    exec("from cayleykit import *", star)
    assert all(star[name] is getattr(cayleykit, name) for name in cayleykit.__all__)
    print("ok")
"""


@pytest.mark.parametrize("order", ["module first", "attribute first"])
def test_public_names_are_their_submodules_objects(order):
    assert _python(PUBLIC_NAMES, order) == ["ok"]
