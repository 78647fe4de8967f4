"""Source checks over every nipoly module, by ast, and the memory its import
leaves behind.

Every name a module imports is used in that module: no linter runs with the
tests, so this is the package's unused-import check; it compares the names
a module's imports bind with the names its code reads.  Every seed stream
and lane constant (_*_STREAM, _*_LANE) has a value of its own.  The three
engines (scan, rsk, kpath) import no module above them.  And importing the
package from source, with no cached bytecode, keeps little resident.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nipoly"
ENGINES = ("scan", "rsk", "kpath")
# the modules built on the engines: the drivers and the interface, shapes,
# random-matrix and Szego layers
ABOVE_ENGINES = {"polymer", "interface", "shapes", "rmt", "szego"}
# resident growth of importing every nipoly module from source after numpy
# and scipy, in MB: the heap CPython's parser leaves behind grows faster
# than the module it compiles (2.5 MB for a 44 KB module, 1.2 MB for a
# 21 KB one), so the package reads 3.0 to 3.2 MB with the three engines
# inside polymer and 2.0 to 2.1 MB with one module per engine
IMPORT_RESIDUE_MB = 2.5

# module.name of imports kept for a reader outside the module:
# bench/test_bench.py patches shapes.omega_grid as an import site of omega_grid
ALLOWED = {"shapes.omega_grid"}


def _unused_imports(tree: ast.Module) -> set:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_every_imported_name_is_used():
    unused = {
        "%s.%s" % (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    }
    assert sorted(unused - ALLOWED) == []
    # the check itself: b is bound and never read
    tree = ast.parse("from __future__ import annotations\nimport numpy as np\nfrom .special import a, b\nx = a(np)\n")
    assert _unused_imports(tree) == {"b"}


def test_seed_streams_and_lanes_are_distinct():
    # a value bound twice would draw two drivers' replicas from one seed stream
    consts = {
        "%s.%s" % (path.stem, node.targets[0].id): ast.literal_eval(node.value)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.startswith("_")
        and node.targets[0].id.endswith(("_STREAM", "_LANE"))
    }
    assert len(consts) >= 14, consts
    assert all(isinstance(v, int) for v in consts.values()), consts
    assert len(set(consts.values())) == len(consts), consts


def _nipoly_imports(tree: ast.Module) -> set:
    """The nipoly modules that a module's imports name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("nipoly.")}
        elif isinstance(node, ast.ImportFrom):
            package = node.level > 0 or node.module == "nipoly"
            if package and node.module in (None, "nipoly"):
                found |= {a.name for a in node.names}  # from . import x
            elif package or node.module.startswith("nipoly."):
                found.add(node.module.split(".")[-1])
    return found


def test_engines_import_no_module_above_them():
    for name in ENGINES:
        path = SRC / (name + ".py")
        assert _nipoly_imports(ast.parse(path.read_text(), filename=str(path))) & ABOVE_ENGINES == set(), name
    # the check itself: each form of import is seen
    tree = ast.parse(
        "import nipoly.shapes\nfrom . import polymer, environment\nfrom .rmt import x\n"
        "from nipoly import szego\nfrom nipoly.interface import y\nimport numpy\n"
    )
    assert _nipoly_imports(tree) == {"shapes", "polymer", "environment", "rmt", "szego", "interface"}


RESIDUE_PROBE = """
import importlib, json, os, sys
sys.path.insert(0, os.getcwd())
import numpy, scipy.special, scipy.optimize, scipy.integrate

def resident():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

before = resident()
for name in %r:
    importlib.import_module(name)
print(json.dumps({"mb": (resident() - before) / 2**20, "file": sys.modules["nipoly"].__file__}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads /proc/self/statm")
def test_importing_nipoly_from_source_leaves_little_resident(tmp_path):
    # a copy of the package has no __pycache__, and python -B writes none,
    # so every nipoly module compiles from source, as a fresh checkout does;
    # numpy and scipy come first, from their own bytecode
    shutil.copytree(SRC, tmp_path / "nipoly", ignore=shutil.ignore_patterns("__pycache__"))
    modules = ["nipoly"] + ["nipoly." + p.stem for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPYCACHEPREFIX", None)  # it would compile numpy and scipy from source too
    run = subprocess.run(
        [sys.executable, "-B", "-c", textwrap.dedent(RESIDUE_PROBE % modules)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    out = json.loads(run.stdout.splitlines()[-1])
    assert Path(out["file"]).parent == tmp_path / "nipoly"
    assert not (tmp_path / "nipoly" / "__pycache__").exists()
    assert out["mb"] <= IMPORT_RESIDUE_MB, out
