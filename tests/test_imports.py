"""Source checks over every nipoly module, by ast.

Every name a module imports is used in that module: no linter runs with the
tests, so this is the package's unused-import check; it compares the names
a module's imports bind with the names its code reads.  And every seed
stream and lane constant (_*_STREAM, _*_LANE) has a value of its own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nipoly"

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
