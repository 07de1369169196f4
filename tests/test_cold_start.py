"""Importing the package loads numpy and nothing from scipy; a routine that
needs scipy loads it when it runs, and a run that never needs it never does.

The CLI checks run in a fresh interpreter: the test process itself has
scipy loaded (pytest's IntegrationWarning filter imports scipy.integrate).
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import friedrichs as fr

from test_cli import CLI_DOC_GENERIC

SRC = Path(fr.__file__).resolve().parent

#: run in a fresh interpreter: argv[1] is a scratch directory; prints, as
#: JSON, the scipy modules loaded after each stage
STAGES = r"""
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

tmp = Path(sys.argv[1])
seen = {}
import friedrichs, friedrichs.cli
seen["import"] = scipy_modules()
main = friedrichs.cli.main

def run(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, (argv, code)

generic, waveguide = tmp / "generic.json", tmp / "waveguide.json"
generic.write_text(sys.argv[2])
run("waveguide", "--n-atoms", 3, "--kappa", 0.75, "--xi", 0.25, "--site", 2, "-o", waveguide)
for doc in (generic, waveguide):
    run("spectrum", "--model", doc, "-o", tmp / "spectrum.csv")
    run("bound-states", "--model", doc, "-o", tmp / "bound.json")
    run("dynamics", "--model", doc, "--points", 50, "-o", tmp / "p.csv")
seen["scipy-free commands"] = scipy_modules()
run("markovian", "--model", waveguide, "--gamma", 0.1, "-o", tmp / "markov.csv")
run("oracle", "--n-atoms", 2, "--kappa", 1.0, "--xi", 0.3, "-o", tmp / "oracle.csv")
run("reproduce", "all", "--outdir", tmp / "reproduce")
seen["markovian, oracle, reproduce"] = scipy_modules()
print(json.dumps(seen))
"""


def test_cli_runs_load_scipy_only_where_they_need_it(tmp_path):
    path_var = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", STAGES, str(tmp_path), json.dumps(CLI_DOC_GENERIC)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path_var},
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["scipy-free commands"] == []
    # the Markovian eigensolver, expm and the lattice's sparse H load their
    # scipy.linalg and scipy.sparse; the root solves and quadrature load none
    loaded = seen["markovian, oracle, reproduce"]
    assert "scipy.optimize" not in loaded and "scipy.integrate" not in loaded, loaded


def _import_time_imports(tree):
    """The import statements a module runs when it is imported: all but those
    inside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_import_time():
    """Covers the modules and branches the CLI runs above do not reach."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in _import_time_imports(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""] if node.level == 0 else []
            offenders += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] == "scipy"
            ]
    assert offenders == []
