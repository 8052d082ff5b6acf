"""Every function in ``src/rmlab`` runs in a verb, or is named in ``NOT_RUN``
with what keeps it. A tiny pipeline runs in a fresh interpreter under
``sys.settrace``; code that only the tests reach belongs in ``oracles.py``.

The match is exact, so a listed function that starts to run, or is deleted,
fails here too: the list stays as short as what pins it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rmlab"

TINY = {"n_train": 200, "n_test": 100, "n_pools": 4, "train": {"epochs": 1}}

NOT_RUN = {
    "bestofn.bon_fast",  # a span target in perfbench/tracing.py
    "envs.Dataset.samples",  # perfbench/tracing.py's envs.sample_env span counts pairs with it
    "cli.entry",  # the `rmlab` console script (pyproject.toml)
    "cli.__getattr__",  # perfbench/selftest.py reads and patches `cli.train` through it
}

# --jobs 1 trains every net in this process, so the tracer sees _train_one
PROBE = """
import json, os, sys
package, config, out = sys.argv[1:]
ran = set()

def record(frame, event, arg):
    code = frame.f_code
    if os.path.dirname(code.co_filename) == package:
        ran.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))

sys.settrace(record)
from rmlab import cli
codes = [cli.main([verb, "--config", config, "--out", out, "--jobs", "1"])
         for verb in ("gen", "matrix", "sfd", "bon", "report")]
sys.settrace(None)
print(json.dumps({"codes": codes, "ran": sorted(ran)}))
"""


def defined_functions() -> dict:
    """``{(file, first line, name): "module.Qual.name"}`` for every ``def`` in
    the package; a decorated function's code starts at its first decorator."""
    found = {}

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(file, first, child.name)] = prefix + child.name
                walk(child, file, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, f"{prefix}{child.name}.")
            else:
                walk(child, file, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.name, f"{path.stem}.")
    return found


def test_every_function_runs_in_a_verb_or_is_pinned(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(TINY))
    paths = [str(PACKAGE.parent)] + ([os.environ["PYTHONPATH"]]
                                     if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(PACKAGE), str(config),
                           str(tmp_path / "out")], env=env, capture_output=True,
                          text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"][:4] == [0, 0, 0, 0], proc.stderr
    assert doc["codes"][4] in (0, 1), proc.stderr  # report exits 1 for a failed check
    ran = {tuple(key) for key in doc["ran"]}
    defined = defined_functions()
    assert ran & defined.keys()
    assert {name for key, name in defined.items() if key not in ran} == NOT_RUN
