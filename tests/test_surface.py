"""The package's documented surface.

`matchgates` re-exports exactly the names that the README's Python
blocks and the demos import from it, and lists them once, in its import
statements; every other name is imported from its module. The README
quick start must run as printed, and the states in a teleportation
transcript use the README's state format.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import numpy as np

import matchgates
from matchgates import named_gate, random_state, simulate_protocol
from matchgates.io import state_to_json

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def _top_level_imports(source):
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "matchgates":
            names.update(alias.name for alias in node.names)
    return names


def test_public_names_are_the_documented_ones():
    documented = set()
    for source in PYTHON_BLOCKS + [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]:
        documented |= _top_level_imports(source)
    public = {
        name
        for name, obj in vars(matchgates).items()
        if not name.startswith("_") and not isinstance(obj, ModuleType)
    }
    assert public == documented


def test_the_import_statement_is_the_only_list():
    assert not hasattr(matchgates, "__all__")


def test_import_does_not_load_the_selftest():
    path = [str(Path(matchgates.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, matchgates; print('matchgates.selftest' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.stdout.strip() == "False", run.stderr


def test_readme_quick_start_runs():
    exec(compile(PYTHON_BLOCKS[0], "README.md", "exec"), {})


def test_transcript_states_use_the_state_format():
    psi = random_state(2, np.random.default_rng(0))
    d = simulate_protocol(named_gate("CZ"), psi).to_json(include_states=True)
    assert d["input_state"] == state_to_json(psi)
    assert d["target_state"] == state_to_json(named_gate("CZ") @ psi)
    assert d["branches"][0]["raw_state"]["n"] == 2
