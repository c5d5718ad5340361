"""Smoke tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402
from matchgates import hierarchy, majorana  # noqa: E402
from matchgates.circuits import CircuitIR  # noqa: E402
from matchgates.hierarchy import HierarchyReport  # noqa: E402
from matchgates.svn import SvnResult  # noqa: E402
from matchgates.teleport import TeleportTranscript  # noqa: E402
from tracer import Tracer  # noqa: E402


def _wrong(answer):
    """A deliberately wrong version of a task's answer."""
    if isinstance(answer, HierarchyReport):
        return dataclasses.replace(answer, min_level=(answer.min_level or 0) + 1)
    if isinstance(answer, TeleportTranscript):
        b = answer.branches[-1]
        bad = dataclasses.replace(b, corrected=b.corrected * (1 + 1e-7))
        return dataclasses.replace(answer, branches=answer.branches[:-1] + (bad,))
    if isinstance(answer, SvnResult):
        return dataclasses.replace(answer, u=answer.u + 1e-7)
    if isinstance(answer, np.ndarray):
        bad = answer.copy()
        bad[0, 1] += 1e-7
        return bad
    if isinstance(answer, CircuitIR):
        return dataclasses.replace(answer, gates=answer.gates[::-1])
    return types.SimpleNamespace(exit_code=answer.exit_code, stdout=answer.stdout + " ", exception=None, stderr="")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_oracle_accepts_the_answer_and_rejects_a_wrong_one(name, tmp_path):
    mix = workloads.Mix(workloads.WORKLOADS[name], 11, tmp_path)
    tasks = mix.tasks(0, unit=True)
    workloads.run_tasks(tasks)
    assert workloads.check_tasks(tasks) == []
    for task in tasks:
        assert task.check(_wrong(task.result)) is not None, task.family
    families = {t.family for t in tasks}
    assert len(families) >= 8


def test_failed_oracle_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "check_teleport", lambda *a, **k: "forced failure")
    code = run.main(["--workload", "protocol_mix", "--seed", "3", "--seconds", "0.1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_tracer_counts_calls_through_the_hierarchy_binding():
    tracer = Tracer()
    tracer.install()
    try:
        assert hierarchy.parity_of is majorana.parity_of  # one wrapper in both namespaces
        tracer.enabled = True
        u = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)
        hierarchy.is_gaussian_lambda(u)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert hierarchy.parity_of.__name__ == "parity_of" and not hasattr(hierarchy.parity_of, "__wrapped__")
    table = tracer.analyse()
    parity = np.flatnonzero(table.is_("majorana.parity_of"))
    assert len(parity) == 1
    assert table.names[table.name_id[table.parent[parity[0]]]] == "hierarchy.is_gaussian_lambda"
    top = table.parent < 0
    wall = float(np.frombuffer(tracer.end)[top].sum() - np.frombuffer(tracer.start)[top].sum())
    assert 0 <= table.self_s.sum() <= wall + 1e-12
    assert table.dim.max() == 16  # norm_max of the 4^n x 4^n commutator


def test_import_profile_counts_only_outermost_entries(monkeypatch):
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |         scipy._lib",
            "import time:        20 |         30 |       scipy",
            "import time:        40 |         70 |     scipy.stats",
            "import time:        30 |        100 |   matchgates.sampling",
            "import time:        50 |        150 | matchgates",
            "import time:         5 |        155 | matchgates.cli",
        ]
    )
    done = types.SimpleNamespace(returncode=0, stderr=stderr)
    monkeypatch.setattr(run.subprocess, "run", lambda *a, **k: done)
    got = run.import_profile()
    assert got["scipy"] == pytest.approx(70e-6)
    assert got["matchgates"] == pytest.approx(305e-6)


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    passes = [{"wall": 1.0, "scaled": [0.1] * 10, "routes": {"classify": 0.5}, "peak_rss_mb": 100.0}]
    e2e = run.end_to_end(passes, [{"import_s": 1.0, "setup_s": 2.0, "reference_s": 0.2}])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    layer = [f"{f}.{s}" for f in run.LAYER_FUNCTIONS for s in ("calls", "self_s")]
    layer += ["hierarchy.first_level_coeffs.hit_ratio", "hierarchy.nodes_per_classify"]
    layer += ["import.matchgates_s", "import.scipy_s", "peak_dim", "trace.overhead_ratio"]
    layer += sweep.metric_names()
    assert [m["name"] for m in spec["per_layer"]] == layer
    assert len(layer) <= 128
