"""Benchmark of the matchgates toolkit on three seeded workload mixes.

Run from the repository root (the package need not be installed; the
benchmark puts ``src`` on ``PYTHONPATH``):

    python3 perfbench/run.py --workload hierarchy_mix --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: median set-up and import
time over fresh probe processes, then timed passes over the workload's
tasks until ``--seconds`` have gone by, each pass on fresh seeded inputs
and each answer checked by an oracle after the pass. ``--trace 1`` is the
separate traced run: it alternates untraced and traced passes, reports
per-layer call counts and self times from the spans, the tracing overhead,
the import profile and the primitive sweep.

One single-threaded process runs the tasks back to back: a closed loop with
one client. BLAS is pinned to one thread. Task times are reported in
reference seconds: each measured latency is scaled by the speed of a fixed
reference kernel sampled around it (see calibrate.py), because the
machine's own speed drifts by more than the bounds. Import and set-up times
are medians over fresh processes, each scaled by a reference start-up run
just before it. The peak RSS covers set-up and the first timed pass; later
passes repeat the same work on new inputs. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
print every metric by name and unit, the raw times, the provenance and the
sample counts. A report and the spans go to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5  # fresh processes doing the whole set-up; each also gives an import time
IMPORT_PROBES = 4  # fresh processes that only import matchgates.cli
PROBE_TIMEOUT_S = 120
CALIBRATE_EVERY = 3  # tasks per group between two kernel samples
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TASK_STRIDE = 100_000  # task ids of pass p are p * TASK_STRIDE + index
GEN_TASK = -2  # task id of spans recorded while a traced pass's inputs are drawn

ROUTE_METRICS = {
    "classify": "classify_s",
    "teleport": "teleport_s",
    "svn": "svn_s",
    "dense": "compile_dense_s",
    "compact": "compile_compact_s",
    "cli": "cli_s",
}

# Functions whose calls and self time the traced run reports, as "module.function".
LAYER_FUNCTIONS = (
    "majorana.parity_of",
    "majorana.parity_decompose",
    "linalg.norm_max",
    "hierarchy.first_level_coeffs",
    "hierarchy.level_membership",
    "hierarchy.min_level",
    "hierarchy.is_gaussian_lambda",
    "hierarchy.extract_rotation",
    "hierarchy.classify_gate",
    "hierarchy.two_qubit_min_level",
    "circuits.gate_rotation",
    "circuits.circuit_to_rotation",
    "circuits.parse_circuit",
    "circuits.circuit_to_operator",
    "linalg.kron",
    "linalg.embed_two_qubit",
    "circuits.build_bn",
    "teleport.simulate_protocol",
    "teleport.magic_state",
    "teleport.correction_K",
    "teleport.correction_R",
    "hierarchy.is_gaussian_state_lambda",
    "svn.svn_reconstruct",
    "majorana.check_car",
    "linalg.canonical_phase",
    "linalg.equal_up_to_phase",
    "io.dumps_stable",
    "io.matrix_to_json",
    "io.matrix_from_json",
    "io.tuple_from_json",
    "cli.gate_from_token",
    "cli.command",
    "sampling.haar_unitary",
)
GEN_FUNCTIONS = ("sampling.haar_unitary",)  # counted while inputs are drawn, not in the timed pass


def _median(values):
    return statistics.median(values) if values else float("nan")


def _percentile_ms(latencies, q):
    import numpy as np

    return float(np.percentile(np.asarray(latencies) * 1e3, q))


def probe(args: list[str]) -> dict[str, float]:
    """Seconds from spawning a fresh probe process to each of its marks."""
    cmd = [sys.executable, str(HERE / "probe.py"), *args]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    marks = json.loads(proc.stdout.strip().splitlines()[-1])
    if marks.get("failures"):
        raise RuntimeError(f"set-up probe warm-up failed: {marks['failures'][:3]}")
    out = {"import_s": marks["imported"] - t_spawn}
    if "ready" in marks:
        out["setup_s"] = marks["ready"] - t_spawn
    return out


def import_profile() -> dict[str, float]:
    """Cumulative import seconds of matchgates and of scipy, from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import matchgates.cli"],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import profile failed: {proc.stderr.strip()[-2000:]}")
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    out = {"matchgates": 0.0, "scipy": 0.0}
    # Rows come children first; walking them backwards visits each parent before its
    # children. A row counts when no row above it belongs to the same package.
    stack: list[tuple[int, frozenset]] = []
    for depth, name, seconds in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = stack[-1][1] if stack else frozenset()
        root = name.split(".")[0]
        if root in out and root not in inside:
            out[root] += seconds
        stack.append((depth, inside | {root}))
    return out


def provenance(args, workload) -> dict:
    import numpy as np
    import scipy
    from importlib.metadata import version

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "held_out_seed": held_out_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "pythonpath": "src",
        "loop": "closed, one client, one thread",
    }


def held_out_seed(seed: int) -> int:
    """A second seed, fixed by the first, kept back for checking a claim later."""
    return (seed * 2654435761 + 97) % 2**31


def scale_latencies(latencies: list[float], samples: list[float]) -> list[float]:
    """Scale each latency by the kernel samples around its task group."""
    import calibrate

    out = []
    for i, lat in enumerate(latencies):
        g = i // CALIBRATE_EVERY  # samples[g] precedes the group, samples[g + 1] follows it
        out.append(lat * calibrate.factor(samples[max(0, g - 1) : g + 3]))
    return out


def measure(mix, seconds: float, first_tasks, tracer=None):
    """Timed passes until seconds have gone by; with a tracer, every second pass is traced.

    Returns one record per pass and the oracle failures.
    """
    from workloads import check_tasks, run_tasks

    passes = []
    failures: list[str] = []
    t_end = time.perf_counter() + seconds
    p = 0
    tasks = first_tasks
    while True:
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.install()
            tracer.enabled = True
            tracer.task_id = GEN_TASK
        if tasks is None:
            tasks = mix.tasks(p, tracer if traced else None)
        gc.collect()
        latencies, samples = run_tasks(tasks, tracer if traced else None, p * TASK_STRIDE, CALIBRATE_EVERY)
        if traced:
            tracer.enabled = False
            tracer.uninstall()
        failures += check_tasks(tasks)
        scaled = scale_latencies(latencies, samples)
        routes: dict[str, float] = {}
        for task, lat in zip(tasks, scaled):
            routes[task.route] = routes.get(task.route, 0.0) + lat
        passes.append(
            {
                "index": p,
                "traced": traced,
                "tasks": len(tasks),
                "wall_raw": sum(latencies),
                "wall": sum(scaled),
                "routes": routes,
                "scaled": scaled,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )
        mix.discard(p)
        p += 1
        tasks = None
        if p >= (2 if tracer is not None else 1) and time.perf_counter() >= t_end:
            return passes, failures


def end_to_end(passes, probes) -> dict[str, tuple[float, str]]:
    """Medians over passes of the scaled task times, task percentiles over the
    latencies of all passes pooled (every pass has the same mix), medians over
    probes of the start-up times each scaled by the reference start-up run
    just before it, and the peak RSS through set-up and the first timed pass."""
    import calibrate

    def startup(key: str) -> float:
        scaled = [pr[key] * calibrate.STARTUP_REFERENCE_S / pr["reference_s"] for pr in probes if key in pr]
        return _median(scaled)

    m = {
        "setup_s": (startup("setup_s"), "s"),
        "import_s": (startup("import_s"), "s"),
        "wall_s": (_median([p["wall"] for p in passes]), "s"),
    }
    for route, name in ROUTE_METRICS.items():
        m[name] = (_median([p["routes"].get(route, 0.0) for p in passes]), "s")
    pooled = [lat for p in passes for lat in p["scaled"]]
    m["task_p50_ms"] = (_percentile_ms(pooled, 50), "ms")
    m["task_p90_ms"] = (_percentile_ms(pooled, 90), "ms")
    m["peak_rss_mb"] = (passes[0]["peak_rss_mb"], "MB")
    return m


def per_layer(passes, tracer, seed) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the spans of the traced passes (raw seconds), plus the sweep."""
    import sweep

    table = tracer.analyse()
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    k = len(traced)
    in_pass = table.task >= 0
    problems = []
    for p in traced:
        sel = (table.task // TASK_STRIDE) == p["index"]
        if table.self_s[sel & in_pass].sum() > p["wall_raw"]:
            problems.append(f"trace: summed self time exceeds traced wall_s in pass {p['index']}")
    stats = table.per_name(in_pass)
    stats.update({n: v for n, v in table.per_name(table.task == GEN_TASK).items() if n in GEN_FUNCTIONS})
    m: dict[str, tuple[float, str]] = {}
    for name in LAYER_FUNCTIONS:
        s = stats.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = (s["calls"] / k, "count")
        m[f"{name}.self_s"] = (s["self_s"] / k, "s")
    flc = stats.get("hierarchy.first_level_coeffs", {"calls": 0, "hits": 0})
    m["hierarchy.first_level_coeffs.hit_ratio"] = (flc["hits"] / max(flc["calls"], 1), "ratio")
    in_classify = table.under("hierarchy.classify_gate") & in_pass
    nodes = (table.is_("hierarchy.first_level_coeffs") & in_classify).sum() + (
        table.is_("majorana.parity_of") & table.under("hierarchy.level_membership") & in_classify
    ).sum()
    classify_calls = stats.get("hierarchy.classify_gate", {"calls": 0})["calls"]
    m["hierarchy.nodes_per_classify"] = (float(nodes) / max(classify_calls, 1), "count")
    imports = import_profile()
    m["import.matchgates_s"] = (imports["matchgates"], "s")
    m["import.scipy_s"] = (imports["scipy"], "s")
    m["peak_dim"] = (float(table.dim[in_pass].max()) if in_pass.any() else 0.0, "count")
    overhead = _median([p["wall"] for p in traced]) / _median([p["wall"] for p in untraced]) - 1.0
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m.update(sweep.run(seed))
    return m, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "matchgates" / "__init__.py").is_file():
        print(f"perfbench: no src/matchgates under {root}; run from the repository root", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    os.environ.pop("MGH_TOL", None)
    sys.path.insert(0, str(src))
    out_dir = HERE / ".work"
    workdir = out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"

    probes = []
    if args.trace == 0:
        import calibrate

        try:
            setup_args = [args.workload, str(args.seed)]
            for i in range(SETUP_PROBES + IMPORT_PROBES):
                reference = calibrate.startup_sample(PROBE_TIMEOUT_S)
                marks = probe(setup_args + [str(workdir / f"probe{i}")] if i < SETUP_PROBES else [])
                probes.append({**marks, "reference_s": reference})
        except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1

    from workloads import WORKLOADS, Mix

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    mix = Mix(workload, args.seed, workdir / "main")
    failures = mix.warm_up()  # checked, but not counted as attempted

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    passes, pass_failures = measure(mix, args.seconds, mix.tasks(0), tracer)
    failures += pass_failures
    attempted = sum(p["tasks"] for p in passes)
    if args.trace:
        metrics, problems = per_layer(passes, tracer, args.seed)
        failures += problems
    else:
        metrics = end_to_end(passes, probes)

    prov = provenance(args, workload)
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(
        f"# passes {len(passes)} (traced {sum(p['traced'] for p in passes)}), "
        f"tasks per pass {sorted({p['tasks'] for p in passes})}, set-up probes {len(probes)}"
    )
    raw = {"wall_s": _median([p["wall_raw"] for p in passes])}
    if probes:
        raw["setup_s"] = _median([pr["setup_s"] for pr in probes if "setup_s" in pr])
        raw["import_s"] = _median([pr["import_s"] for pr in probes])
        raw["reference start-up"] = _median([pr["reference_s"] for pr in probes])
    print("# raw seconds (unscaled medians) " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {len(failures) / max(attempted, 1):.6g} 1")
    for line in failures[:20]:
        print(f"# FAILED {line}")

    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "provenance": prov,
        "passes": [{k: v for k, v in p.items() if k != "scaled"} for p in passes],
        "probes": probes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
    }
    (out_dir / f"report-{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"spans-{stem}.tsv.gz")
    import shutil

    shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
