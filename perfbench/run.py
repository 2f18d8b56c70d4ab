"""End-to-end benchmark of the PROP reproduction.

    python3 perfbench/run.py --workload prop-industry2 --seed 1 \
        --seconds 30 --trace 0

Runs one workload in a fresh process with a hermetic environment and
prints, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": 3, "failed": 0,
     "metrics": {"wall_s": {"value": 7.41, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs one repetition of the workload's first run untraced,
then the same work under the wrappers of ``tracing.py``; it checks that
both give the same cuts and reports the per-layer metrics.  Lines before the last one give the
details: machine fingerprint, sample counts, bases of ratios, per-class
call counts and absent trace targets.

The exit code is 0 when every operation succeeded and every check
passed, 1 when any failed (the JSON line is still printed), and 2
without a JSON line when the benchmark cannot run at all, e.g. outside
a checkout that holds ``src/repro``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from measure import latency_summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Every run leaves its scratch files under here, inside the checkout.
OUT_DIR = ROOT / ".perfbench"

#: Environment variables that change the program's speed or results.
#: They are removed from the workload's environment.
HERMETIC_DROP = (
    "REPRO_KERNEL", "REPRO_AUDIT", "REPRO_AUDIT_EVERY", "REPRO_FAULTS",
    "REPRO_ENGINE_WORKERS", "REPRO_ENGINE_CACHE",
)

#: Seconds a workload process may take before it is killed.
CHILD_TIMEOUT = 170.0


def commit() -> Optional[str]:
    """The checkout's commit, or None when it is not a git repository.
    Git does not look above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def pin_one_cpu() -> Optional[int]:
    """Pin this process, and so every process it starts, to the last CPU
    it may use; that CPU, or None where affinity cannot be set.

    The workloads hold the interpreter lock, so a second CPU gains them
    nothing, but on a shared 2-vCPU host every hand-off between the
    service's event loop and its worker thread could wake the other,
    idle vCPU.  Measured interleaved, 12 service-mix repetitions each
    way, a repetition's median job latency ranged 5.6-9.1 ms pinned and
    6.8-14.7 ms free, and its wall time 8.8-10.6 s against 9.3-11.4 s.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def hermetic_env(run_dir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in HERMETIC_DROP and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(run_dir)
    return env


def run_child(args, traced: bool, run_dir: Path, deadline: float) -> dict:
    """Run one workload process; its JSON document, or a failure doc."""
    tag = "traced" if traced else "untraced"
    out = run_dir / f"{tag}.json"
    work = run_dir / tag
    work.mkdir()
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--traced", str(int(traced)),
           "--single", str(args.trace), "--out", str(out)]
    if traced:
        cmd += ["--spans", str(OUT_DIR / "traces" /
                               f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(
            cmd, cwd=work, env=hermetic_env(work), capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"{tag} run timed out"}
    if proc.returncode != 0 or not out.exists():
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"crashed": f"{tag} run exited {proc.returncode}: "
                           + " | ".join(tail)}
    return json.loads(out.read_text())


def metric(value: Optional[float], unit: str) -> Dict[str, Any]:
    """A metric entry; a value with no sample to give it (every
    operation failed) is reported as 0, and the run as failed."""
    return {"value": 0.0 if value is None else value, "unit": unit}


def end_to_end(doc: dict, failed: int) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of an untraced run in which ``failed`` of
    the attempted operations failed."""
    attempted = doc["attempted"]
    lat = latency_summary(doc["latencies"])
    return {
        "setup_s": metric(doc["setup_s"], "s"),
        "wall_s": metric(doc["wall_s"], "s"),
        "cut": metric(doc["cut"], "nets"),
        "peak_rss_mb": metric(doc["peak_rss_mb"], "MiB"),
        "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        "job_latency_p50_s": metric(lat.get("p50"), "s"),
        # Too few samples for a p90 (single-run workloads): the median,
        # the highest percentile they support; the detail line says so.
        "job_latency_p90_s": metric(lat.get("p90", lat.get("p50")), "s"),
        "jobs_per_s": metric(doc["ops_per_s"], "1/s"),
    }


def details(doc: dict, label: str) -> List[str]:
    """Human-readable lines that qualify the metrics."""
    lines = [f"[{label}] setup: " + ", ".join(
        f"{k}={v:.4f}" for k, v in doc["setup"].items())]
    lines.append(f"[{label}] operations: attempted={doc['attempted']} "
                 f"failed={len(doc['failures'])} walls="
                 + ", ".join(f"{s}:{w:.3f}" for s, w in doc["op_walls"]))
    summary = latency_summary(doc["latencies"])
    note = "" if "p90" in summary else (
        " (fewer than 10 samples beyond p90: job_latency_p90_s reports "
        "the median)")
    lines.append(f"[{label}] job latency: {json.dumps(summary)}{note}")
    lines.append(f"[{label}] cuts: {json.dumps(doc['cuts'])}")
    for failure in doc["failures"][:20]:
        lines.append(f"[{label}] FAILED: {failure}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the PROP reproduction.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT
    cpu = pin_one_cpu()
    (OUT_DIR / "traces").mkdir(parents=True, exist_ok=True)
    run_dir = OUT_DIR / f"run-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir()
    try:
        docs = [run_child(args, False, run_dir, deadline)]
        if args.trace:
            docs.append(run_child(args, True, run_dir, deadline))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    crashed = [d["crashed"] for d in docs if "crashed" in d]
    if crashed:
        for line in crashed:
            print(f"perfbench: {line}", file=sys.stderr)
        if len(docs) == 1 or "crashed" in docs[0]:
            return 2
    base = docs[0]
    dropped = sorted(k for k in HERMETIC_DROP if k in os.environ)
    print("fingerprint: " + json.dumps(
        dict(base["fingerprint"], commit=commit(), env_dropped=dropped,
             pinned_cpu=cpu)))
    for line in details(base, "untraced"):
        print(line)

    attempted = base["attempted"]
    failures = list(base["failures"]) + crashed
    if args.trace:
        metrics, extra = per_layer(base, docs[1])
        failures += extra
    # One operation can fail more than one check.
    failed = min(attempted, len(failures))
    if not args.trace:
        metrics = end_to_end(base, failed)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def per_layer(base: dict, traced: dict):
    """Per-layer metrics, and the failures comparing the two runs finds."""
    failures: List[str] = []
    layers = dict(base["layers"])
    if "crashed" in traced:
        return ({k: metric(v, unit_of(k)) for k, v in layers.items()},
                failures)
    for line in details(traced, "traced"):
        print(line)
    failures += [f"traced: {f}" for f in traced["failures"]]
    for key, cut in traced["cuts"].items():
        if base["cuts"].get(key) != cut:
            failures.append(f"traced cut {cut} != untraced "
                            f"{base['cuts'].get(key)} for {key}")
    layers.update(traced["traced_layers"])
    # The traced run times one operation; compare it with the untraced
    # operations of the same seed.
    walls = dict(traced["op_walls"])
    same = [w for s, w in base["op_walls"] if s in walls] \
        or [w for _, w in base["op_walls"]]
    if walls and same:
        untraced = statistics.median(same)
        traced_wall = statistics.median(walls.values())
        layers["trace.overhead_ratio"] = traced_wall / untraced
        print(f"[traced] overhead: traced {traced_wall:.4f} s / untraced "
              f"{untraced:.4f} s")
    else:
        layers["trace.overhead_ratio"] = 0.0
        print("[traced] overhead: no operation finished in both runs")
    units = layers.get("engine.units", 0.0)
    print(f"[traced] engine.cache_hit_ratio base: "
          f"{layers.get('engine.cache_hits', 0.0):.0f} hits of "
          f"{units:.0f} units")
    print("[traced] calls by class: " + json.dumps(traced["hot"]))
    if traced["absent"]:
        print("[traced] absent targets (metrics omitted): "
              + ", ".join(traced["absent"]))
    return {k: metric(v, unit_of(k)) for k, v in layers.items()}, failures


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
