"""One workload, run in a process of its own (started by ``run.py``).

    python3 perfbench/workloads.py --workload prop-industry2 --seed 1 \
        --seconds 30 --traced 0 --out result.json

Sets the workload up, runs its timed section, checks every returned
partition independently of the partitioner's own bookkeeping, and
writes one JSON document to ``--out``.  With ``--traced 1`` the timed
section runs once under :mod:`tracing` wrappers and the document also
carries the per-layer counts and times.  Every check that fails is
listed under ``failures``; the process itself exits 0 unless it
crashes, and ``run.py`` turns failures into a non-zero exit.

The program is driven only through its public API: ``PropPartitioner``,
``NLevelPartitioner``, and ``PartitionService``/``ServiceServer``
through ``ServiceClient``.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import another_fits, supports  # noqa: E402
from tracing import Tracer, install_layers, layer_metrics  # noqa: E402

#: prop-industry2: PROP passes per run, runs per repetition.  A
#: converged default run takes 5-10 passes depending on the seed (20-38 s
#: measured), so its time would spread by a third across seeds; a fixed
#: pass count makes the work of a run a fixed number of tentative moves
#: (passes x nodes).  After 3 passes 24 of 29 runs were within 3% of the
#: converged cut and the rest about 30% above it, so the reported cut is
#: the best of the runs, as in the paper's best-of-N protocol.
PROP_PASSES = 3
PROP_RUNS = 2

#: nlevel-large30k: node count and refiner passes per call.  A default
#: run at 30k nodes takes 50-77 s with a pass count that varies by seed,
#: hence the one-pass refiner.  The run is the same for every workload
#: seed: the generator's default instance and the partitioner's default
#: seed.  One run's cut is bimodal -- 10 nets, or 13-38 when the
#: projected partition fragments (10 of 26 measured runs; across instance
#: seeds 16-56) -- so a seed-driven cut would spread past every bound
#: the benchmark may set, even as the best of two runs.
NLEVEL_NODES = 30000
NLEVEL_PASSES = 1

#: service-mix job list, per repetition and before resubmissions: tiny
#: FM jobs, multi-run FM-bucket jobs on Table-1 circuits (801-1752
#: nodes; the copies differ by tag, hence by seed), and one EIG1 and one
#: MELO job on four of those circuits.  The FM jobs are about 18% of all
#: jobs, so the p90 latency falls inside their cluster, not in the gap
#: between them and the several-times-faster spectral jobs.
SERVICE_TINY = 48
SERVICE_FM_CIRCUITS = ("balu", "bm1", "p1", "t3", "t4", "t6")
SERVICE_FM_COPIES = 3
SERVICE_FM_RUNS = 2
SERVICE_SPECTRAL_CIRCUITS = ("balu", "bm1", "p1", "t3")
#: The client resubmits an identical earlier spec after every third
#: fresh job, so a quarter of all jobs are cache reads.
RESUBMIT_EVERY = 3

#: service-mix stops repeating at this many times ``--seconds`` even
#: when its latency samples do not yet support a p90, so a run whose
#: jobs fail still ends, and reports, well inside the time limit.
SERVICE_MAX_FACTOR = 3

IMPORTS = "import repro, repro.multilevel, repro.service"

#: Each set-up part is timed this many times and its median kept.
SETUP_REPEATS = 5


def _median_timed(fn: Callable[[], Any]) -> float:
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def time_imports() -> float:
    """Median import time of the program in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); "
        f"{IMPORTS}; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, timeout=60,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def recount(graph, balance, result) -> List[str]:
    """Problems with ``result``, found from its sides alone."""
    sides = list(result.sides)
    if len(sides) != graph.num_nodes or any(s not in (0, 1) for s in sides):
        return ["sides are not a 0/1 vector over every node"]
    problems = []
    cut = 0.0
    for net_id, pins in enumerate(graph.nets):
        if any(sides[v] != sides[pins[0]] for v in pins):
            cut += graph.net_cost(net_id)
    if abs(cut - result.cut) > 1e-6:
        problems.append(f"reported cut {result.cut} != recounted {cut}")
    weights = [0.0, 0.0]
    for v, s in enumerate(sides):
        weights[s] += graph.node_weight(v)
    if not balance.is_satisfied(weights):
        problems.append(f"side weights {weights} violate the balance")
    try:
        result.verify(graph)
    except AssertionError as exc:
        problems.append(f"verify: {exc}")
    return problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Single-run workloads: prop-industry2 and nlevel-large30k
# ---------------------------------------------------------------------------
def prop_graph():
    from repro.hypergraph import make_benchmark

    return make_benchmark("industry2")


def prop_runs(graph, seed: int):
    from repro import BalanceConstraint, PropConfig, PropPartitioner

    balance = BalanceConstraint.fifty_fifty(graph)
    partitioner = PropPartitioner(PropConfig(max_passes=PROP_PASSES))
    return balance, [
        (s, lambda s=s: partitioner.partition(graph, balance=balance, seed=s))
        for s in random.Random(seed).sample(range(1, 2**31), PROP_RUNS)
    ]


def nlevel_graph():
    from repro.hypergraph.generators import large_circuit

    return large_circuit(NLEVEL_NODES)


def nlevel_runs(graph, seed: int):
    """The fixed n-level run; ``seed`` is unused (see NLEVEL_PASSES)."""
    from repro import BalanceConstraint, PropConfig, PropPartitioner
    from repro.multilevel import NLevelPartitioner

    balance = BalanceConstraint.forty_five_fifty_five(graph)
    partitioner = NLevelPartitioner(
        refiner=PropPartitioner(PropConfig(max_passes=NLEVEL_PASSES))
    )
    return balance, [
        ("default", lambda: partitioner.partition(graph, balance=balance))
    ]


def _stat(stats: Dict[str, Any], key: str) -> float:
    """A phase stat, counting the n-level final refine's copy too."""
    return float(stats.get(key, 0.0)) + float(stats.get(f"final_{key}", 0.0))


#: Per-layer metrics read without tracing: from a result's always-on
#: ``stats``, the service's job records and ``/v1/stats``.  A workload
#: that does not reach a layer reports 0 for it.
UNTRACED_LAYERS = (
    "core.move_loop_s", "core.tentative_moves", "core.moves_per_s",
    "core.gain_init_s", "core.refine_s", "kernels.csr_build_s",
    "multilevel.coarsen_s", "multilevel.contractions",
    "multilevel.coarsen_pins_per_s", "multilevel.uncoarsen_s",
    "multilevel.local_refine_s", "multilevel.stage_refine_s",
    "multilevel.rebalance_moves", "hypergraph.generate_s",
    "engine.units", "engine.cache_hits", "engine.cache_hit_ratio",
    "service.queue_wait_p50_s", "service.exec_p50_s",
    "guard.admitted", "guard.shed",
)


def layer_stats(graph, stats: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics read from a result's always-on ``stats``."""
    moves = _stat(stats, "tentative_moves")
    loop = _stat(stats, "move_loop_seconds")
    coarsen = float(stats.get("coarsen_seconds", 0.0))
    return {
        "core.move_loop_s": loop,
        "core.tentative_moves": moves,
        "core.moves_per_s": moves / loop if loop else 0.0,
        "core.gain_init_s": _stat(stats, "gain_init_seconds"),
        "core.refine_s": _stat(stats, "refine_seconds"),
        "kernels.csr_build_s": _stat(stats, "csr_build_seconds"),
        "multilevel.coarsen_s": coarsen,
        "multilevel.contractions": float(stats.get("contractions", 0.0)),
        "multilevel.coarsen_pins_per_s":
            graph.num_pins / coarsen if coarsen else 0.0,
        "multilevel.uncoarsen_s": float(stats.get("uncoarsen_seconds", 0.0)),
        "multilevel.local_refine_s":
            float(stats.get("local_refine_seconds", 0.0)),
        "multilevel.stage_refine_s":
            float(stats.get("stage_refine_seconds", 0.0)),
        "multilevel.rebalance_moves":
            float(stats.get("rebalance_moves", 0.0)),
    }


def run_partitioning(
    name: str, seed: int, seconds: float, tracer, single: bool
) -> Dict[str, Any]:
    make_graph, make_runs = {
        "prop-industry2": (prop_graph, prop_runs),
        "nlevel-large30k": (nlevel_graph, nlevel_runs),
    }[name]
    setup = {"import_s": time_imports()}
    setup["generate_s"] = _median_timed(make_graph)
    graph = make_graph()
    balance, runs = make_runs(graph, seed)
    if single:
        runs = runs[:1]
    if tracer is not None:
        install_layers(tracer)

    failures: List[str] = []
    attempted = 0
    walls: List[float] = []
    op_walls: List[list] = []
    cuts: Dict[str, float] = {}
    stats: List[Dict[str, float]] = []
    window = [time.perf_counter(), None]
    # Every run once, so the cut is the best over the same runs however
    # fast the machine is; then the runs again in turn while they fit.
    for i in itertools.count():
        if i >= len(runs) and (single or not another_fits(
                time.perf_counter() - window[0], walls, seconds)):
            break
        run_seed, call = runs[i % len(runs)]
        attempted += 1
        if tracer is not None:
            tracer.set_run(f"run-{run_seed}")
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - counted as failed
            failures.append(f"seed {run_seed}: {type(exc).__name__}: {exc}")
            continue
        walls.append(time.perf_counter() - t0)
        op_walls.append([str(run_seed), walls[-1]])
        problems = recount(graph, balance, result)
        key = str(run_seed)
        if key in cuts and cuts[key] != result.cut:
            problems.append(
                f"cut {result.cut} differs from {cuts[key]} on repeat"
            )
        cuts.setdefault(key, result.cut)
        failures.extend(f"seed {run_seed}: {p}" for p in problems)
        stats.append(layer_stats(graph, result.stats))
    window[1] = time.perf_counter()
    if tracer is not None:
        tracer.restore()
    layers = dict.fromkeys(UNTRACED_LAYERS, 0.0)
    if stats:
        layers.update(
            (k, statistics.median(s[k] for s in stats)) for k in stats[0]
        )
    layers["hypergraph.generate_s"] = setup["generate_s"]
    return {
        "setup": setup,
        "setup_s": sum(setup.values()),
        "attempted": attempted,
        "failures": failures,
        "cut": min(cuts.values()) if cuts else None,
        "cuts": cuts,
        "op_walls": op_walls,
        "wall_s": statistics.median(walls) if walls else None,
        "ops_per_s": len(walls) / sum(walls) if walls else None,
        "latencies": walls,
        "window": window,
        "layers": layers,
    }


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------
def service_jobs(seed: int) -> List[Dict[str, Any]]:
    """The job list of one repetition, in the order the one closed-loop
    client sends it: the tiny jobs, then the Table-1 FM and spectral
    jobs.

    One client and one job worker, not ``nproc`` of each.  On 2 vCPUs a
    second client and worker bought no throughput (the jobs hold the
    interpreter lock; a repetition took 8.0-9.2 s with two, 7.4-8.5 s
    with one, interleaved), while a tiny job then waited on the lock and
    on the other worker's journal fsyncs for a share of its latency that
    depends on scheduling luck: the median latency of a repetition
    ranged 8.1-12.8 ms with two and 5.8-7.7 ms with one, and ten runs
    with two spread it by 0.43 of its median in a noisy hour.  Serial,
    the median tracks the per-job service overhead and the p90 the
    partitioners.

    The heavy jobs are the same for every seed: they carry no seed, so
    the service derives one from their content.  FM's pass count varies
    with its seed (3 runs on t3 took 8+6+6 passes for one seed and
    20+7+14 for another), which would make the work of a repetition
    depend on the seed.  The workload seed picks the tiny instances and
    their seeds, and which specs are resubmitted.  A resubmission repeats
    an earlier spec of its own part of the list, so that job has finished
    and its units are in the result cache.
    """
    rng = random.Random(seed)
    tiny = [{
        "generate": {"kind": "many_small", "size_range": [8, 24],
                     "seed": seed, "index": i},
        "algorithm": "fm", "runs": 1, "seed": rng.randrange(2**31),
        "tenant": "tiny",
    } for i in range(SERVICE_TINY)]
    heavy: List[Dict[str, Any]] = []
    for name in SERVICE_FM_CIRCUITS:
        heavy.extend({
            "generate": {"kind": "benchmark", "name": name},
            "algorithm": "fm", "runs": SERVICE_FM_RUNS, "tenant": "table1",
            "tag": f"fm-{copy}",
        } for copy in range(SERVICE_FM_COPIES))
    for name in SERVICE_SPECTRAL_CIRCUITS:
        heavy.extend({
            "generate": {"kind": "benchmark", "name": name},
            "algorithm": algorithm, "runs": 1, "tenant": "spectral",
        } for algorithm in ("eig1", "melo"))
    out: List[Dict[str, Any]] = []
    for fresh in (tiny, heavy):
        jobs: List[Dict[str, Any]] = []
        for i, spec in enumerate(fresh):
            jobs.append(spec)
            if i % RESUBMIT_EVERY == RESUBMIT_EVERY - 1:
                jobs.append(dict(rng.choice(jobs)))
        out.extend(jobs)
    return out


def service_config(cache_dir: str):
    from repro.service.app import ServiceConfig

    return ServiceConfig(host="127.0.0.1", port=0, cache_dir=cache_dir,
                         job_workers=1, engine_workers=0)


async def _start_stop(cache_dir: str) -> None:
    from repro.service import PartitionService, ServiceServer

    server = ServiceServer(PartitionService(service_config(cache_dir)))
    await server.start()
    await server.stop()


async def _client_loop(client, jobs: List[Dict[str, Any]]) -> List[dict]:
    from repro.service import ServiceError
    from repro.service.jobs import TERMINAL_STATES

    out = []
    for spec in jobs:
        rec: Dict[str, Any] = {"spec": spec}
        out.append(rec)
        submitted = time.time()
        try:
            job_id = (await client.submit(spec))["job_id"]
            state = None
            async for event, payload in client.events(job_id):
                if event == "state" and payload.get("state") in TERMINAL_STATES:
                    state = payload["state"]
            status = await client.job(job_id)
            result = await client.result(job_id)
        except ServiceError as exc:
            rec["error"] = f"HTTP {exc.status}"
            continue
        except Exception as exc:  # noqa: BLE001 - counted as failed
            rec["error"] = f"{type(exc).__name__}: {exc}"
            continue
        rec["state"] = state or status["state"]
        if rec["state"] != "done":
            rec["error"] = f"job ended {rec['state']}: {status.get('error')}"
            continue
        rec["latency"] = status["finished_at"] - submitted
        rec["queue_wait"] = status["started_at"] - status["submitted_at"]
        rec["exec"] = status["finished_at"] - status["started_at"]
        rec["rows"] = result["results"]
        rec["best_cut"] = result.get("best_cut")
    return out


async def _service_rep(jobs: List[Dict[str, Any]], cache_dir: str):
    from repro.service import PartitionService, ServiceClient, ServiceServer

    server = ServiceServer(PartitionService(service_config(cache_dir)))
    await server.start()
    try:
        client = ServiceClient("127.0.0.1", server.bound_port, timeout=120.0)
        t0 = time.perf_counter()
        records = await _client_loop(client, jobs)
        t1 = time.perf_counter()
        stats = await client.stats()
    finally:
        await server.stop()
    return records, (t0, t1), stats


def reference_check(records: List[dict]) -> List[str]:
    """Re-run every distinct job in-process through the public
    partitioners and compare each unit's cut with the service's."""
    from repro import (BalanceConstraint, Eig1Partitioner, FMPartitioner,
                       MeloPartitioner)
    from repro.hypergraph import make_benchmark, small_instance

    makers = {"fm": lambda: FMPartitioner("bucket"),
              "eig1": Eig1Partitioner, "melo": MeloPartitioner}
    problems: List[str] = []
    seen = set()
    for rec in records:
        if "rows" not in rec:
            continue
        spec = rec["spec"]
        key = json.dumps(spec, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        gen = spec["generate"]
        if gen["kind"] == "many_small":
            graph = small_instance(tuple(gen["size_range"]), gen["seed"],
                                   gen["index"])
        else:
            graph = make_benchmark(gen["name"])
        balance = BalanceConstraint.fifty_fifty(graph)
        partitioner = makers[spec["algorithm"]]()
        if len(rec["rows"]) != spec["runs"]:
            problems.append(f"{key}: {len(rec['rows'])} rows for "
                            f"{spec['runs']} runs")
        for row in rec["rows"]:
            result = partitioner.partition(graph, balance=balance,
                                           seed=row["seed"])
            problems.extend(f"{key}: {p}"
                            for p in recount(graph, balance, result))
            if row.get("cut") != result.cut:
                problems.append(f"{key} seed {row['seed']}: service cut "
                                f"{row.get('cut')} != reference {result.cut}")
    return problems


def run_service(
    seed: int, seconds: float, tracer, single: bool, tmp: Path
) -> Dict[str, Any]:
    counter = iter(range(10**6))

    def fresh_dir() -> str:
        path = tmp / f"cache-{next(counter)}"
        path.mkdir(parents=True)
        return str(path)

    setup = {"import_s": time_imports()}
    setup["generate_s"] = _median_timed(lambda: service_jobs(seed))
    setup["service_start_s"] = _median_timed(
        lambda: asyncio.run(_start_stop(fresh_dir()))
    )
    jobs = service_jobs(seed)
    if tracer is not None:
        install_layers(tracer)

    records: List[dict] = []
    walls: List[float] = []
    reps: List[List[dict]] = []
    window: List[float] = []
    stats: Dict[str, Any] = {}
    while True:
        rep, (t0, t1), stats = asyncio.run(
            _service_rep(jobs, fresh_dir())
        )
        window = window[:1] + [t1] if window else [t0, t1]
        walls.append(t1 - t0)
        reps.append(rep)
        records.extend(rep)
        elapsed = time.perf_counter() - window[0]
        if single or elapsed >= SERVICE_MAX_FACTOR * seconds or (
            not another_fits(elapsed, walls, seconds)
            and supports(sum(1 for r in records if "latency" in r), 90.0)
        ):
            break
    if tracer is not None:
        tracer.restore()  # the checks below must not be traced

    failures = [f"{json.dumps(r['spec'], sort_keys=True)}: {r['error']}"
                for r in records if "error" in r]
    # Every repetition runs the same jobs on an empty cache, and a
    # resubmitted spec must get the cuts of its first submission.
    by_spec: Dict[str, Any] = {}
    for r in records:
        if "rows" in r:
            key = json.dumps(r["spec"], sort_keys=True)
            cuts = [row.get("cut") for row in r["rows"]]
            if by_spec.setdefault(key, cuts) != cuts:
                failures.append(f"{key}: cuts {cuts} != {by_spec[key]}")
    failures.extend(reference_check(reps[0]))

    done = [r for r in records if "rows" in r]
    first = [r for r in reps[0] if "rows" in r]
    # A resubmission repeats its spec's cut (checked above); count each
    # spec once so the cut does not depend on which specs were repeated.
    distinct = {json.dumps(r["spec"], sort_keys=True): r["best_cut"]
                for r in first}
    rows = [row for r in first for row in r["rows"]]
    hits = sum(1 for row in rows if row.get("cached"))
    shed = sum(stats.get("guard", {}).get("admission", {})
               .get("shed", {}).values())
    layers = dict.fromkeys(UNTRACED_LAYERS, 0.0)
    layers.update({
        "hypergraph.generate_s": setup["generate_s"],
        "engine.units": float(len(rows)),
        "engine.cache_hits": float(hits),
        "engine.cache_hit_ratio": hits / len(rows) if rows else 0.0,
        "service.queue_wait_p50_s":
            statistics.median(r["queue_wait"] for r in done) if done else 0.0,
        "service.exec_p50_s":
            statistics.median(r["exec"] for r in done) if done else 0.0,
        "guard.admitted": float(sum(1 for r in reps[0]
                                    if r.get("error", "")[:4] != "HTTP")),
        "guard.shed": float(shed),
    })
    latencies = [r["latency"] for r in done]
    return {
        "setup": setup,
        "setup_s": sum(setup.values()),
        "attempted": len(records),
        "failures": failures,
        "cut": sum(distinct.values()) if distinct else None,
        "cuts": {str(i): r.get("best_cut") for i, r in enumerate(reps[0])},
        "op_walls": [["rep", w] for w in walls],
        "wall_s": statistics.median(walls),
        "ops_per_s": len(done) / sum(walls),
        "latencies": latencies,
        "window": window,
        "layers": layers,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
WORKLOADS = ("prop-industry2", "nlevel-large30k", "service-mix")


def fingerprint() -> Dict[str, Any]:
    import numpy
    import scipy

    import repro

    blas: Optional[str] = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "repro": repro.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="write the trace's spans here")
    parser.add_argument("--single", type=int, choices=(0, 1), default=0,
                        help="one repetition of the first run only: the "
                             "work a traced run does")
    args = parser.parse_args(argv)

    # Set-up (imports, generation, service start) runs before the
    # wrappers go in, just ahead of the timed section.
    tracer = Tracer() if args.traced else None
    single = bool(args.single or args.traced)
    try:
        if args.workload == "service-mix":
            doc = run_service(args.seed, args.seconds, tracer, single,
                              Path.cwd())
        else:
            doc = run_partitioning(args.workload, args.seed, args.seconds, tracer,
                             single)
    finally:
        if tracer is not None:
            tracer.restore()
    doc["peak_rss_mb"] = _peak_rss_mb()
    doc["fingerprint"] = fingerprint()
    if tracer is not None:
        lo, hi = doc["window"]
        doc["traced_layers"] = layer_metrics(tracer, lo, hi)
        doc["absent"] = tracer.absent
        doc["hot"] = {k: list(v) for k, v in tracer.hot_totals().items()}
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.span_records()))
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
