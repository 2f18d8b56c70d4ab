"""The PROP pass engine — paper Fig. 2, Secs. 3.2–3.4.

One :func:`run_prop` call executes the full algorithm:

1. start from a given (random or clustered) balanced bisection;
2. per pass: bootstrap node probabilities (``pinit`` or deterministic FM
   gains), refine gains ↔ probabilities for ``refinement_iterations``
   cycles, then move-and-lock best-gain nodes under the balance constraint,
   updating neighbors and the top-ranked nodes after every move
   (Sec. 3.4), journaling immediate gains;
3. keep the maximum-prefix-gain prefix of the pass, roll back the rest;
4. repeat until a pass yields ``Gmax <= 0``.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..audit import AuditConfig, PassAuditor, resolve_audit
from ..datastructures import HeapGainContainer, PassJournal
from ..hypergraph import Hypergraph
from ..kernels import make_gain_engine, resolve_kernel
from ..partition import BalanceConstraint, BipartitionResult, Partition
from ..telemetry import PassCounters, Recorder, resolve_recorder
from .config import PropConfig
from .gains import ProbabilisticGainEngine
from .probability import make_probability_fn

#: Optional per-move observer: (pass_index, node, selection_gain,
#: immediate_gain).  ``selection_gain`` is the probabilistic gain the node
#: was chosen by; ``immediate_gain`` is the realized cut delta.  Kept for
#: compatibility (the differential harness uses it); new code should pass
#: a :class:`repro.telemetry.Recorder`, which sees the same per-move
#: stream plus spans and counters.
MoveObserver = Callable[[int, int, float, float], None]


def run_prop(
    graph: Hypergraph,
    initial_sides: Sequence[int],
    balance: BalanceConstraint,
    config: Optional[PropConfig] = None,
    seed: Optional[int] = None,
    observer: Optional[MoveObserver] = None,
    audit: Optional[AuditConfig] = None,
    recorder: Optional[Recorder] = None,
) -> BipartitionResult:
    """Run PROP from an explicit initial partition.

    ``seed`` is recorded in the result for bookkeeping only — PROP itself
    is deterministic given the initial partition.

    ``audit`` attaches a read-only :class:`~repro.audit.PassAuditor` that
    cross-checks cut/count/lock/gain/rollback bookkeeping against brute
    force after every (Nth) move; ``None`` defers to the ``REPRO_AUDIT``
    environment variable.  Audited runs make identical moves, and the
    time spent inside audit hooks is excluded from ``runtime_seconds``
    (reported separately as the ``audit_seconds`` stat).

    ``recorder`` attaches a :class:`repro.telemetry.Recorder` receiving
    spans, per-move events and counters; recording never changes moves
    or cuts.  Per-phase timings land in ``stats`` whether or not a
    recorder is attached.
    """
    if config is None:
        config = PropConfig()
    start = time.perf_counter()

    partition = Partition(graph, initial_sides)
    # Backend selection (repro.kernels): the sequential backends are
    # bit-identical, so that choice affects runtime only — never moves
    # or cuts.  The subround kernel replaces the whole pass loop and is
    # only ever selected explicitly.
    kernel = resolve_kernel(config.kernel, num_pins=graph.num_pins)
    if kernel == "subround":
        return _run_prop_subround(
            graph, partition, balance, config, seed, observer, audit,
            recorder, start,
        )
    engine = make_gain_engine(partition, kernel)
    prob_fn = make_probability_fn(config)
    audit = resolve_audit(audit)
    auditor = (
        PassAuditor(graph, balance, audit, algorithm="PROP", seed=seed)
        if audit is not None
        else None
    )
    rec = resolve_recorder(recorder)
    phase = {
        "bootstrap_seconds": 0.0,
        "refine_seconds": 0.0,
        "gain_init_seconds": 0.0,
        "move_loop_seconds": 0.0,
        "rollback_seconds": 0.0,
    }
    if rec is not None:
        rec.run_start("PROP", seed, graph.num_nodes, graph.num_nets)

    passes = 0
    total_moves = 0
    pass_cuts = []
    while passes < config.max_passes:
        pass_start = time.perf_counter()
        if rec is not None:
            rec.pass_start(passes)
        journal = _run_pass(
            partition, engine, balance, config, prob_fn,
            observer=observer, pass_index=passes, auditor=auditor,
            rec=rec, phase=phase,
        )
        total_moves += len(journal)
        p, gmax = journal.best_prefix()
        # Undo the tentative moves beyond the best prefix (last first).
        rollback_start = time.perf_counter()
        partition.unlock_all()
        for record in reversed(journal.rolled_back_moves()):
            partition.move(record.node)
        rollback_seconds = time.perf_counter() - rollback_start
        phase["rollback_seconds"] += rollback_seconds
        pass_cuts.append(partition.cut_cost)
        if auditor is not None:
            auditor.after_rollback(partition, journal)
        if rec is not None:
            rec.span(passes, "rollback", rollback_seconds)
            rec.pass_end(
                passes, partition.cut_cost, len(journal), p, gmax,
                time.perf_counter() - pass_start,
            )
        passes += 1
        if gmax <= config.min_pass_gain or p == 0:
            break

    elapsed = time.perf_counter() - start
    stats = {"tentative_moves": float(total_moves)}
    stats.update(phase)
    stats["kernel_numpy"] = 1.0 if engine.kernel_name == "numpy" else 0.0
    stats["underflow_recomputes"] = float(engine.underflow_recomputes)
    csr = getattr(engine, "csr", None)
    if csr is not None:
        stats["csr_build_seconds"] = csr.build_seconds
        stats["product_cache_hits"] = float(engine.product_cache_hits)
        stats["product_cache_misses"] = float(engine.product_cache_misses)
    if auditor is not None:
        stats.update(auditor.summary())
        elapsed -= auditor.seconds
    result = BipartitionResult(
        sides=partition.sides,
        cut=partition.cut_cost,
        algorithm="PROP",
        seed=seed,
        passes=passes,
        runtime_seconds=elapsed,
        stats=stats,
        pass_cuts=pass_cuts,
    )
    if rec is not None:
        rec.run_end("PROP", result.cut, passes, elapsed, stats)
    return result


def _run_prop_subround(
    graph: Hypergraph,
    partition: Partition,
    balance: BalanceConstraint,
    config: PropConfig,
    seed: Optional[int],
    observer: Optional[MoveObserver],
    audit: Optional[AuditConfig],
    recorder,
    start: float,
) -> BipartitionResult:
    """The ``kernel="subround"`` run loop (see :mod:`repro.kernels.subround`).

    Same pass/rollback/stop protocol as the sequential loop; only the
    inside of a pass differs (batched sub-rounds instead of one move at
    a time).  The engine owns a shared-memory worker pool when
    ``config.subround_workers >= 2``; ``finally`` guarantees its
    segments are unlinked even when a pass raises.
    """
    from ..kernels.subround import SubroundPropEngine

    engine = SubroundPropEngine(partition, config, seed)
    audit = resolve_audit(audit)
    auditor = (
        PassAuditor(graph, balance, audit, algorithm="PROP", seed=seed)
        if audit is not None
        else None
    )
    rec = resolve_recorder(recorder)
    phase = {
        "bootstrap_seconds": 0.0,
        "refine_seconds": 0.0,
        "gain_init_seconds": 0.0,
        "move_loop_seconds": 0.0,
        "rollback_seconds": 0.0,
    }
    if rec is not None:
        rec.run_start("PROP", seed, graph.num_nodes, graph.num_nets)

    passes = 0
    total_moves = 0
    pass_cuts = []
    try:
        while passes < config.max_passes:
            pass_start = time.perf_counter()
            if rec is not None:
                rec.pass_start(passes)
            counters = PassCounters() if rec is not None else None
            journal = engine.run_pass(
                balance, passes, observer=observer, auditor=auditor,
                rec=rec, phase=phase, counters=counters,
            )
            total_moves += len(journal)
            p, gmax = journal.best_prefix()
            rollback_start = time.perf_counter()
            partition.unlock_all()
            for record in reversed(journal.rolled_back_moves()):
                partition.move(record.node)
            rollback_seconds = time.perf_counter() - rollback_start
            phase["rollback_seconds"] += rollback_seconds
            pass_cuts.append(partition.cut_cost)
            if auditor is not None:
                auditor.after_rollback(partition, journal)
            if rec is not None:
                rec.span(passes, "rollback", rollback_seconds)
                rec.pass_end(
                    passes, partition.cut_cost, len(journal), p, gmax,
                    time.perf_counter() - pass_start,
                )
            passes += 1
            if gmax <= config.min_pass_gain or p == 0:
                break
    finally:
        engine.close()

    elapsed = time.perf_counter() - start
    stats = {"tentative_moves": float(total_moves)}
    stats.update(phase)
    stats["kernel_numpy"] = 0.0
    stats["kernel_subround"] = 1.0
    stats["underflow_recomputes"] = float(engine.underflow_recomputes)
    stats["csr_build_seconds"] = engine.csr.build_seconds
    stats.update(engine.run_stats())
    if auditor is not None:
        stats.update(auditor.summary())
        elapsed -= auditor.seconds
    result = BipartitionResult(
        sides=partition.sides,
        cut=partition.cut_cost,
        algorithm="PROP",
        seed=seed,
        passes=passes,
        runtime_seconds=elapsed,
        stats=stats,
        pass_cuts=pass_cuts,
    )
    if rec is not None:
        rec.run_end("PROP", result.cut, passes, elapsed, stats)
    return result


def _bootstrap_probabilities(
    engine: ProbabilisticGainEngine,
    config: PropConfig,
    prob_fn,
) -> None:
    """Fig. 2 step 3: the initial probability estimate.

    Either every node starts at ``pinit`` ("blind" method), or
    probabilities are derived from the deterministic FM gains (Eqn. 1).
    """
    if config.init_method == "pinit":
        engine.fill(config.pinit)
        return
    partition = engine.partition
    for v in range(partition.graph.num_nodes):
        if not partition.is_locked(v):
            engine.set_probability(v, prob_fn(partition.immediate_gain(v)))


def _refine(
    engine: ProbabilisticGainEngine,
    config: PropConfig,
    prob_fn,
) -> List[float]:
    """Fig. 2 step 4: iterate gain ↔ probability refinement.

    Returns the final gains (after the last refinement cycle, gains are
    recomputed once more so they reflect the final probabilities).
    """
    partition = engine.partition
    gains = engine.all_gains()
    for _ in range(config.refinement_iterations):
        for v, g in enumerate(gains):
            if not partition.is_locked(v):
                engine.set_probability(v, prob_fn(g))
        gains = engine.all_gains()
    return gains


def _pick_move(
    containers: Tuple[HeapGainContainer, HeapGainContainer],
    partition: Partition,
    balance: BalanceConstraint,
) -> Optional[int]:
    """Fig. 2 step 6: best-gain node whose move keeps balance.

    The overall best-gain node is preferred; if moving it would violate
    balance, the best node of the *other* side is chosen instead (the FM
    rule the paper inherits).  Returns None when no move is possible.
    """
    candidates = []
    for side in (0, 1):
        if containers[side]:
            node, gain = containers[side].peek_best()
            candidates.append((gain, side, node))
    candidates.sort(reverse=True)
    weights = partition.side_weights
    for _, side, node in candidates:
        if balance.move_allowed(weights, side, partition.graph.node_weight(node)):
            return node
    return None


def _run_pass(
    partition: Partition,
    engine: ProbabilisticGainEngine,
    balance: BalanceConstraint,
    config: PropConfig,
    prob_fn,
    observer: Optional[MoveObserver] = None,
    pass_index: int = 0,
    auditor: Optional[PassAuditor] = None,
    rec: Optional[Recorder] = None,
    phase: Optional[dict] = None,
) -> PassJournal:
    """One tentative-move pass (Fig. 2 steps 3–8); locks are left set.

    ``rec`` must already be resolved (enabled or ``None``); ``phase`` is
    the run-level phase-seconds accumulator, updated whether or not a
    recorder is attached.
    """
    graph = partition.graph
    if auditor is not None:
        auditor.start_pass(partition)
    counters = PassCounters() if rec is not None else None
    writes_before = engine.probability_writes

    t0 = time.perf_counter()
    _bootstrap_probabilities(engine, config, prob_fn)
    t1 = time.perf_counter()
    gains = _refine(engine, config, prob_fn)
    t2 = time.perf_counter()

    cached = config.update_strategy == "cached"
    contribs = engine.new_contribution_state() if cached else None

    containers = (HeapGainContainer(), HeapGainContainer())
    for v in range(graph.num_nodes):
        if not partition.is_locked(v):
            containers[partition.side(v)].insert(v, gains[v])
    t3 = time.perf_counter()

    journal = PassJournal()
    while True:
        node = _pick_move(containers, partition, balance)
        if node is None:
            break
        from_side = partition.side(node)
        selection_gain = containers[from_side].remove(node)
        immediate = partition.move_and_lock(node)
        engine.on_lock(node)
        if rec is not None:
            rec.move(
                pass_index, len(journal), node, from_side,
                selection_gain, immediate,
            )
            counters.moves += 1
        journal.record(node, from_side, immediate)
        if observer is not None:
            observer(pass_index, node, selection_gain, immediate)
        if auditor is not None and auditor.after_move(
            partition, node, immediate
        ):
            auditor.check_containers(partition, containers)
            auditor.check_prop_gains(partition, engine)
            auditor.check_prop_kernel(partition, engine)

        if cached:
            _update_neighbors_cached(
                node, partition, engine, containers, config, prob_fn,
                contribs, counters,
            )
            _update_top_ranked_cached(
                partition, engine, containers, config, prob_fn,
                contribs, counters,
            )
        else:
            _update_neighbors(
                node, partition, engine, containers, config, prob_fn,
                counters,
            )
            _update_top_ranked(
                partition, engine, containers, config, prob_fn, counters
            )
    t4 = time.perf_counter()
    if phase is not None:
        phase["bootstrap_seconds"] += t1 - t0
        phase["refine_seconds"] += t2 - t1
        phase["gain_init_seconds"] += t3 - t2
        phase["move_loop_seconds"] += t4 - t3
    if rec is not None:
        rec.span(pass_index, "bootstrap", t1 - t0)
        rec.span(pass_index, "refine", t2 - t1)
        rec.span(pass_index, "gain_init", t3 - t2)
        rec.span(pass_index, "move_loop", t4 - t3)
        counters.probability_refreshes = (
            engine.probability_writes - writes_before
        )
        rec.counters(pass_index, counters.as_dict())
    return journal


def _update_neighbors(
    moved: int,
    partition: Partition,
    engine: ProbabilisticGainEngine,
    containers: Tuple[HeapGainContainer, HeapGainContainer],
    config: PropConfig,
    prob_fn,
    counters: Optional[PassCounters] = None,
) -> None:
    """Sec. 3.4: refresh gain (and probability) of each free neighbor."""
    graph = partition.graph
    nets = graph.nets
    locked = partition.locked_view()
    sides = partition.sides_view()
    node_gain = engine.node_gain
    set_probability = engine.set_probability
    update_probabilities = config.update_neighbor_probabilities
    seen = {moved}
    for net_id in graph.node_nets(moved):
        for nbr in nets[net_id]:
            if nbr in seen:
                continue
            seen.add(nbr)
            if locked[nbr]:
                continue
            gain = node_gain(nbr)
            if update_probabilities:
                set_probability(nbr, prob_fn(gain))
            if counters is not None:
                counters.neighbor_updates += 1
            container = containers[sides[nbr]]
            if container.gain_of(nbr) != gain:
                container.update(nbr, gain)
                if counters is not None:
                    counters.container_updates += 1


def _update_neighbors_cached(
    moved: int,
    partition: Partition,
    engine: ProbabilisticGainEngine,
    containers: Tuple[HeapGainContainer, HeapGainContainer],
    config: PropConfig,
    prob_fn,
    contribs,
    counters: Optional[PassCounters] = None,
) -> None:
    """Sec. 3.4, Eqn. 5/6 flavour: only the contributions of the moved
    node's nets are recomputed; each neighbor's total gain is adjusted by
    the contribution delta.  Staleness from second-order probability
    changes is repaired by the top-k step, exactly as in the recompute
    strategy.

    The contribution cache ``contribs`` is opaque to this function: the
    engine created it (:meth:`~ProbabilisticGainEngine.new_contribution_state`)
    and is the only code that reads or writes it — the numpy backend uses
    a flat array plus incremental per-net products where the python
    backend keeps per-node dicts.
    """
    for nbr, delta in engine.contribution_move_deltas(moved, contribs, counters):
        if counters is not None:
            counters.neighbor_updates += 1
        container = containers[partition.side(nbr)]
        gain = container.gain_of(nbr) + delta
        if config.update_neighbor_probabilities:
            engine.set_probability(nbr, prob_fn(gain))
        if delta:
            container.update(nbr, gain)
            if counters is not None:
                counters.container_updates += 1


def _update_top_ranked_cached(
    partition: Partition,
    engine: ProbabilisticGainEngine,
    containers: Tuple[HeapGainContainer, HeapGainContainer],
    config: PropConfig,
    prob_fn,
    contribs,
    counters: Optional[PassCounters] = None,
) -> None:
    """Top-k refresh for the cached strategy: full recompute of the node's
    contributions (keeping its cache coherent) plus probability update."""
    k = config.top_update_count
    if k <= 0:
        return
    for side in (0, 1):
        for node, stale in containers[side].top(k):
            gain = engine.refresh_contributions(node, contribs, counters)
            if counters is not None:
                counters.topk_updates += 1
            if config.update_neighbor_probabilities:
                engine.set_probability(node, prob_fn(gain))
            if gain != stale:
                containers[side].update(node, gain)
                if counters is not None:
                    counters.container_updates += 1


def _update_top_ranked(
    partition: Partition,
    engine: ProbabilisticGainEngine,
    containers: Tuple[HeapGainContainer, HeapGainContainer],
    config: PropConfig,
    prob_fn,
    counters: Optional[PassCounters] = None,
) -> None:
    """Sec. 3.4: re-evaluate the top-ranked nodes of each side.

    Needed because a top node may be a neighbor-of-a-neighbor of the moved
    node, whose probability just changed; the paper argues refreshing the
    top few contenders is all that is necessary.
    """
    k = config.top_update_count
    if k <= 0:
        return
    node_gain = engine.node_gain
    set_probability = engine.set_probability
    update_probabilities = config.update_neighbor_probabilities
    for side in (0, 1):
        container = containers[side]
        for node, stale in container.top(k):
            if counters is not None:
                counters.topk_updates += 1
            gain = node_gain(node)
            if gain == stale:
                continue  # unchanged: skip the O(log n) reinsertion
            if update_probabilities:
                set_probability(node, prob_fn(gain))
            container.update(node, gain)
            if counters is not None:
                counters.container_updates += 1
