"""Fidducia–Mattheyses iterative-improvement bisection.

The classic linear-time netlist partitioner [Fidducia & Mattheyses 1982],
implemented in both variants the paper times in Table 4:

* **FM-bucket** — the original O(1) gain-bucket data structure; requires
  unit net costs (integer gains in ±p_max).
* **FM-tree** — the same algorithm with an AVL-tree gain container; works
  for arbitrary net costs (the structure FM must fall back to for
  timing-driven weighting, paper Sec. 4) at Θ(n d log n) per pass.

Node gains follow Eqn. (1): ``gain(u) = Σ c(E(u)) − Σ c(I(u))`` — the
immediate cut decrease if ``u`` moved now.  After each move the standard
FM delta rules touch only pins of *critical* nets, keeping updates O(pins).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, Tuple, Union

from ..audit import AuditConfig, PassAuditor, resolve_audit
from ..datastructures import (
    BucketGainContainer,
    PassJournal,
    TreeGainContainer,
)
from ..hypergraph import Hypergraph
from ..kernels import resolve_kernel
from ..partition import (
    BalanceConstraint,
    BipartitionResult,
    Partition,
    random_balanced_sides,
)
from ..telemetry import PassCounters, Recorder, resolve_recorder

Container = Union[BucketGainContainer, TreeGainContainer]

#: Optional per-move observer mirroring :data:`repro.core.engine.MoveObserver`:
#: (pass_index, node, selection_gain, immediate_gain).  Used by the
#: differential harness in :mod:`repro.audit.differential`.
MoveObserver = Callable[[int, int, float, float], None]

#: Safety cap; FM empirically converges in 2–4 passes (paper Sec. 2).
DEFAULT_MAX_PASSES = 100


def _bucket_max_gain(graph: Hypergraph) -> int:
    """FM-bucket's gain bound ``p_max`` (at least 1); unit net costs only."""
    if not graph.has_unit_net_costs:
        raise ValueError(
            "FM-bucket requires unit net costs; use container='tree'"
        )
    max_gain = max(
        (graph.node_degree(v) for v in range(graph.num_nodes)), default=1
    )
    return max(max_gain, 1)


def _make_containers(
    graph: Hypergraph, container: str, max_gain: Optional[int] = None
) -> Tuple[Container, Container]:
    """One empty gain container per side.

    ``max_gain`` is the bucket bound from :func:`_bucket_max_gain`;
    :func:`run_fm` computes it once per run, callers that pass ``None``
    get it computed here.
    """
    if container == "bucket":
        if max_gain is None:
            max_gain = _bucket_max_gain(graph)
        return (
            BucketGainContainer(graph.num_nodes, max_gain),
            BucketGainContainer(graph.num_nodes, max_gain),
        )
    if container == "tree":
        return TreeGainContainer(), TreeGainContainer()
    raise ValueError(f"unknown container {container!r} (want 'bucket' or 'tree')")


def _pick_move(
    containers: Tuple[Container, Container],
    partition: Partition,
    balance: BalanceConstraint,
) -> Optional[int]:
    """Best-gain node whose move keeps balance (FM tie rule)."""
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


def _delta_costs(
    graph: Hypergraph, containers: Tuple[Container, Container]
) -> Sequence[float]:
    """Per-net delta for the FM rules: ``int`` for buckets, else the cost."""
    if isinstance(containers[0], BucketGainContainer):
        return [int(c) for c in graph.net_costs]
    return graph.net_costs


def _move_with_gain_updates(
    moved: int,
    from_side: int,
    partition: Partition,
    containers: Tuple[Container, Container],
    counters: Optional[PassCounters] = None,
    costs: Optional[Sequence[float]] = None,
) -> float:
    """Move ``moved``, lock it, and apply the FM critical-net delta rules.

    The "before" rules run against pin counts prior to the move, the
    "after" rules against counts following it; only pins of critical nets
    (nets with 0 or 1 pins on one side) are touched, which is what makes
    FM's updates O(pins of the moved node).  Returns the realized
    immediate gain of the move.

    Each gain delta is one ``adjust`` call on the container of the pin's
    side.  ``costs`` is :func:`_delta_costs` for these containers; a pass
    computes it once, callers that pass ``None`` get it computed here.
    A net of cost 0 changes no gain and is skipped.
    """
    graph = partition.graph
    if costs is None:
        costs = _delta_costs(graph, containers)
    to_side = 1 - from_side
    nets = graph.nets
    moved_nets = graph.node_nets(moved)
    sides = partition.sides_view()
    locked = partition.locked_view()
    from_adjust = containers[from_side].adjust
    to_adjust = containers[to_side].adjust
    updates = 0

    to_counts = partition.counts_view(to_side)
    for net_id in moved_nets:
        to_count = to_counts[net_id]
        if to_count > 1:
            continue
        cost = costs[net_id]
        if not cost:
            continue
        if to_count == 0:
            # Net was entirely on from_side: every other free pin gains the
            # option of keeping the net uncut by following the move.
            for v in nets[net_id]:
                if v != moved and not locked[v]:
                    from_adjust(v, cost)
                    updates += 1
        else:
            # The single to_side pin loses its "sole pin" bonus.
            for v in nets[net_id]:
                if sides[v] == to_side:
                    if not locked[v]:
                        to_adjust(v, -cost)
                        updates += 1
                    break

    realized = partition.move(moved)

    from_counts = partition.counts_view(from_side)
    for net_id in moved_nets:
        from_count = from_counts[net_id]
        if from_count > 1:
            continue
        cost = costs[net_id]
        if not cost:
            continue
        if from_count == 0:
            # Net now entirely on to_side: other pins would newly cut it.
            for v in nets[net_id]:
                if v != moved and not locked[v]:
                    to_adjust(v, -cost)
                    updates += 1
        else:
            # The single remaining from_side pin becomes the sole pin.
            for v in nets[net_id]:
                if sides[v] == from_side:
                    if not locked[v]:
                        from_adjust(v, cost)
                        updates += 1
                    break

    partition.lock(moved)
    if counters is not None:
        counters.neighbor_updates += updates
        counters.container_updates += updates
    return realized


def _run_pass(
    partition: Partition,
    balance: BalanceConstraint,
    containers: Tuple[Container, Container],
    observer: Optional[MoveObserver] = None,
    pass_index: int = 0,
    auditor: Optional[PassAuditor] = None,
    rec: Optional[Recorder] = None,
    phase: Optional[dict] = None,
    csr=None,
) -> PassJournal:
    """One tentative-move FM pass; locks are left set.

    ``rec`` must already be resolved (enabled or ``None``); ``phase`` is
    the run-level phase-seconds accumulator, updated whether or not a
    recorder is attached.  ``csr`` (a :class:`repro.kernels.CsrView`, or
    ``None`` for the scalar path) switches the Eqn.-1 gain bootstrap to
    the vectorized kernel — bit-identical values either way.
    """
    graph = partition.graph
    if auditor is not None:
        auditor.start_pass(partition)
    counters = PassCounters() if rec is not None else None

    t0 = time.perf_counter()
    bucket = isinstance(containers[0], BucketGainContainer)
    costs = _delta_costs(graph, containers)
    if csr is not None:
        from ..kernels.numpy_backend import fm_initial_gains

        for v, gain in enumerate(fm_initial_gains(csr, partition)):
            containers[partition.side(v)].insert(
                v, int(gain) if bucket else gain
            )
    else:
        for v in range(graph.num_nodes):
            gain = partition.immediate_gain(v)
            if bucket:
                gain = int(gain)
            containers[partition.side(v)].insert(v, gain)
    t1 = time.perf_counter()

    journal = PassJournal()
    while True:
        node = _pick_move(containers, partition, balance)
        if node is None:
            break
        from_side = partition.side(node)
        selection_gain = containers[from_side].remove(node)
        immediate = _move_with_gain_updates(
            node, from_side, partition, containers, counters, costs
        )
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
            auditor.check_fm_gains(partition, containers)
    t2 = time.perf_counter()
    if phase is not None:
        phase["gain_init_seconds"] += t1 - t0
        phase["move_loop_seconds"] += t2 - t1
    if rec is not None:
        rec.span(pass_index, "gain_init", t1 - t0)
        rec.span(pass_index, "move_loop", t2 - t1)
        rec.counters(pass_index, counters.as_dict())
    return journal


def run_fm(
    graph: Hypergraph,
    initial_sides: Sequence[int],
    balance: BalanceConstraint,
    container: str = "bucket",
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: Optional[int] = None,
    observer: Optional[MoveObserver] = None,
    audit: Optional[AuditConfig] = None,
    recorder: Optional[Recorder] = None,
    kernel: Optional[str] = None,
    subround_workers: int = 0,
) -> BipartitionResult:
    """Run FM from an explicit initial partition.

    ``audit`` attaches a read-only invariant auditor (see
    :mod:`repro.audit`); ``None`` defers to ``REPRO_AUDIT``.  FM's
    delta-rule updates keep every container gain exact, so the audited
    invariant is full equality with Eqn. (1) for every free node.  Time
    spent in audit hooks is excluded from ``runtime_seconds`` and
    reported as the ``audit_seconds`` stat.

    ``recorder`` attaches a :class:`repro.telemetry.Recorder` (spans,
    per-move events, counters); recording never changes moves or cuts.

    ``kernel`` selects the gain backend (see :mod:`repro.kernels`;
    ``None`` means ``"auto"``).  The python/numpy backends are
    bit-identical, so moves and cuts never depend on choosing between
    them; ``"subround"`` switches the pass loop to deterministic batched
    sub-rounds (:mod:`repro.kernels.subround`) — worker-count-invariant,
    but a different move interleaving than the sequential loop.
    ``subround_workers`` fans that kernel's sweeps over shared-memory
    workers (0/1 = inline); it never affects results.
    """
    algorithm = f"FM-{container}"
    start = time.perf_counter()
    partition = Partition(graph, initial_sides)
    kernel_name = resolve_kernel(kernel, num_pins=graph.num_pins)
    if kernel_name == "subround":
        return _run_fm_subround(
            graph, partition, balance, algorithm, container, max_passes,
            seed, observer, audit, recorder, subround_workers, start,
        )
    csr = None
    if kernel_name == "numpy":
        from ..kernels.csr import CsrView

        csr = CsrView(graph)
    audit = resolve_audit(audit)
    auditor = (
        PassAuditor(graph, balance, audit, algorithm=algorithm, seed=seed)
        if audit is not None
        else None
    )
    rec = resolve_recorder(recorder)
    phase = {
        "gain_init_seconds": 0.0,
        "move_loop_seconds": 0.0,
        "rollback_seconds": 0.0,
    }
    if rec is not None:
        rec.run_start(algorithm, seed, graph.num_nodes, graph.num_nets)
    max_gain = _bucket_max_gain(graph) if container == "bucket" else None
    passes = 0
    total_moves = 0
    pass_cuts = []
    while passes < max_passes:
        pass_start = time.perf_counter()
        if rec is not None:
            rec.pass_start(passes)
        containers = _make_containers(graph, container, max_gain)
        journal = _run_pass(
            partition, balance, containers,
            observer=observer, pass_index=passes, auditor=auditor,
            rec=rec, phase=phase, csr=csr,
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
        if gmax <= 1e-9 or p == 0:
            break
    elapsed = time.perf_counter() - start
    stats = {"tentative_moves": float(total_moves)}
    stats.update(phase)
    stats["kernel_numpy"] = 1.0 if csr is not None else 0.0
    if csr is not None:
        stats["csr_build_seconds"] = csr.build_seconds
    if auditor is not None:
        stats.update(auditor.summary())
        elapsed -= auditor.seconds
    result = BipartitionResult(
        sides=partition.sides,
        cut=partition.cut_cost,
        algorithm=algorithm,
        seed=seed,
        passes=passes,
        runtime_seconds=elapsed,
        stats=stats,
        pass_cuts=pass_cuts,
    )
    if rec is not None:
        rec.run_end(algorithm, result.cut, passes, elapsed, stats)
    return result


def _run_fm_subround(
    graph: Hypergraph,
    partition: Partition,
    balance: BalanceConstraint,
    algorithm: str,
    container: str,
    max_passes: int,
    seed: Optional[int],
    observer: Optional[MoveObserver],
    audit: Optional[AuditConfig],
    recorder: Optional[Recorder],
    subround_workers: int,
    start: float,
) -> BipartitionResult:
    """The ``kernel="subround"`` FM run loop.

    ``container`` is validated for API parity but unused — sub-rounds
    select moves by one vectorized sweep per round, not from a gain
    container.  ``finally`` guarantees the worker pool's shared segments
    are unlinked even when a pass raises.
    """
    if container not in ("bucket", "tree"):
        raise ValueError(
            f"unknown container {container!r} (want 'bucket' or 'tree')"
        )
    from ..kernels.subround import SubroundFMEngine

    engine = SubroundFMEngine(partition, seed, workers=subround_workers)
    audit = resolve_audit(audit)
    auditor = (
        PassAuditor(graph, balance, audit, algorithm=algorithm, seed=seed)
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
        rec.run_start(algorithm, seed, graph.num_nodes, graph.num_nets)
    passes = 0
    total_moves = 0
    pass_cuts = []
    try:
        while passes < max_passes:
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
            if gmax <= 1e-9 or p == 0:
                break
    finally:
        engine.close()
    elapsed = time.perf_counter() - start
    stats = {"tentative_moves": float(total_moves)}
    stats.update(phase)
    stats["kernel_numpy"] = 0.0
    stats["kernel_subround"] = 1.0
    stats["csr_build_seconds"] = engine.csr.build_seconds
    stats.update(engine.run_stats())
    if auditor is not None:
        stats.update(auditor.summary())
        elapsed -= auditor.seconds
    result = BipartitionResult(
        sides=partition.sides,
        cut=partition.cut_cost,
        algorithm=algorithm,
        seed=seed,
        passes=passes,
        runtime_seconds=elapsed,
        stats=stats,
        pass_cuts=pass_cuts,
    )
    if rec is not None:
        rec.run_end(algorithm, result.cut, passes, elapsed, stats)
    return result


class FMPartitioner:
    """Fidducia–Mattheyses partitioner (bucket or tree gain container)."""

    #: FM accepts a per-call ``audit`` config (see :mod:`repro.audit`).
    supports_audit = True

    #: FM accepts a per-call ``recorder`` (see :mod:`repro.telemetry`).
    supports_telemetry = True

    def __init__(
        self,
        container: str = "bucket",
        max_passes: int = DEFAULT_MAX_PASSES,
        kernel: str = "auto",
        subround_workers: int = 0,
    ) -> None:
        if container not in ("bucket", "tree"):
            raise ValueError(f"unknown container {container!r}")
        self.container = container
        self.max_passes = max_passes
        # Underscore-prefixed: the sequential gain kernels cannot change
        # results, so they must stay out of the experiment-cache
        # fingerprint (which hashes only public attributes — see
        # repro.engine.units).  The subround kernel *does* change move
        # interleaving, so selecting it sets a public family marker that
        # keys its runs separately.
        self._kernel = kernel
        self._subround_workers = subround_workers
        if kernel == "subround":
            self.kernel_family = "subround"

    @property
    def kernel(self) -> str:
        """Configured gain-kernel backend (see :mod:`repro.kernels`)."""
        return self._kernel

    @property
    def name(self) -> str:
        return f"FM-{self.container}"

    def partition(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        initial_sides: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
        audit: Optional[AuditConfig] = None,
        recorder: Optional[Recorder] = None,
    ) -> BipartitionResult:
        """Bisect ``graph`` with FM (50-50 balance and seeded random start by default)."""
        if balance is None:
            balance = BalanceConstraint.fifty_fifty(graph)
        if initial_sides is None:
            initial_sides = random_balanced_sides(graph, seed)
        result = run_fm(
            graph,
            initial_sides,
            balance,
            container=self.container,
            max_passes=self.max_passes,
            seed=seed,
            audit=audit,
            recorder=recorder,
            kernel=self._kernel,
            subround_workers=self._subround_workers,
        )
        result.verify(graph)
        return result
