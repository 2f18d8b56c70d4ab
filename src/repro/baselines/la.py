"""Krishnamurthy's lookahead (LA-k) partitioner.

[Krishnamurthy 1984], as described in Sec. 2 of the DAC-96 paper: each node
carries a *gain vector* of ``k`` elements; for ``u ∈ V1`` the ith element is

    (# nets of u with i−1 other free V1 pins, removable by emptying V1)
  − (# nets of u whose V2 side has i−1 free pins, removable by emptying V2)

compared lexicographically (element 1 is exactly the FM gain, deeper
elements are lookahead levels).  Nets locked in a side can no longer be
removed through that side and stop contributing at the corresponding sign,
following Krishnamurthy's binding-number rules.

With ``k = 1`` the method degenerates to FM (a property the tests check).

Implementation note: the original achieves O(1) vector updates at the price
of the Θ(p_max^k) memory the DAC-96 paper criticizes; we instead recompute
the vectors of the moved node's neighbors after each move (O(d·p·q) per
move), trading that memory away — the partitioning *decisions*, and hence
cutsets, are unchanged.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, Tuple

from ..audit import AuditConfig, PassAuditor, resolve_audit
from ..datastructures import PassJournal, TreeGainContainer
from ..hypergraph import Hypergraph
from ..kernels import resolve_kernel
from ..partition import (
    BalanceConstraint,
    BipartitionResult,
    Partition,
    random_balanced_sides,
)
from ..telemetry import PassCounters, Recorder, resolve_recorder

DEFAULT_MAX_PASSES = 100

GainVector = Tuple[float, ...]

#: Optional per-move observer (pass_index, node, selection_vector,
#: immediate_gain) — the LA analogue of :data:`repro.core.engine.MoveObserver`
#: (the selection key is the gain vector rather than a scalar).
MoveObserver = Callable[[int, int, GainVector, float], None]


def gain_vector(partition: Partition, node: int, k: int) -> GainVector:
    """The LA-k gain vector of a free node (see module docstring)."""
    graph = partition.graph
    s = partition.side(node)
    o = 1 - s
    vec = [0.0] * k
    for net_id in graph.node_nets(node):
        cost = graph.net_cost(net_id)
        other_count = partition.count(net_id, o)

        # Positive prospect: the net leaves (or stays out of) the cut once
        # the remaining free same-side pins are moved across.
        if not partition.net_locked_in(net_id, s):
            level = partition.free_count(net_id, s)  # others + self
            if 1 <= level <= k:
                vec[level - 1] += cost

        if other_count == 0:
            # Internal net: moving `node` cuts it immediately.
            vec[0] -= cost
        elif not partition.net_locked_in(net_id, o):
            # Moving `node` forecloses removing the net by emptying the
            # other side (the LA analogue of PROP's −p(n^{2→1}) term).
            level = partition.free_count(net_id, o) + 1
            if level - 1 >= 1 and level <= k:
                vec[level - 1] -= cost
    return tuple(vec)


def _pick_move(
    containers: Tuple[TreeGainContainer, TreeGainContainer],
    partition: Partition,
    balance: BalanceConstraint,
) -> Optional[int]:
    candidates = []
    for side in (0, 1):
        if containers[side]:
            node, vec = containers[side].peek_best()
            candidates.append((vec, side, node))
    candidates.sort(reverse=True)
    weights = partition.side_weights
    for _, side, node in candidates:
        if balance.move_allowed(weights, side, partition.graph.node_weight(node)):
            return node
    return None


def _run_pass(
    partition: Partition,
    balance: BalanceConstraint,
    k: int,
    observer: Optional[MoveObserver] = None,
    pass_index: int = 0,
    auditor: Optional[PassAuditor] = None,
    rec: Optional[Recorder] = None,
    phase: Optional[dict] = None,
    csr=None,
) -> PassJournal:
    """One tentative-move LA-k pass; locks are left set.

    ``rec`` must already be resolved (enabled or ``None``); ``phase`` is
    the run-level phase-seconds accumulator, updated whether or not a
    recorder is attached.  ``csr`` (a :class:`repro.kernels.CsrView`, or
    ``None`` for the scalar path) switches the vector bootstrap to the
    vectorized kernel — bit-identical values either way (passes always
    start unlocked, the kernel's precondition).
    """
    graph = partition.graph
    if auditor is not None:
        auditor.start_pass(partition)
    counters = PassCounters() if rec is not None else None

    t0 = time.perf_counter()
    containers = (TreeGainContainer(), TreeGainContainer())
    if csr is not None:
        from ..kernels.numpy_backend import la_initial_vectors

        for v, vec in enumerate(la_initial_vectors(csr, partition, k)):
            containers[partition.side(v)].insert(v, vec)
    else:
        for v in range(graph.num_nodes):
            containers[partition.side(v)].insert(
                v, gain_vector(partition, v, k)
            )
    t1 = time.perf_counter()

    journal = PassJournal()
    while True:
        node = _pick_move(containers, partition, balance)
        if node is None:
            break
        from_side = partition.side(node)
        selection_vector = containers[from_side].remove(node)
        immediate = partition.move_and_lock(node)
        if rec is not None:
            rec.move(
                pass_index, len(journal), node, from_side,
                selection_vector, immediate,
            )
            counters.moves += 1
        journal.record(node, from_side, immediate)
        if observer is not None:
            observer(pass_index, node, selection_vector, immediate)

        # Refresh the vectors of all free neighbors.
        seen = {node}
        for net_id in graph.node_nets(node):
            for nbr in graph.net(net_id):
                if nbr in seen or partition.is_locked(nbr):
                    seen.add(nbr)
                    continue
                seen.add(nbr)
                vec = gain_vector(partition, nbr, k)
                if counters is not None:
                    counters.neighbor_updates += 1
                container = containers[partition.side(nbr)]
                if container.gain_of(nbr) != vec:
                    container.update(nbr, vec)
                    if counters is not None:
                        counters.container_updates += 1
        if auditor is not None and auditor.after_move(
            partition, node, immediate
        ):
            auditor.check_la_vectors(partition, containers, k)
    t2 = time.perf_counter()
    if phase is not None:
        phase["gain_init_seconds"] += t1 - t0
        phase["move_loop_seconds"] += t2 - t1
    if rec is not None:
        rec.span(pass_index, "gain_init", t1 - t0)
        rec.span(pass_index, "move_loop", t2 - t1)
        rec.counters(pass_index, counters.as_dict())
    return journal


def run_la(
    graph: Hypergraph,
    initial_sides: Sequence[int],
    balance: BalanceConstraint,
    k: int = 2,
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: Optional[int] = None,
    observer: Optional[MoveObserver] = None,
    audit: Optional[AuditConfig] = None,
    recorder: Optional[Recorder] = None,
    kernel: Optional[str] = None,
) -> BipartitionResult:
    """Run LA-k from an explicit initial partition.

    ``audit`` attaches a read-only invariant auditor (see
    :mod:`repro.audit`); ``None`` defers to ``REPRO_AUDIT``.  Only nodes
    sharing a net with the moved node can see their vectors change, and
    LA refreshes exactly those — so the audited invariant is full
    equality of every stored vector with the Krishnamurthy definition.
    Time spent in audit hooks is excluded from ``runtime_seconds`` and
    reported as the ``audit_seconds`` stat.

    ``recorder`` attaches a :class:`repro.telemetry.Recorder` (spans,
    per-move events with the gain *vector* as the selection key, and
    counters); recording never changes moves or cuts.

    ``kernel`` selects the vector-bootstrap backend (see
    :mod:`repro.kernels`; ``None`` means ``"auto"``).  The backends are
    bit-identical, so moves and cuts never depend on this.  LA has no
    sub-round pass engine (the lookahead vectors have no batched
    formulation yet); requesting ``"subround"`` warns and runs the
    sequential numpy path.
    """
    if k < 1:
        raise ValueError(f"lookahead k must be >= 1, got {k}")
    algorithm = f"LA-{k}"
    start = time.perf_counter()
    partition = Partition(graph, initial_sides)
    kernel_name = resolve_kernel(kernel, num_pins=graph.num_pins)
    if kernel_name == "subround":
        import warnings

        warnings.warn(
            "LA has no subround pass engine; using the sequential "
            "numpy backend",
            RuntimeWarning,
            stacklevel=2,
        )
        kernel_name = resolve_kernel("numpy")
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
    passes = 0
    total_moves = 0
    pass_cuts = []
    while passes < max_passes:
        pass_start = time.perf_counter()
        if rec is not None:
            rec.pass_start(passes)
        journal = _run_pass(
            partition, balance, k,
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


class LAPartitioner:
    """Lookahead partitioner LA-k (k = 2 and 3 in the paper's tables)."""

    #: LA accepts a per-call ``audit`` config (see :mod:`repro.audit`).
    supports_audit = True

    #: LA accepts a per-call ``recorder`` (see :mod:`repro.telemetry`).
    supports_telemetry = True

    def __init__(
        self,
        k: int = 2,
        max_passes: int = DEFAULT_MAX_PASSES,
        kernel: str = "auto",
    ) -> None:
        if k < 1:
            raise ValueError(f"lookahead k must be >= 1, got {k}")
        self.k = k
        self.max_passes = max_passes
        # Underscore-prefixed: the gain kernel cannot change results, so
        # it must stay out of the experiment-cache fingerprint (which
        # hashes only public attributes — see repro.engine.units).
        self._kernel = kernel

    @property
    def kernel(self) -> str:
        """Configured gain-kernel backend (see :mod:`repro.kernels`)."""
        return self._kernel

    @property
    def name(self) -> str:
        return f"LA-{self.k}"

    def partition(
        self,
        graph: Hypergraph,
        balance: Optional[BalanceConstraint] = None,
        initial_sides: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
        audit: Optional[AuditConfig] = None,
        recorder: Optional[Recorder] = None,
    ) -> BipartitionResult:
        """Bisect ``graph`` with LA-k (50-50 balance and seeded random start by default)."""
        if balance is None:
            balance = BalanceConstraint.fifty_fifty(graph)
        if initial_sides is None:
            initial_sides = random_balanced_sides(graph, seed)
        result = run_la(
            graph,
            initial_sides,
            balance,
            k=self.k,
            max_passes=self.max_passes,
            seed=seed,
            audit=audit,
            recorder=recorder,
            kernel=self._kernel,
        )
        result.verify(graph)
        return result
