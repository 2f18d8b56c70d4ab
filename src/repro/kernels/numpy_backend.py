"""NumPy gain kernels — bit-identical vectorization of the scalar engines.

The contract of this module is *exact* numerical equivalence with
:mod:`repro.core.gains` (and the FM/LA init loops): same floats, same
underflow-guard branches, same counter increments — so the move sequences,
prefix choices, and cuts of every partitioner are identical bit for bit
regardless of backend.  That contract rests on three verified properties
of the primitives used here (and *only* these primitives):

* ``np.multiply.at(out, idx, factors)`` applies factors **sequentially in
  input order** — the same left-to-right order as the scalar per-net
  product loops.  Multiplying by the masked-out ``1.0`` factors is an
  exact IEEE identity, so the per-side products match the scalar
  interleaved loop bit for bit.  (``np.multiply.reduceat`` does *not*
  guarantee this — it unrolls into multiple accumulators — and must never
  be used here.)
* ``np.bincount(idx, weights=w)`` accumulates weights sequentially in
  input order starting from ``+0.0`` — the same order as the scalar
  per-node sums over ``node_nets``.  Adding the masked-out ``+0.0`` terms
  is exact because no partial sum is ever ``-0.0`` (partial sums of the
  gain terms that cancel exactly yield ``+0.0`` under round-to-nearest).
  (``np.add.reduce``/``reduceat`` use pairwise summation and must never
  be used here.)
* Elementwise divide/subtract/multiply are IEEE-correct per element, so
  they match the corresponding scalar expressions exactly.

The incremental move-loop engine keeps a per-net side-product cache
(plain Python lists — the per-move working set is a handful of nets, where
list indexing beats ndarray indexing and avoids leaking ``np.float64``
into gain containers and journals) that is invalidated by
``set_probability``/``on_lock``/``fill`` and refreshed wholesale by the
vectorized bootstrap/refinement kernels, so a move costs O(pins of the
moved node's nets) without rescanning unchanged nets.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.gains import DIV_SAFE_MIN, ProbabilisticGainEngine
from ..partition import Partition
from .csr import CsrView

__all__ = ["NumpyGainEngine", "fm_initial_gains", "la_initial_vectors"]


class NumpyGainEngine(ProbabilisticGainEngine):
    """Drop-in :class:`ProbabilisticGainEngine` with vectorized kernels.

    Overrides the O(m) bulk computations (:meth:`all_gains` and the
    cached-strategy bootstrap) with array kernels over a :class:`CsrView`,
    and the cached-strategy move update with an incremental engine that
    reuses per-net side products across moves when no pin of the net has
    changed.  Everything else — scalar ``node_gain``, probability
    maintenance, validation — is inherited, so the recompute-strategy move
    loop is *identical* code to the python backend.
    """

    __slots__ = (
        "csr",
        "_prod0",
        "_prod1",
        "_prod_src",
        "_prod_lists_fresh",
        "_prod_valid",
        "_dirty_nodes",
        "_dirty_flags",
        "_all_invalid",
        "_buf",
        "product_cache_hits",
        "product_cache_misses",
    )

    kernel_name = "numpy"

    def __init__(
        self,
        partition: Partition,
        probabilities: Optional[Sequence[float]] = None,
        csr: Optional[CsrView] = None,
    ) -> None:
        super().__init__(partition, probabilities)
        self.csr = csr if csr is not None else CsrView(partition.graph)
        num_nets = partition.graph.num_nets
        #: Cached per-net side clearing-products (Sec. 3.1's p(n^{1→2})
        #: without exclusions) and their validity flags.  The bulk kernels
        #: refresh the cache as a (2, num_nets) array (``_prod_src``); the
        #: plain-list twins consumed by the scalar move loop are
        #: materialized lazily (see :meth:`_ensure_product_lists`), so
        #: refinement iterations never pay the array→list conversion.
        self._prod0: List[float] = [1.0] * num_nets
        self._prod1: List[float] = [1.0] * num_nets
        self._prod_src: Optional[np.ndarray] = None
        self._prod_lists_fresh = True
        self._prod_valid: List[bool] = [False] * num_nets
        # Deferred invalidation: probability writes append the touched
        # node here (O(1)) instead of walking its nets; the walk happens
        # once, at the next cache read (see _flush_invalidations).  A node
        # is queued only on its first write since the last clear
        # (``_dirty_flags``), so the list never outgrows ``num_nodes``.
        self._dirty_nodes: List[int] = []
        self._dirty_flags = bytearray(partition.graph.num_nodes)
        self._all_invalid = False
        #: Incremental-engine telemetry: nets whose cached products were
        #: reused / had to be rescanned during move updates.
        self.product_cache_hits = 0
        self.product_cache_misses = 0
        # Preallocated scratch for the bulk kernels: one allocation per
        # run instead of a dozen num_pins-sized temporaries per call.
        m = self.csr.num_pins
        self._buf = {
            "pin_side": np.empty(m, dtype=np.intp),
            "pin_p": np.empty(m, dtype=np.float64),
            "pin_mask": np.empty(m, dtype=bool),
            "f0": np.empty(m, dtype=np.float64),
            "f1": np.empty(m, dtype=np.float64),
            "prods": np.empty(2 * num_nets, dtype=np.float64),
            "counts": np.empty(2 * num_nets, dtype=np.float64),
            "s": np.empty(m, dtype=np.intp),
            "flat": np.empty(m, dtype=np.intp),
            "flat_o": np.empty(m, dtype=np.intp),
            "pm": np.empty(m, dtype=np.float64),
            "po": np.empty(m, dtype=np.float64),
            "oc": np.empty(m, dtype=np.float64),
            "pu": np.empty(m, dtype=np.float64),
            "prod_a": np.empty(m, dtype=np.float64),
            "ot": np.empty(m, dtype=np.float64),
            "contrib": np.empty(m, dtype=np.float64),
            "ok": np.empty(m, dtype=bool),
            "ok2": np.empty(m, dtype=bool),
        }

    # ------------------------------------------------------------------
    # Cache invalidation — any probability change invalidates the products
    # of the touched node's nets.  Side changes (moves) only happen via
    # move_and_lock during a pass, whose on_lock lands here too; rollback
    # moves between passes are covered because every pass bootstrap
    # rewrites all free probabilities before any product is read.
    # Invalidation is deferred: the hot probability writes (n per
    # refinement sweep) just append the node; the per-net walk runs once,
    # at the next cache read.
    # ------------------------------------------------------------------
    def set_probability(self, node: int, value: float) -> None:
        super().set_probability(node, value)
        self._mark_dirty(node)

    def fill(self, value: float) -> None:
        super().fill(value)
        self._all_invalid = True
        self._clear_dirty()

    def on_lock(self, node: int) -> None:
        super().on_lock(node)
        self._mark_dirty(node)

    def _mark_dirty(self, node: int) -> None:
        flags = self._dirty_flags
        if not flags[node]:
            flags[node] = 1
            self._dirty_nodes.append(node)

    def _clear_dirty(self) -> None:
        flags = self._dirty_flags
        for v in self._dirty_nodes:
            flags[v] = 0
        self._dirty_nodes.clear()

    def _flush_invalidations(self) -> None:
        """Apply deferred invalidations before any validity flag is read."""
        if self._all_invalid:
            # Supersedes any queued per-node invalidation.
            self._prod_valid = [False] * self.csr.num_nets
            self._all_invalid = False
            self._clear_dirty()
        elif self._dirty_nodes:
            valid = self._prod_valid
            node_nets = self.partition.graph.node_nets
            for v in self._dirty_nodes:
                for net_id in node_nets(v):
                    valid[net_id] = False
            self._clear_dirty()

    # ------------------------------------------------------------------
    # Vectorized bulk kernels
    # ------------------------------------------------------------------
    def _bulk_kernel(
        self, p_arr: np.ndarray, side_arr: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-net side products + node-major contributions in one sweep.

        Returns ``(prod0, prod1, contrib)``: the per-net side
        clearing-products and the per-(node, net) gain contributions
        (Eqns. 3–6) in node-major order.  All three are views into the
        engine's reused scratch buffers — valid only until the next bulk
        call; callers copy what they keep.  Bit-identical to the scalar
        engines:

        * masked pins contribute an exact ``×1.0`` identity and
          ``multiply.at`` applies factors in pin order, matching the
          scalar product loops; locked pins carry ``p = 0`` and force
          their side's product to ``+0.0`` exactly as in the scalar path;
        * other-side pin counts are recovered with an exact
          small-integer ``bincount`` (only their ``> 0`` predicate is
          consumed, as in the scalar branch);
        * contribution entries of locked owners are garbage (their divide
          is masked off) and must be ignored by callers, mirroring the
          scalar engines which skip locked nodes outright;
        * the underflow/zero fallback loop visits pins in node-major
          order — the same (node, net) order as the scalar loops — so
          ``underflow_recomputes`` advances identically on both backends.
        """
        part = self.partition
        csr = self.csr
        b = self._buf
        E = csr.num_nets

        # --- net-major: side clearing-products -------------------------
        pin_side = b["pin_side"]
        pin_p = b["pin_p"]
        mask = b["pin_mask"]
        np.take(side_arr, csr.pin_node, out=pin_side)
        np.take(p_arr, csr.pin_node, out=pin_p)
        # ×1.0 substitution via masked copy (pure selection, identical to
        # np.where but into the preallocated factor buffers).
        f0 = b["f0"]
        f1 = b["f1"]
        f0.fill(1.0)
        f1.fill(1.0)
        np.equal(pin_side, 0, out=mask)
        np.copyto(f0, pin_p, where=mask)
        np.equal(pin_side, 1, out=mask)
        np.copyto(f1, pin_p, where=mask)
        prods = b["prods"]
        prods.fill(1.0)
        prod0 = prods[:E]
        prod1 = prods[E:]
        np.multiply.at(prod0, csr.pin_net, f0)
        np.multiply.at(prod1, csr.pin_net, f1)
        # Per-net side pin counts: count1 sums the 0/1 sides (exact in
        # float64), count0 is the static net size minus count1.
        counts = b["counts"]
        count1 = np.bincount(csr.pin_net, weights=pin_side, minlength=E)
        np.subtract(csr.net_size, count1, out=counts[:E])
        counts[E:] = count1

        # --- node-major: per-(node, net) contributions ------------------
        own = csr.nm_owner
        net = csr.nm_net
        s = b["s"]
        np.take(side_arr, own, out=s)
        # Flat indices into the length-2E side stacks: mine = s*E + net,
        # other = nm_flip - mine (their sum is always E + 2*net) — a
        # single gather per selection, no arithmetic on the values.
        flat = b["flat"]
        flat_o = b["flat_o"]
        np.multiply(s, E, out=flat)
        np.add(flat, net, out=flat)
        np.subtract(csr.nm_flip, flat, out=flat_o)
        pm = b["pm"]
        po = b["po"]
        oc = b["oc"]
        pu = b["pu"]
        np.take(prods, flat, out=pm)
        np.take(prods, flat_o, out=po)
        np.take(counts, flat_o, out=oc)
        np.take(p_arr, own, out=pu)
        ok = b["ok"]
        ok2 = b["ok2"]
        np.greater(pu, 0.0, out=ok)
        np.greater_equal(pm, DIV_SAFE_MIN, out=ok2)
        np.logical_and(ok, ok2, out=ok)
        prod_a = b["prod_a"]
        prod_a.fill(0.0)
        np.divide(pm, pu, out=prod_a, where=ok)
        if not ok.all():
            locked_arr = np.asarray(part.locked_view(), dtype=bool)
            np.logical_not(ok, out=ok2)
            for i in np.nonzero(ok2 & ~locked_arr[own])[0]:
                pm_i = float(pm[i])
                if 0.0 < pm_i < DIV_SAFE_MIN:
                    self.underflow_recomputes += 1
                prod_a[i] = self.net_clearing_probability(
                    int(net[i]), int(s[i]), exclude=int(own[i])
                )
        # cost*(prod_a - po) / cost*(prod_a - 1.0), selected before the
        # subtract+multiply — elementwise identical to selecting after.
        ot = b["ot"]
        ot.fill(1.0)
        np.greater(oc, 0.0, out=ok2)
        np.copyto(ot, po, where=ok2)
        contrib = b["contrib"]
        np.subtract(prod_a, ot, out=contrib)
        np.multiply(csr.nm_cost, contrib, out=contrib)
        return prod0, prod1, contrib

    def _refresh_product_cache(
        self, prod0: np.ndarray, prod1: np.ndarray
    ) -> None:
        """Adopt freshly computed side products (whole cache valid).

        ``prod0``/``prod1`` are views of the reused scratch buffer, so the
        cache keeps its own copy; the plain-list twins the move loop reads
        are materialized lazily (:meth:`_ensure_product_lists`) — the
        refinement loop refreshes the cache every ``all_gains`` call and
        would otherwise pay a useless array→list conversion each time.
        """
        self._prod_src = np.concatenate((prod0, prod1))
        self._prod_lists_fresh = False
        self._prod_valid = [True] * self.csr.num_nets
        self._clear_dirty()
        self._all_invalid = False

    def _ensure_product_lists(self) -> None:
        if not self._prod_lists_fresh:
            E = self.csr.num_nets
            self._prod0 = self._prod_src[:E].tolist()
            self._prod1 = self._prod_src[E:].tolist()
            self._prod_lists_fresh = True

    def all_gains(self) -> List[float]:
        """Vectorized :meth:`ProbabilisticGainEngine.all_gains` (bit-identical)."""
        part = self.partition
        num_nodes = part.graph.num_nodes
        p_arr = np.asarray(self.p, dtype=np.float64)
        side_arr = np.asarray(part.sides_view(), dtype=np.intp)
        prod0, prod1, contrib = self._bulk_kernel(p_arr, side_arr)
        gains = np.bincount(
            self.csr.nm_owner, weights=contrib, minlength=num_nodes
        )
        if part.num_locked:
            locked_arr = np.asarray(part.locked_view(), dtype=bool)
            gains[locked_arr] = 0.0
        self._refresh_product_cache(prod0, prod1)
        return gains.tolist()

    # ------------------------------------------------------------------
    # Cached-update strategy (Sec. 3.4, Eqns. 5/6) — incremental engine
    # ------------------------------------------------------------------
    # State layout: a flat per-(node, net) contribution list in node-major
    # order, addressed via csr.node_offset / csr.netpin_to_nodepin, instead
    # of the python backend's per-node dicts.  Bootstrap is vectorized;
    # per-move updates are scalar loops over the moved node's nets (a
    # handful of pins) that reuse cached side products when valid.

    def new_contribution_state(self) -> List[float]:
        """Vectorized bootstrap of the flat contribution cache.

        Only valid values for *free* nodes are stored (matching the scalar
        backend, which gives locked nodes empty dicts); the pass engine
        calls this before any node is locked.
        """
        part = self.partition
        p_arr = np.asarray(self.p, dtype=np.float64)
        side_arr = np.asarray(part.sides_view(), dtype=np.intp)
        prod0, prod1, contrib = self._bulk_kernel(p_arr, side_arr)
        self._refresh_product_cache(prod0, prod1)
        return contrib.tolist()

    def contribution_move_deltas(
        self, moved: int, contribs: List[float], counters=None
    ) -> List[Tuple[int, float]]:
        """Incremental Eqn. (5)/(6) refresh around a just-locked move.

        Identical arithmetic, visit order, and return order to the python
        backend's ``net_pin_contributions``-based version; the only
        difference is that a net whose cached side products are still
        valid skips the O(q) product rescan.
        """
        part = self.partition
        graph = part.graph
        p = self.p
        sides = part.sides_view()
        locked = part.locked_view()
        counts0 = part.counts_view(0)
        counts1 = part.counts_view(1)
        net_costs = graph.net_costs
        net_offset = self.csr.net_offset_list
        nodepin = self.csr.netpin_to_nodepin_list
        self._ensure_product_lists()
        self._flush_invalidations()
        valid = self._prod_valid
        prod0 = self._prod0
        prod1 = self._prod1
        deltas = {}
        for net_id in graph.node_nets(moved):
            if counters is not None:
                counters.cache_net_recomputes += 1
            pins = graph.net(net_id)
            if valid[net_id]:
                a = prod0[net_id]
                b = prod1[net_id]
                self.product_cache_hits += 1
                if counters is not None:
                    counters.product_cache_hits += 1
            else:
                a = b = 1.0
                for v in pins:
                    if sides[v] == 0:
                        a *= p[v]
                    else:
                        b *= p[v]
                prod0[net_id] = a
                prod1[net_id] = b
                valid[net_id] = True
                self.product_cache_misses += 1
                if counters is not None:
                    counters.product_cache_misses += 1
            cost = net_costs[net_id]
            c0 = counts0[net_id]
            c1 = counts1[net_id]
            base = net_offset[net_id]
            for i, v in enumerate(pins):
                if locked[v]:
                    continue
                sv = sides[v]
                pv = p[v]
                prod_mine = a if sv == 0 else b
                if pv > 0.0 and prod_mine >= DIV_SAFE_MIN:
                    prod_a = prod_mine / pv
                else:
                    if 0.0 < prod_mine < DIV_SAFE_MIN:
                        self.underflow_recomputes += 1
                    prod_a = self.net_clearing_probability(net_id, sv, exclude=v)
                if sv == 0:
                    new_c = cost * (prod_a - b) if c1 > 0 else cost * (prod_a - 1.0)
                else:
                    new_c = cost * (prod_a - a) if c0 > 0 else cost * (prod_a - 1.0)
                idx = nodepin[base + i]
                old_c = contribs[idx]
                if new_c != old_c:
                    contribs[idx] = new_c
                    deltas[v] = deltas.get(v, 0.0) + (new_c - old_c)
                    if counters is not None:
                        counters.cache_entry_deltas += 1
                else:
                    deltas.setdefault(v, 0.0)
        return list(deltas.items())

    def refresh_contributions(
        self, node: int, contribs: List[float], counters=None
    ) -> float:
        """Full per-net recompute for one node into the flat cache."""
        graph = self.partition.graph
        start = self.csr.node_offset_list[node]
        vals = [
            self.net_gain(node, net_id) for net_id in graph.node_nets(node)
        ]
        gain = sum(vals)
        for i, g in enumerate(vals):
            contribs[start + i] = g
        if counters is not None:
            counters.cache_net_recomputes += len(vals)
        return gain

    # ------------------------------------------------------------------
    # Audit hook
    # ------------------------------------------------------------------
    def product_cache_snapshot(self) -> Iterator[Tuple[int, float, float]]:
        """Yield ``(net_id, prod0, prod1)`` for every *valid* cache entry.

        :meth:`repro.audit.PassAuditor.check_prop_kernel` recomputes each
        yielded product sequentially and demands exact equality.
        """
        self._ensure_product_lists()
        self._flush_invalidations()
        prod0 = self._prod0
        prod1 = self._prod1
        for net_id, ok in enumerate(self._prod_valid):
            if ok:
                yield net_id, prod0[net_id], prod1[net_id]


# ----------------------------------------------------------------------
# Baseline (FM / LA) initial-gain kernels
# ----------------------------------------------------------------------
def fm_initial_gains(csr: CsrView, partition: Partition) -> List[float]:
    """Vectorized FM Eqn. (1) gains for every node, bit-identical to
    calling ``partition.immediate_gain(v)`` for each node in turn.

    ``bincount`` sums the per-incidence terms in node-major order — the
    same order and the same ``±cost`` values as the scalar loop; masked
    terms add an exact ``+0.0``.
    """
    own = csr.nm_owner
    net = csr.nm_net
    side_arr = np.asarray(partition.sides_view(), dtype=np.intp)
    counts0 = np.asarray(partition.counts_view(0), dtype=np.int64)
    counts1 = np.asarray(partition.counts_view(1), dtype=np.int64)
    is0 = side_arr[own] == 0
    mine = np.where(is0, counts0[net], counts1[net])
    theirs = np.where(is0, counts1[net], counts0[net])
    cost = csr.net_cost[net]
    term = np.where(
        theirs == 0,
        np.where(mine > 1, -cost, 0.0),
        np.where(mine == 1, cost, 0.0),
    )
    gains = np.bincount(own, weights=term, minlength=csr.num_nodes)
    return gains.tolist()


def la_initial_vectors(
    csr: CsrView, partition: Partition, k: int
) -> List[Tuple[float, ...]]:
    """Vectorized LA-k gain vectors for every node at *pass start*.

    Bit-identical to ``gain_vector(partition, v, k)`` per node **when no
    node is locked** (the pass-bootstrap precondition): with no locks,
    ``free_count == count`` and no net is locked in a side, which is the
    specialization vectorized here.  Each incidence contributes its
    positive prospect then its negative prospect — interleaving the two
    slot streams reproduces the scalar per-net add order exactly.
    """
    if partition.num_locked:
        raise ValueError("la_initial_vectors requires an unlocked partition")
    num_nodes = csr.num_nodes
    own = csr.nm_owner
    net = csr.nm_net
    side_arr = np.asarray(partition.sides_view(), dtype=np.intp)
    counts0 = np.asarray(partition.counts_view(0), dtype=np.int64)
    counts1 = np.asarray(partition.counts_view(1), dtype=np.int64)
    is0 = side_arr[own] == 0
    mine = np.where(is0, counts0[net], counts1[net])
    other = np.where(is0, counts1[net], counts0[net])
    cost = csr.net_cost[net]
    base = own * k

    # Positive prospect: net removable by emptying the node's own side at
    # lookahead level free_count(s) = mine (includes the node itself).
    pos_ok = (mine >= 1) & (mine <= k)
    pos_idx = base + np.where(pos_ok, mine - 1, 0)
    pos_w = np.where(pos_ok, cost, 0.0)

    # Negative prospect: an internal net gets cut immediately (level 1);
    # a cut net's other-side removal (level other+1) is foreclosed.
    internal = other == 0
    neg_ok = internal | (other <= k - 1)
    neg_idx = base + np.where(internal, 0, np.where(neg_ok, other, 0))
    neg_w = np.where(neg_ok, -cost, 0.0)

    idx = np.stack([pos_idx, neg_idx], axis=1).ravel()
    w = np.stack([pos_w, neg_w], axis=1).ravel()
    flat = np.bincount(idx, weights=w, minlength=num_nodes * k)
    return [tuple(row) for row in flat.reshape(num_nodes, k).tolist()]
