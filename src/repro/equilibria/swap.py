"""Bilateral Swap Equilibrium (BSwE): stability against cooperative swaps.

A swap takes ``uv in E`` and ``uw not in E``: agent ``u`` replaces her edge
to ``v`` by an edge to ``w``; ``w`` consents and starts paying.  The move is
improving iff ``u``'s distance cost strictly drops (her buying cost is
unchanged) and ``w``'s distance gain strictly exceeds ``alpha``.

Two exact strategies:

* **trees** — removing ``uv`` splits the node set; all post-swap distances
  are closed-form in the original APSP matrix and the split masks, giving an
  ``O(n^2)`` vectorised evaluation per edge (``O(n^3)`` total, no BFS);
* **general graphs** — bridge edges split the cached matrix in closed form
  (no mutation, no search); other edges are speculatively removed on the
  state's cached :class:`~repro.graphs.distances.DistanceMatrix`
  (affected-rows BFS repair, undone via the token afterwards); then the
  one-edge-add identity evaluates every candidate ``w`` — no full APSP
  rebuilds anywhere.
"""

from __future__ import annotations

import numpy as np

from repro._alpha import strict_gt_threshold
from repro.core.moves import Swap
from repro.core.state import GameState
from repro.graphs.distances import adjacency_bool
from repro.graphs.trees import tree_split_masks

__all__ = [
    "find_improving_swap",
    "is_bilateral_swap_equilibrium",
    "swap_gains",
    "viable_swap_partners",
]


def viable_swap_partners(
    removed: np.ndarray,
    totals: np.ndarray,
    adjacency: np.ndarray,
    threshold: int,
    actor: int,
    old: int,
    valuer=None,
) -> np.ndarray:
    """Partners ``w`` for which swap ``(actor, old -> w)`` is improving.

    ``removed`` is the exact APSP matrix of ``G - {actor, old}``; gains come
    from the one-edge-add identity.  Shared by the BSwE checker and the swap
    move generator so the two can never disagree.  Ascending node order.

    With a ``valuer`` (the state's
    :class:`~repro.core.costmodel.ModelOps` under a traffic or cost
    model), ``totals`` must be the model aggregates and gains are
    model-value drops of the hypothetical rows — the candidate rows
    themselves stay raw distances.
    """
    # actor's new distances with partner w:  min(rm[actor], 1 + rm[w])
    actor_rows = np.minimum(removed[actor][None, :], 1 + removed)
    # partner w's new distances:             min(rm[w], 1 + rm[actor])
    partner_rows = np.minimum(removed, (1 + removed[actor])[None, :])
    if valuer is not None:
        gain_actor = int(totals[actor]) - valuer.rows_value(actor, actor_rows)
        gain_w = totals - valuer.rows_value_per_owner(partner_rows)
    else:
        gain_actor = int(totals[actor]) - actor_rows.sum(axis=1)
        gain_w = totals - partner_rows.sum(axis=1)
    viable = (gain_actor >= 1) & (gain_w >= threshold)
    viable[actor] = False
    viable[old] = False
    viable &= ~adjacency[actor]
    return np.flatnonzero(viable)


def swap_gains(state: GameState, actor: int, old: int, new: int) -> tuple[int, int]:
    """Exact distance gains ``(gain_actor, gain_new)`` of one specific swap.

    Evaluated on the speculative kernel (apply the swap to the cached
    engine, read both agents' total deltas, undo) — the same code path the
    vectorised searches below speculate on, so the two can never disagree.
    Tests re-derive these gains with fresh BFS runs on a mutated copy.
    """
    from repro.core.speculative import SpeculativeEvaluator

    spec = SpeculativeEvaluator(state)
    with spec.speculate(Swap(actor=actor, old=old, new=new)):
        return (-spec.dist_delta(actor), -spec.dist_delta(new))


def _find_swap_tree(state: GameState) -> Swap | None:
    dist = state.dist_matrix
    totals = dist.sum(axis=1)
    w_threshold = strict_gt_threshold(state.alpha)
    n = state.n
    for a, b in state.graph.edges:
        mask_a, mask_b = tree_split_masks(state.graph, a, b, n)
        # column sums of the APSP matrix restricted to each side, per node
        sums_b = dist @ mask_b.astype(np.int64)
        sums_a = totals - sums_b
        size_a = int(mask_a.sum())
        size_b = n - size_a
        for actor, old, far_mask, far_sums, far_size, near_sums, near_size in (
            (a, b, mask_b, sums_b, size_b, sums_a, size_a),
            (b, a, mask_a, sums_a, size_a, sums_b, size_b),
        ):
            # actor keeps its side, reattaches to w on the far side:
            #   gain_actor(w) = sum_{x far} d(actor,x) - (|far| + sum_{x far} d(w,x))
            #   gain_w(w)     = sum_{x near} d(w,x) - (|near| + sum_{x near} d(actor,x))
            gain_actor = int(far_sums[actor]) - far_size - far_sums
            gain_w = near_sums - near_size - int(near_sums[actor])
            viable = (gain_actor >= 1) & (gain_w >= w_threshold) & far_mask
            viable[old] = False
            candidates = np.flatnonzero(viable)
            if candidates.size:
                return Swap(actor=actor, old=old, new=int(candidates[0]))
    return None


def _find_swap_general(state: GameState) -> Swap | None:
    dm = state.dist
    valuer = state.value_ops
    totals = dm.totals() if valuer is None else dm.ftotals()
    w_threshold = strict_gt_threshold(state.alpha)
    graph = state.graph
    adjacency = adjacency_bool(graph)
    for a, b in list(graph.edges):
        if dm.is_bridge(a, b):
            # mutation-free: the post-removal matrix of a bridge is a
            # two-component split of the cached one (no search)
            removed = dm.matrix_after_bridge_removal(a, b)
            token = None
        else:
            # speculative in-place removal on the cached engine, undone below
            token = dm.apply_remove(a, b)
            removed = dm.matrix
        try:
            for actor, old in ((a, b), (b, a)):
                candidates = viable_swap_partners(
                    removed, totals, adjacency, w_threshold, actor, old,
                    valuer=valuer,
                )
                if candidates.size:
                    return Swap(actor=actor, old=old, new=int(candidates[0]))
        finally:
            if token is not None:
                dm.undo(token)
    return None


def find_improving_swap(state: GameState) -> Swap | None:
    """First mutually improving swap, or ``None`` (exact).

    Weighted and modeled states (``state.value_ops``) always take the
    general engine-backed path: the closed-form tree evaluation
    vectorises over *uniform linear* side sums, and on trees every edge
    is a bridge anyway, so the general path stays mutation-free there.
    """
    if state.n < 3 or state.graph.number_of_edges() == 0:
        return None
    if state.value_ops is None and state.is_tree():
        return _find_swap_tree(state)
    return _find_swap_general(state)


def is_bilateral_swap_equilibrium(state: GameState) -> bool:
    """Exact BSwE check."""
    return find_improving_swap(state) is None
